package profile

import (
	"testing"

	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
)

// These tests pin the //vulcan:hotpath contract for the per-access
// Record implementations: after warm-up, recording an access must not
// allocate. Record runs once per simulated memory access, so a single
// stray allocation here dominates the whole simulation's garbage.

func warmTable(t *testing.T, pages int) *pagetable.Table {
	t.Helper()
	tbl := pagetable.New()
	for vp := pagetable.VPage(0); vp < pagetable.VPage(pages); vp++ {
		if err := tbl.Map(vp, pagetable.NewPTE(mem.Frame{Tier: mem.TierSlow, Index: uint32(vp)}, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func pinRecord(t *testing.T, name string, p Profiler, a Access) {
	t.Helper()
	// Warm-up inserts the page into the heat map so the measured runs
	// exercise the steady state (existing-key update, no map growth).
	for i := 0; i < 8; i++ {
		p.Record(a)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		p.Record(a)
	}); allocs != 0 {
		t.Errorf("%s.Record allocated %.0f objects/op in steady state, want 0", name, allocs)
	}
}

func TestPEBSRecordZeroAlloc(t *testing.T) {
	// sampleRate 1 makes every access take the sampling path, so the
	// measurement covers the heat-map update, not just the rng draw.
	pinRecord(t, "PEBS", newPEBS(1, 42), Access{VP: 3, Write: true, Fast: true})
}

func TestHybridRecordZeroAlloc(t *testing.T) {
	tbl := warmTable(t, 8)
	pinRecord(t, "Hybrid", NewHybrid(tbl, 1, 42), Access{VP: 3, Write: true, Fast: true})
}

func TestHintFaultRecordZeroAlloc(t *testing.T) {
	tbl := warmTable(t, 8)
	h := NewHintFault(tbl, 4, 1000)

	// Miss path: the page is not poisoned, Record is a lone bitmap probe.
	if allocs := testing.AllocsPerRun(200, func() {
		h.Record(Access{VP: 3, Fast: true})
	}); allocs != 0 {
		t.Errorf("HintFault.Record (unpoisoned) allocated %.0f objects/op, want 0", allocs)
	}

	// Hit path: consume the poison, credit heat, charge the fault. The
	// poison is re-armed each iteration; re-setting a bit in an already
	// allocated bitmap chunk must not allocate.
	h.poisoned.set(3)
	h.Record(Access{VP: 3, Write: true, Fast: true}) // warm the heat entry
	if allocs := testing.AllocsPerRun(200, func() {
		h.poisoned.set(3)
		h.Record(Access{VP: 3, Write: true, Fast: true})
	}); allocs != 0 {
		t.Errorf("HintFault.Record (poisoned) allocated %.0f objects/op, want 0", allocs)
	}
}

func TestFaultyRecordZeroAlloc(t *testing.T) {
	// Wrap a sampling inner profiler with a fault stream that drops every
	// other sample so both the dropped and forwarded branches run.
	f := NewFaulty(newPEBS(1, 42), &scriptedFaults{dropEvery: 2})
	pinRecord(t, "Faulty", f, Access{VP: 3, Write: true, Fast: true})
}

func TestHeatStoreRecordZeroAlloc(t *testing.T) {
	// The store itself, below any profiler: steady-state updates of an
	// existing cell (and the maxHeat maintenance) must not allocate.
	h := newHeatStore(0.5)
	for i := 0; i < 8; i++ {
		h.record(3, i%2 == 0, 1)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		h.record(3, true, 1)
	}); allocs != 0 {
		t.Errorf("heatStore.record allocated %.0f objects/op in steady state, want 0", allocs)
	}
}

func TestHeatStoreEndEpochZeroAlloc(t *testing.T) {
	// The decay sweep with snapshot collection enabled: after the first
	// epoch grows snapScratch, every later epoch must reuse it. Pages are
	// spread across several chunks and recorded hot enough to survive all
	// measured epochs (1e6 * 0.999^201 stays far above evictBelow), so the
	// measurement covers the survivor path, not just chunk wipes.
	h := newHeatStore(0.999)
	for vp := pagetable.VPage(0); vp < 64; vp++ {
		h.record(vp*(chunkPages/4+1), vp%3 == 0, 1e6)
	}
	h.snapshot() // consume once so endEpoch takes the collect path
	h.endEpoch() // warm-up: grows snapScratch
	if allocs := testing.AllocsPerRun(200, func() {
		h.endEpoch()
	}); allocs != 0 {
		t.Errorf("heatStore.endEpoch allocated %.0f objects/op in steady state, want 0", allocs)
	}
	if h.tracked() != 64 {
		t.Fatalf("tracked = %d after measured epochs, want 64 (pages must survive for the pin to mean anything)", h.tracked())
	}
}

func TestPEBSEpochCycleZeroAlloc(t *testing.T) {
	// A full profiler epoch cycle at steady state: sampled records
	// keeping the pages warm, then the decay sweep. Record and EndEpoch
	// together are the whole per-epoch profiling cost, so this is the
	// end-to-end pin the figure benchmarks rely on.
	p := NewPEBSWithDecay(1, 0.9, 42)
	for vp := pagetable.VPage(0); vp < 16; vp++ {
		p.Record(Access{VP: vp * 100, Write: vp%2 == 0, Fast: true})
	}
	p.HeatSnapshot() // consume once so endEpoch collects
	p.EndEpoch()
	if allocs := testing.AllocsPerRun(200, func() {
		for vp := pagetable.VPage(0); vp < 16; vp++ {
			p.Record(Access{VP: vp * 100, Write: vp%2 == 0, Fast: true})
		}
		p.EndEpoch()
	}); allocs != 0 {
		t.Errorf("PEBS Record+EndEpoch cycle allocated %.0f objects/op in steady state, want 0", allocs)
	}
}
