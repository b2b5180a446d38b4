package core

import (
	"testing"

	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
	"vulcan/internal/profile"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// hashJoin models an analytics hash join with two alternating phases of
// phaseLength references each. Half the references hit the hash-table
// region (the first fifth of the pages) at random: writes while
// building, reads while probing. The other half stream the build
// relation (the next fifth) or the probe relation (the rest).
type hashJoin struct {
	pages, hashPages, buildPages, phaseLength int

	emitted, buildC, probeC int
	rng                     *sim.RNG
}

func newHashJoin(pages, phaseLength int, rng *sim.RNG) *hashJoin {
	return &hashJoin{pages: pages, hashPages: pages / 5, buildPages: pages / 5,
		phaseLength: phaseLength, rng: rng}
}

func (h *hashJoin) Name() string { return "hashjoin" }
func (h *hashJoin) Pages() int   { return h.pages }

func (h *hashJoin) Next() workload.Ref {
	build := (h.emitted/h.phaseLength)%2 == 0
	h.emitted++
	if h.rng.Bool(0.5) {
		return workload.Ref{Page: h.rng.Intn(h.hashPages), Write: build, LLCHitProb: 0.20}
	}
	if build {
		p := h.hashPages + h.buildC
		if h.buildC++; h.buildC >= h.buildPages {
			h.buildC = 0
		}
		return workload.Ref{Page: p, LLCHitProb: 0.03}
	}
	base := h.hashPages + h.buildPages
	p := base + h.probeC
	if h.probeC++; base+h.probeC >= h.pages {
		h.probeC = 0
	}
	return workload.Ref{Page: p, LLCHitProb: 0.03}
}

// TestVulcanAdaptsToPhaseChange runs the hash-join workload, whose hash
// region flips between write-intensive (build) and read-intensive
// (probe), and checks that the biased classification follows the phase —
// the dynamic behaviour the Table 1 queues and MLFQ exist for.
func TestVulcanAdaptsToPhaseChange(t *testing.T) {
	mcfg := machine.DefaultConfig()
	mcfg.Cores = 8
	mcfg.Tiers[mem.TierFast].CapacityPages = 512
	mcfg.Tiers[mem.TierSlow].CapacityPages = 1 << 14

	// Each thread draws from its own generator instance at 800 samples
	// per epoch, so a phase of 8000 refs spans 10 epochs per thread.
	var join *hashJoin
	app := workload.AppConfig{
		Name: "join", Class: workload.BE, Threads: 2, RSSPages: 4000,
		SharedFraction: 1.0, ComputeNs: 50 * sim.Nanosecond,
		NewGen: func(p int, rng *sim.RNG) workload.Generator {
			join = newHashJoin(p, 8000, rng)
			return join
		},
	}
	v := New(Options{})
	sys := system.New(system.Config{
		Machine:          mcfg,
		Apps:             []workload.AppConfig{app},
		Policy:           v,
		EpochLength:      20 * sim.Millisecond,
		SamplesPerThread: 800,
		Seed:             7,
	})

	// meanHashWriteFrac summarizes the profiled write intensity of the
	// hash region.
	meanHashWriteFrac := func() float64 {
		a := sys.App("join")
		sum, n := 0.0, 0
		for vp := 0; vp < join.hashPages; vp++ {
			if h := a.Profiler.Heat(pagetable.VPage(vp)); h > 0 {
				sum += a.Profiler.WriteFraction(pagetable.VPage(vp))
				n++
			}
		}
		if n == 0 {
			return -1
		}
		return sum / float64(n)
	}

	// Epochs 1-8: build phase dominates the samples.
	for i := 0; i < 8; i++ {
		sys.RunEpoch()
	}
	buildWF := meanHashWriteFrac()
	// Advance well into the probe phase (epochs 11+; the profile decays
	// at 0.5/epoch, so by epoch 17 the build-phase writes are residue).
	for i := 0; i < 9; i++ {
		sys.RunEpoch()
	}
	probeWF := meanHashWriteFrac()

	if buildWF < 0 || probeWF < 0 {
		t.Fatal("hash region never profiled")
	}
	if !(buildWF > 0.5) {
		t.Fatalf("build-phase hash write fraction = %v, want write-intensive", buildWF)
	}
	if !(probeWF < buildWF) {
		t.Fatalf("probe-phase write fraction %v did not fall below build %v",
			probeWF, buildWF)
	}
	// Classification must flip accordingly for a representative page.
	a := sys.App("join")
	pte, ok := a.Table.Lookup(0)
	if !ok {
		t.Fatal("hash page unmapped")
	}
	if c := Classify(pte, probeWF); c != SharedRead && c != PrivateRead {
		// Probe-phase hash pages should classify read-intensive once the
		// build-phase writes have decayed; tolerate lingering writes only
		// if the fraction is still falling.
		if probeWF > profile.WriteIntensiveThreshold && probeWF > buildWF/2 {
			t.Fatalf("classification stuck write-intensive: wf=%v class=%v", probeWF, c)
		}
	}
}
