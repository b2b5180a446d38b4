package migrate

import (
	"testing"

	"vulcan/internal/mem"
	"vulcan/internal/obs"
	"vulcan/internal/obs/prof"
	"vulcan/internal/pagetable"
)

// TestEmitSyncNilSinkZeroAlloc pins the zero-allocation guarantee for
// the nil-obs.Sink path: with telemetry disabled, publishing a batch's
// events must not build a single Event (the obs.E variadic field list
// allocates, so every emission must be guarded by obs.Enabled).
func TestEmitSyncNilSinkZeroAlloc(t *testing.T) {
	e, _, _ := testEnv(t, 4, 8, nil)
	res := e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}, {VP: 1, To: mem.TierFast}})
	if e.cfg.Obs != nil {
		t.Fatal("testEnv should leave Obs nil")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.emitSync(res, 2)
	}); allocs != 0 {
		t.Fatalf("emitSync with nil sink allocated %.0f objects/op, want 0", allocs)
	}
}

// TestMigrateSyncSteadyStateAllocs pins the whole sync hot path: after
// warm-up, a batch migration with a nil sink allocates nothing — the
// scope bitmap, scope list, staging buffer, and Outcomes slice are all
// engine scratch reused across calls.
func TestMigrateSyncSteadyStateAllocs(t *testing.T) {
	e, _, _ := testEnv(t, 4, 32, func(c *Config) { c.TargetedShootdown = true })
	moves := []Move{{VP: 0, To: mem.TierFast}, {VP: 1, To: mem.TierFast}}
	flip := func() {
		// Alternate destinations so every call migrates both pages.
		if moves[0].To == mem.TierFast {
			moves[0].To, moves[1].To = mem.TierSlow, mem.TierSlow
		} else {
			moves[0].To, moves[1].To = mem.TierFast, mem.TierFast
		}
	}
	// Warm up the reusable buffers.
	for i := 0; i < 4; i++ {
		e.MigrateSync(moves)
		flip()
	}
	allocs := testing.AllocsPerRun(50, func() {
		e.MigrateSync(moves)
		flip()
	})
	if allocs != 0 {
		t.Fatalf("steady-state MigrateSync allocated %.0f objects/op, want 0", allocs)
	}
}

// TestMigrateSyncProfEnabledSteadyStateAllocs extends the hot-path
// allocation budget to an instrumented engine: charging every phase of
// a batch into the cost-attribution accounts must stay on the same
// zero-allocation budget as the uninstrumented path.
func TestMigrateSyncProfEnabledSteadyStateAllocs(t *testing.T) {
	e, _, _ := testEnv(t, 4, 32, func(c *Config) {
		c.TargetedShootdown = true
		c.Prof = prof.NewEngineAccounts(prof.New(), "bench")
	})
	moves := []Move{{VP: 0, To: mem.TierFast}, {VP: 1, To: mem.TierFast}}
	flip := func() {
		if moves[0].To == mem.TierFast {
			moves[0].To, moves[1].To = mem.TierSlow, mem.TierSlow
		} else {
			moves[0].To, moves[1].To = mem.TierFast, mem.TierFast
		}
	}
	for i := 0; i < 4; i++ {
		e.MigrateSync(moves)
		flip()
	}
	allocs := testing.AllocsPerRun(50, func() {
		e.MigrateSync(moves)
		flip()
	})
	if allocs != 0 {
		t.Fatalf("prof-enabled MigrateSync allocated %.0f objects/op, want 0", allocs)
	}
	if pages := e.cfg.Prof.Sync.Copy.Count(); pages == 0 {
		t.Fatal("profiler accounts unchanged; the instrumented path was not exercised")
	}
}

// TestObsEnabledNilSinkZeroAlloc pins the guard itself.
func TestObsEnabledNilSinkZeroAlloc(t *testing.T) {
	var sink obs.Sink
	if allocs := testing.AllocsPerRun(100, func() {
		if obs.Enabled(sink, obs.EvMigrateSync) {
			t.Fatal("nil sink reported enabled")
		}
	}); allocs != 0 {
		t.Fatalf("obs.Enabled(nil, ...) allocated %.0f objects/op, want 0", allocs)
	}
}

// TestAsyncEnqueueOneSteadyStateAllocs pins the per-access enqueue path
// used by policies: once the backlog's backing array has grown,
// EnqueueOne must not allocate Move batches.
func TestAsyncEnqueueOneSteadyStateAllocs(t *testing.T) {
	e, _, _ := testEnv(t, 4, 32, nil)
	a := NewAsyncMigrator(AsyncConfig{Engine: e, BatchPages: 8})
	// Warm up: grow pending/queued, then empty them.
	for vp := pagetable.VPage(0); vp < 16; vp++ {
		a.EnqueueOne(Move{VP: vp, To: mem.TierFast})
	}
	a.pending = a.pending[:0]
	a.queued.Clear()
	vp := pagetable.VPage(0)
	allocs := testing.AllocsPerRun(8, func() {
		a.EnqueueOne(Move{VP: vp, To: mem.TierFast})
		vp++
	})
	if allocs != 0 {
		t.Fatalf("steady-state EnqueueOne allocated %.2f objects/op, want 0", allocs)
	}
}
