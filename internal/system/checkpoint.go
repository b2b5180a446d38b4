package system

import (
	"fmt"
	"io"

	"vulcan/internal/checkpoint"
	"vulcan/internal/mem"
	"vulcan/internal/migrate"
	"vulcan/internal/pagetable"
	"vulcan/internal/profile"
)

// Section versions. Bump a section's version when its wire layout
// changes; Resume then rejects checkpoints written under the old layout
// instead of misreading them.
const (
	metaVersion    = 1
	clockVersion   = 1
	machineVersion = 1
	memVersion     = 1
	// systemVersion 2 appends the stop log (dynamic-eviction chronology);
	// appVersion 2 adds the stopped flag and a retired app's durable
	// summary statistics.
	systemVersion  = 2
	metricsVersion = 1
	// appVersion 3 appends the async-migrator backpressure tallies and the
	// dynamic intensity override.
	appVersion = 3
	// profilerVersion tracks the profile package's snapshot layout.
	profilerVersion = profile.SnapshotVersion
	policyVersion   = 1
	faultVersion    = 1
	// obsVersion 2 appends the recorder's flush-boundary marks.
	obsVersion = 2
)

// Checkpoint serializes the full simulation state to w as one versioned
// checkpoint blob. It must be called at an epoch boundary (between
// RunEpoch calls): mid-epoch scratch state is deliberately not part of
// the format.
//
// The blob composes one section per stateful layer. Scratch state —
// per-epoch accumulators, staged migration batches, policy queue
// contents — is reconstructed, not serialized; the durable remainder is
// enough that Resume followed by the remaining epochs produces output
// byte-identical to an uninterrupted run.
func (s *System) Checkpoint(w io.Writer) error {
	cw := checkpoint.NewWriter()

	meta := cw.Section("meta", metaVersion)
	meta.String(s.policy.Name())
	meta.U64(s.cfg.Seed)
	meta.Int(len(s.apps))
	meta.Int(s.epoch)

	s.m.Clock.Snapshot(cw.Section("clock", clockVersion))
	s.m.RNG.Snapshot(cw.Section("machine", machineVersion))

	sys := cw.Section("system", systemVersion)
	s.rng.Snapshot(sys)
	sys.Int(s.epoch)
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		sys.F64(s.bwUtil[t])
		sys.F64(s.latSpike[t])
		sys.F64(s.bwFault[t])
	}
	sys.Int(len(s.admitOrder))
	for _, idx := range s.admitOrder {
		sys.Int(idx)
	}
	sys.Int(len(s.pressure))
	for _, f := range s.pressure {
		sys.U8(uint8(f.Tier))
		sys.U32(f.Index)
	}
	s.cfi.Snapshot(sys)
	sys.Int(len(s.stopLog))
	for _, ev := range s.stopLog {
		sys.Int(ev.idx)
		sys.Int(ev.afterAdmits)
	}

	s.tiers.Snapshot(cw.Section("mem", memVersion))
	s.recorder.Snapshot(cw.Section("metrics", metricsVersion))

	for i, a := range s.apps {
		a.snapshot(cw.Section(fmt.Sprintf("app.%d", i), appVersion))
		if a.started {
			profile.SnapshotProfiler(
				cw.Section(fmt.Sprintf("app.%d.profiler", i), profilerVersion), a.Profiler)
		}
	}

	if ps, ok := s.policy.(checkpoint.Snapshotter); ok {
		ps.Snapshot(cw.Section("policy", policyVersion))
	}
	if s.inj != nil {
		s.inj.Snapshot(cw.Section("fault", faultVersion))
	}
	if rec, ok := s.obs.(checkpoint.Snapshotter); ok {
		rec.Snapshot(cw.Section("obs", obsVersion))
	}

	_, err := cw.WriteTo(w)
	return err
}

// Resume rebuilds a system from a checkpoint written by Checkpoint.
// cfg must describe the same experiment (seed, machine shape, app
// list); the policy may differ — that is the branch-from-snapshot path.
// When it does, the checkpointed policy and profiler state is skipped
// and the new policy starts cold, so every branch forks from identical
// substrate state and none inherits another policy's learned placement
// hints.
//
// The restored system continues exactly where the checkpointed one
// stopped: with the same cfg (policy included), running it to the
// original end time produces report, trace and metrics output
// byte-identical to the uninterrupted run.
func Resume(r io.Reader, cfg Config) (*System, error) {
	cr, err := checkpoint.NewReader(r)
	if err != nil {
		return nil, err
	}

	meta, err := cr.Section("meta", metaVersion)
	if err != nil {
		return nil, err
	}
	ckptPolicy := meta.String()
	seed := meta.U64()
	nApps := meta.Int()
	meta.Int() // completed epochs; informational, restored from "system"
	if err := meta.Close(); err != nil {
		return nil, err
	}

	s := New(cfg)
	if s.cfg.Seed != seed {
		return nil, fmt.Errorf("system: checkpoint seed %d, config seed %d", seed, s.cfg.Seed)
	}
	if nApps != len(s.apps) {
		return nil, fmt.Errorf("system: checkpoint has %d apps, config has %d", nApps, len(s.apps))
	}
	samePolicy := s.policy.Name() == ckptPolicy

	// System scalars and the admission order, needed before any app can
	// be admitted.
	sys, err := cr.Section("system", systemVersion)
	if err != nil {
		return nil, err
	}
	if err := s.rng.Restore(sys); err != nil {
		return nil, err
	}
	s.epoch = sys.Int()
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		s.bwUtil[t] = sys.F64()
		s.latSpike[t] = sys.F64()
		s.bwFault[t] = sys.F64()
	}
	nAdmit := sys.Length(8)
	if sys.Err() != nil {
		return nil, sys.Err()
	}
	if s.epoch < 0 {
		return nil, fmt.Errorf("system: negative epoch %d in checkpoint", s.epoch)
	}
	admitted := make(map[int]bool, nAdmit)
	for i := 0; i < nAdmit; i++ {
		idx := sys.Int()
		if sys.Err() != nil {
			return nil, sys.Err()
		}
		if idx < 0 || idx >= len(s.apps) || admitted[idx] {
			return nil, fmt.Errorf("system: bad admission entry %d in checkpoint", idx)
		}
		admitted[idx] = true
		s.admitOrder = append(s.admitOrder, idx)
	}
	nPressure := sys.Length(5)
	if sys.Err() != nil {
		return nil, sys.Err()
	}
	for i := 0; i < nPressure; i++ {
		f := mem.Frame{Tier: mem.TierID(sys.U8()), Index: sys.U32()}
		if sys.Err() != nil {
			return nil, sys.Err()
		}
		if f.IsNil() {
			return nil, fmt.Errorf("system: pressure frame on invalid tier in checkpoint")
		}
		s.pressure = append(s.pressure, f)
	}
	if err := s.cfi.Restore(sys); err != nil {
		return nil, err
	}
	nStops := sys.Length(16)
	if sys.Err() != nil {
		return nil, sys.Err()
	}
	stoppedSet := make(map[int]bool, nStops)
	lastAfter := 0
	for i := 0; i < nStops; i++ {
		ev := stopEvent{idx: sys.Int(), afterAdmits: sys.Int()}
		if sys.Err() != nil {
			return nil, sys.Err()
		}
		if ev.idx < 0 || ev.idx >= len(s.apps) || !admitted[ev.idx] || stoppedSet[ev.idx] {
			return nil, fmt.Errorf("system: bad stop entry %d in checkpoint", ev.idx)
		}
		if ev.afterAdmits < 1 || ev.afterAdmits > nAdmit || ev.afterAdmits < lastAfter {
			return nil, fmt.Errorf("system: stop entry %d out of chronology in checkpoint", ev.idx)
		}
		lastAfter = ev.afterAdmits
		stoppedSet[ev.idx] = true
		s.stopLog = append(s.stopLog, ev)
	}
	if err := sys.Close(); err != nil {
		return nil, err
	}

	// Replay admissions in the recorded order, so policies register
	// workloads in the same sequence as the checkpointed run, with stops
	// interleaved at their recorded chronology — a stop that freed
	// capacity for a later admission must free it during replay too, or
	// the replayed premaps would exceed physical memory. Placement and
	// RNG side effects of the replay are overwritten by the overlays
	// below.
	si := 0
	for n, idx := range s.admitOrder {
		a := s.apps[idx]
		a.admit(s, s.placer)
		s.policy.AppStarted(s, a)
		for si < len(s.stopLog) && s.stopLog[si].afterAdmits <= n+1 {
			victim := s.apps[s.stopLog[si].idx]
			if !victim.started {
				return nil, fmt.Errorf("system: checkpoint stops app %q before its admission", victim.Cfg.Name)
			}
			s.retire(victim)
			si++
		}
	}

	// Substrate overlays. Tiers go wholesale after admissions so the
	// free-list order — part of the determinism contract — is exact.
	clk, err := cr.Section("clock", clockVersion)
	if err != nil {
		return nil, err
	}
	if err := s.m.Clock.Restore(clk); err != nil {
		return nil, err
	}
	if err := clk.Close(); err != nil {
		return nil, err
	}
	mrng, err := cr.Section("machine", machineVersion)
	if err != nil {
		return nil, err
	}
	if err := s.m.RNG.Restore(mrng); err != nil {
		return nil, err
	}
	if err := mrng.Close(); err != nil {
		return nil, err
	}
	tiers, err := cr.Section("mem", memVersion)
	if err != nil {
		return nil, err
	}
	if err := s.tiers.Restore(tiers); err != nil {
		return nil, err
	}
	if err := tiers.Close(); err != nil {
		return nil, err
	}

	// Per-app overlays; profiler state only when the policy (and hence
	// the profiler construction) matches the checkpointed run.
	for i, a := range s.apps {
		d, err := cr.Section(fmt.Sprintf("app.%d", i), appVersion)
		if err != nil {
			return nil, err
		}
		if err := a.restore(d); err != nil {
			return nil, err
		}
		if err := d.Close(); err != nil {
			return nil, err
		}
		if a.started && samePolicy {
			pd, err := cr.Section(fmt.Sprintf("app.%d.profiler", i), profilerVersion)
			if err != nil {
				return nil, err
			}
			if err := profile.RestoreProfiler(pd, a.Profiler); err != nil {
				return nil, err
			}
			if err := pd.Close(); err != nil {
				return nil, err
			}
		}
	}

	if samePolicy && cr.Has("policy") {
		ps, ok := s.policy.(checkpoint.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("system: checkpoint carries %q policy state, policy cannot restore it", ckptPolicy)
		}
		pd, err := cr.Section("policy", policyVersion)
		if err != nil {
			return nil, err
		}
		if err := ps.Restore(pd); err != nil {
			return nil, err
		}
		if err := pd.Close(); err != nil {
			return nil, err
		}
	}

	if s.inj != nil && cr.Has("fault") {
		fd, err := cr.Section("fault", faultVersion)
		if err != nil {
			return nil, err
		}
		if err := s.inj.Restore(fd); err != nil {
			return nil, err
		}
		if err := fd.Close(); err != nil {
			return nil, err
		}
	}

	// Telemetry goes last: nothing emitted while rebuilding may survive
	// into the restored buffers.
	md, err := cr.Section("metrics", metricsVersion)
	if err != nil {
		return nil, err
	}
	if err := s.recorder.Restore(md); err != nil {
		return nil, err
	}
	if err := md.Close(); err != nil {
		return nil, err
	}
	if cr.Has("obs") {
		if rec, ok := s.obs.(checkpoint.Snapshotter); ok {
			od, err := cr.Section("obs", obsVersion)
			if err != nil {
				return nil, err
			}
			if err := rec.Restore(od); err != nil {
				return nil, err
			}
			if err := od.Close(); err != nil {
				return nil, err
			}
		}
	}

	return s, nil
}

// snapshot appends the app's durable state. Per-epoch accumulators are
// scratch (reset at each epoch start) and are not serialized; the
// carried-over quantities — pending stall, sample weight, smoothed
// FTHR, cumulative series — are.
func (a *App) snapshot(e *checkpoint.Encoder) {
	e.String(a.Cfg.Name)
	e.Bool(a.started)
	e.Bool(a.stopped)
	if a.stopped {
		// A retired app keeps only its reporting summary: the runtime
		// state (table, engine, profiler) was torn down by StopApp and
		// the replay reconstructs and re-tears it deterministically.
		a.fthr.Snapshot(e)
		a.perfSeries.Snapshot(e)
		e.F64(a.sampleWeight)
		e.F64(a.epochOps)
		e.F64(a.epochPerf)
		e.F64(a.totalOps)
		return
	}
	if !a.started {
		return
	}
	a.rng.Snapshot(e)
	a.Table.Snapshot(e)
	e.Int(len(a.TLBs))
	for _, t := range a.TLBs {
		t.Snapshot(e)
	}
	e.Int(len(a.Threads))
	for _, th := range a.Threads {
		th.Snapshot(e)
	}
	a.Engine.Snapshot(e)
	a.Async.Snapshot(e)
	e.Bool(a.Retry != nil)
	if a.Retry != nil {
		a.Retry.Snapshot(e)
	}
	e.Bool(a.huge != nil)
	if a.huge != nil {
		a.huge.Snapshot(e)
	}
	a.fthr.Snapshot(e)
	a.perfSeries.Snapshot(e)
	e.F64(a.sampleWeight)
	e.F64(a.pendingStall)
	e.F64(a.epochOps)
	e.F64(a.epochPerf)
	e.F64(a.totalOps)
	e.Int(a.fastPages)
	e.Int(a.rssMapped)
	e.Bool(a.profileDegraded)
	e.Int(a.intensityMilli)
}

// restore overlays the checkpointed state onto the (already admitted,
// when started) app. Fault decoration may differ between the
// checkpointed run and this one — a clean warm-up branching into a
// faulted run, or the reverse — so retry state with no destination is
// discarded and a fresh retrier keeps its empty construction state;
// likewise for the THP overlay.
func (a *App) restore(d *checkpoint.Decoder) error {
	name := d.String()
	ckptStarted := d.Bool()
	ckptStopped := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if name != a.Cfg.Name {
		return fmt.Errorf("system: checkpoint app %q, config app %q", name, a.Cfg.Name)
	}
	if ckptStarted != a.started || ckptStopped != a.stopped {
		return fmt.Errorf("system: app %q admission state disagrees with checkpoint manifest", name)
	}
	if ckptStopped {
		if a.fthr == nil {
			// Defensive: the stop replay built these during admit.
			return fmt.Errorf("system: app %q stopped in checkpoint but never admitted here", name)
		}
		if err := a.fthr.Restore(d); err != nil {
			return err
		}
		if err := a.perfSeries.Restore(d); err != nil {
			return err
		}
		a.sampleWeight = d.F64()
		a.epochOps = d.F64()
		a.epochPerf = d.F64()
		a.totalOps = d.F64()
		return d.Err()
	}
	if !ckptStarted {
		return nil
	}
	if err := a.rng.Restore(d); err != nil {
		return err
	}
	if err := a.Table.Restore(d); err != nil {
		return err
	}
	n := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(a.TLBs) {
		return fmt.Errorf("system: app %q has %d TLBs in checkpoint, %d configured", name, n, len(a.TLBs))
	}
	for _, t := range a.TLBs {
		if err := t.Restore(d); err != nil {
			return err
		}
	}
	n = d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(a.Threads) {
		return fmt.Errorf("system: app %q has %d threads in checkpoint, %d configured", name, n, len(a.Threads))
	}
	for _, th := range a.Threads {
		if err := th.Restore(d); err != nil {
			return err
		}
	}
	if err := a.Engine.Restore(d); err != nil {
		return err
	}
	if err := a.Async.Restore(d); err != nil {
		return err
	}
	hasRetry := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if hasRetry {
		target := a.Retry
		if target == nil {
			target = &migrate.Retrier{}
		}
		if err := target.Restore(d); err != nil {
			return err
		}
	}
	hasHuge := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if hasHuge {
		target := a.huge
		if target == nil {
			target = &HugeSet{}
		}
		if err := target.Restore(d); err != nil {
			return err
		}
	}
	if err := a.fthr.Restore(d); err != nil {
		return err
	}
	if err := a.perfSeries.Restore(d); err != nil {
		return err
	}
	a.sampleWeight = d.F64()
	a.pendingStall = d.F64()
	a.epochOps = d.F64()
	a.epochPerf = d.F64()
	a.totalOps = d.F64()
	a.fastPages = d.Int()
	a.rssMapped = d.Int()
	a.profileDegraded = d.Bool()
	a.intensityMilli = d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if a.pendingStall < 0 || a.fastPages < 0 || a.rssMapped < 0 {
		return fmt.Errorf("system: app %q has negative accounting in checkpoint", name)
	}
	if a.intensityMilli < 0 || a.intensityMilli > 1_000_000 {
		return fmt.Errorf("system: app %q intensity %d out of range in checkpoint", name, a.intensityMilli)
	}
	return nil
}

// Snapshot appends the THP overlay: the intact huge groups in ascending
// order plus the lifetime split count. The bitmap iterates ascending by
// construction, so the wire bytes match the previous sorted encoding.
func (h *HugeSet) Snapshot(e *checkpoint.Encoder) {
	e.Int(h.count)
	h.forEachGroup(func(g uint64) { e.U64(g) })
	e.U64(h.splits)
}

// Restore reads the overlay back in place.
func (h *HugeSet) Restore(d *checkpoint.Decoder) error {
	n := d.Length(8)
	if d.Err() != nil {
		return d.Err()
	}
	h.words = nil
	h.count = 0
	for i := 0; i < n; i++ {
		g := d.U64()
		if d.Err() != nil {
			return d.Err()
		}
		if g > uint64(pagetable.MaxVPage)>>9 {
			return fmt.Errorf("system: huge group %d out of range in checkpoint", g)
		}
		if !h.setGroup(g) {
			return fmt.Errorf("system: duplicate huge group %d in checkpoint", g)
		}
	}
	h.splits = d.U64()
	return d.Err()
}
