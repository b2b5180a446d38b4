package profile

import (
	"fmt"

	"vulcan/internal/checkpoint"
	"vulcan/internal/pagetable"
)

// SnapshotVersion is the wire version SnapshotProfiler writes (the
// "app.N.profiler" checkpoint section version). Version 2 encodes the
// dense stores, most notably run-length heat entries; it is the only
// layout RestoreProfiler reads.
const SnapshotVersion = 2

// SnapshotProfiler appends p's durable state, tagged with the profiler
// name so RestoreProfiler can verify the constructed profiler matches.
// The Faulty decorator gets its own tag ("faulty") ahead of the inner
// profiler's, because Faulty.Name() deliberately reports the inner name.
func SnapshotProfiler(e *checkpoint.Encoder, p Profiler) {
	if f, ok := p.(*Faulty); ok {
		e.String("faulty")
		f.snapshotSelf(e)
		SnapshotProfiler(e, f.inner)
		return
	}
	s, ok := p.(checkpoint.Snapshotter)
	if !ok {
		panic(fmt.Sprintf("profile: profiler %q is not snapshottable", p.Name()))
	}
	e.String(p.Name())
	s.Snapshot(e)
}

// RestoreProfiler reads state written by SnapshotProfiler (wire version
// SnapshotVersion) back into p, a freshly-constructed profiler. The
// fault decoration may differ between writer and reader (a clean
// warm-up resumed under fault injection, or vice versa): wrapper state
// that has no destination is discarded, and a fresh wrapper keeps its
// construction-time state (epoch 0, confidence 1).
func RestoreProfiler(d *checkpoint.Decoder, p Profiler) error {
	f, wrapped := p.(*Faulty)
	tag := d.String()
	if d.Err() == nil && tag == "faulty" {
		if wrapped {
			if err := f.restoreSelf(d); err != nil {
				return err
			}
		} else {
			discardFaultyState(d)
		}
		if tag = d.String(); tag == "faulty" {
			return fmt.Errorf("profile: nested fault wrapper in profiler snapshot")
		}
	}
	if d.Err() != nil {
		return d.Err()
	}
	if wrapped {
		p = f.inner
	}
	if tag != p.Name() {
		return fmt.Errorf("profile: checkpoint holds a %q profiler, restoring into %q",
			tag, p.Name())
	}
	s, ok := p.(checkpoint.Snapshotter)
	if !ok {
		return fmt.Errorf("profile: profiler %q is not snapshottable", p.Name())
	}
	return s.Restore(d)
}

// snapshotSelf appends the wrapper's own durable fields (the inner tag
// and state follow, written by SnapshotProfiler).
func (f *Faulty) snapshotSelf(e *checkpoint.Encoder) {
	e.U64(f.epoch)
	e.F64(f.confidence)
	e.Bool(f.overflowed)
	e.U64(f.dropped)
}

// restoreSelf restores the wrapper fields and re-opens the fault
// stream at the restored epoch: ProfileFaults derives every draw from
// pure hashes of (epoch, sample index), so BeginEpoch fully
// re-synchronizes it.
func (f *Faulty) restoreSelf(d *checkpoint.Decoder) error {
	f.epoch = d.U64()
	f.confidence = d.F64()
	f.overflowed = d.Bool()
	f.dropped = d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	f.faults.BeginEpoch(f.epoch)
	return nil
}

func discardFaultyState(d *checkpoint.Decoder) {
	_ = d.U64()
	_ = d.F64()
	_ = d.Bool()
	_ = d.U64()
}

// Snapshot appends the heat store's tracked pages as runs of
// consecutive page numbers: total entry count, run count, then per run
// the start page, length, and length×(heat, reads, writes). Dense
// working sets compress to a handful of run headers, and restore can
// validate monotonicity structurally.
func (h *heatStore) Snapshot(e *checkpoint.Encoder) {
	runs := 0
	prev := pagetable.VPage(0)
	first := true
	h.forEachLive(func(vp pagetable.VPage, _, _, _ float64) {
		if first || vp != prev+1 {
			runs++
		}
		first = false
		prev = vp
	})
	// trackedPages is exactly the live-entry count forEachLive visits.
	e.Int(h.trackedPages)
	e.Int(runs)

	// Second pass emits the runs; the store is immutable between the
	// passes, so the counts always agree. A run's length is known only at
	// its end, so each run's stats are buffered until the next boundary.
	started := false
	var runLen int
	var runStart pagetable.VPage
	prev = 0
	runStats := make([]float64, 0, 64)
	flush := func() {
		if !started {
			return
		}
		e.U64(uint64(runStart))
		e.Int(runLen)
		for _, v := range runStats {
			e.F64(v)
		}
	}
	h.forEachLive(func(vp pagetable.VPage, heat, reads, writes float64) {
		if !started || vp != prev+1 {
			flush()
			started = true
			runStart = vp
			runLen = 0
			runStats = runStats[:0]
		}
		runLen++
		runStats = append(runStats, heat, reads, writes)
		prev = vp
	})
	flush()
}

// forEachLive calls fn for every tracked page in ascending order.
func (h *heatStore) forEachLive(fn func(vp pagetable.VPage, heat, reads, writes float64)) {
	for hi, blk := range h.l1 {
		if blk == nil {
			continue
		}
		for ci, c := range blk {
			if c == nil || c.live == 0 {
				continue
			}
			base := chunkBase(hi, ci)
			for i := range c.heat {
				if c.heat[i] == 0 {
					continue
				}
				fn(base|pagetable.VPage(i), c.heat[i], c.reads[i], c.writes[i])
			}
		}
	}
}

// Restore reads the run-length heat layout back in place.
func (h *heatStore) Restore(d *checkpoint.Decoder) error {
	entries := d.Length(24)
	runs := d.Length(16)
	if d.Err() != nil {
		return d.Err()
	}
	h.l1 = nil
	h.trackedPages = 0
	total := 0
	prevEnd := pagetable.VPage(0)
	firstRun := true
	for r := 0; r < runs; r++ {
		start := pagetable.VPage(d.U64())
		n := d.Length(24)
		if d.Err() != nil {
			return d.Err()
		}
		if n == 0 {
			return fmt.Errorf("profile: empty heat run at page %d", start)
		}
		// Runs are maximal: the encoder merges abutting pages, so a run
		// must start past a gap after the previous one.
		if !firstRun && start <= prevEnd+1 {
			return fmt.Errorf("profile: heat run at page %d overlaps or abuts previous run", start)
		}
		if start > pagetable.MaxVPage || pagetable.VPage(uint64(start)+uint64(n)-1) > pagetable.MaxVPage {
			return fmt.Errorf("profile: heat run at page %d out of range", start)
		}
		firstRun = false
		for i := 0; i < n; i++ {
			vp := start + pagetable.VPage(i)
			heat := d.F64()
			reads := d.F64()
			writes := d.F64()
			if d.Err() != nil {
				return d.Err()
			}
			if heat == 0 {
				return fmt.Errorf("profile: zero-heat entry for page %d", vp)
			}
			if !h.setRaw(vp, heat, reads, writes) {
				return fmt.Errorf("profile: duplicate heat entry for page %d", vp)
			}
		}
		prevEnd = start + pagetable.VPage(n) - 1
		total += n
	}
	if total != entries {
		return fmt.Errorf("profile: heat runs hold %d entries, header says %d", total, entries)
	}
	return nil
}

// Snapshot implements checkpoint.Snapshotter.
func (p *PEBS) Snapshot(e *checkpoint.Encoder) {
	p.rng.Snapshot(e)
	e.U64(p.samples)
	p.heat.Snapshot(e)
}

// Restore implements checkpoint.Snapshotter.
func (p *PEBS) Restore(d *checkpoint.Decoder) error {
	if err := p.rng.Restore(d); err != nil {
		return err
	}
	p.samples = d.U64()
	return p.heat.Restore(d)
}

// Snapshot implements checkpoint.Snapshotter.
func (h *Hybrid) Snapshot(e *checkpoint.Encoder) {
	h.rng.Snapshot(e)
	e.U64(h.samples)
	h.heat.Snapshot(e)
}

// Restore implements checkpoint.Snapshotter.
func (h *Hybrid) Restore(d *checkpoint.Decoder) error {
	if err := h.rng.Restore(d); err != nil {
		return err
	}
	h.samples = d.U64()
	return h.heat.Restore(d)
}

// Snapshot implements checkpoint.Snapshotter: the heat runs, then the
// poison list (count, ascending pages), the sweep cursor and the
// epoch's fault tally.
func (h *HintFault) Snapshot(e *checkpoint.Encoder) {
	h.heat.Snapshot(e)
	e.Int(h.poisoned.count)
	h.poisoned.forEach(func(vp pagetable.VPage) {
		e.U64(uint64(vp))
	})
	e.U64(uint64(h.cursor))
	e.Int(h.faultsThisEpoch)
}

// Restore implements checkpoint.Snapshotter.
func (h *HintFault) Restore(d *checkpoint.Decoder) error {
	if err := h.heat.Restore(d); err != nil {
		return err
	}
	n := d.Length(8)
	if d.Err() != nil {
		return d.Err()
	}
	h.poisoned = pageBitmap{}
	prev := pagetable.VPage(0)
	for i := 0; i < n; i++ {
		vp := pagetable.VPage(d.U64())
		if d.Err() != nil {
			return d.Err()
		}
		if vp > pagetable.MaxVPage {
			return fmt.Errorf("profile: poisoned page %d out of range", vp)
		}
		// The encoder lists pages strictly ascending.
		if i > 0 && vp <= prev {
			return fmt.Errorf("profile: poisoned page %d out of order", vp)
		}
		h.poisoned.set(vp)
		prev = vp
	}
	h.cursor = pagetable.VPage(d.U64())
	h.faultsThisEpoch = d.Int()
	return d.Err()
}
