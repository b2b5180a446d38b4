package workload

import (
	"fmt"

	"vulcan/internal/checkpoint"
)

// SnapshotGenerator appends g's durable state, tagged with its name so
// Restore can verify it is deserializing into the same generator type.
// Generators that do not implement the checkpoint contract are a
// writer-side bug (every generator in the repository implements it), so
// this panics rather than silently writing an unrestorable blob.
func SnapshotGenerator(e *checkpoint.Encoder, g Generator) {
	s, ok := g.(checkpoint.Snapshotter)
	if !ok {
		panic(fmt.Sprintf("workload: generator %q is not snapshottable", g.Name()))
	}
	e.String(g.Name())
	e.Int(g.Pages())
	s.Snapshot(e)
}

// RestoreGenerator reads state written by SnapshotGenerator back into g,
// which must be a freshly-constructed generator of the same type over
// the same region.
func RestoreGenerator(d *checkpoint.Decoder, g Generator) error {
	tag := d.String()
	pages := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if tag != g.Name() {
		return fmt.Errorf("workload: checkpoint holds a %q generator, restoring into %q",
			tag, g.Name())
	}
	if pages != g.Pages() {
		return fmt.Errorf("workload: generator %q over %d pages in checkpoint, %d configured",
			tag, pages, g.Pages())
	}
	s, ok := g.(checkpoint.Snapshotter)
	if !ok {
		return fmt.Errorf("workload: generator %q is not snapshottable", g.Name())
	}
	return s.Restore(d)
}

// Snapshot appends the thread's durable state: its RNG and both
// generator streams. The Zipf samplers inside generators alias the
// generator's own RNG, so restoring that RNG in place restores them too.
func (t *Thread) Snapshot(e *checkpoint.Encoder) {
	t.rng.Snapshot(e)
	SnapshotGenerator(e, t.shared)
	e.Bool(t.private != nil)
	if t.private != nil {
		SnapshotGenerator(e, t.private)
	}
}

// Restore reads the thread state back in place.
func (t *Thread) Restore(d *checkpoint.Decoder) error {
	if err := t.rng.Restore(d); err != nil {
		return err
	}
	if err := RestoreGenerator(d, t.shared); err != nil {
		return err
	}
	hasPrivate := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if hasPrivate != (t.private != nil) {
		return fmt.Errorf("workload: thread %d private-generator presence mismatch", t.ID)
	}
	if t.private != nil {
		return RestoreGenerator(d, t.private)
	}
	return nil
}

// Snapshot implements checkpoint.Snapshotter.
func (u *Uniform) Snapshot(e *checkpoint.Encoder) { u.rng.Snapshot(e) }

// Restore implements checkpoint.Snapshotter.
func (u *Uniform) Restore(d *checkpoint.Decoder) error { return u.rng.Restore(d) }

// Snapshot implements checkpoint.Snapshotter. The Zipf sampler draws
// from the same RNG, so no further state is needed.
func (z *Zipfian) Snapshot(e *checkpoint.Encoder) { z.rng.Snapshot(e) }

// Restore implements checkpoint.Snapshotter.
func (z *Zipfian) Restore(d *checkpoint.Decoder) error { return z.rng.Restore(d) }

// Snapshot implements checkpoint.Snapshotter.
func (s *Scan) Snapshot(e *checkpoint.Encoder) {
	e.Int(s.cursor)
	s.rng.Snapshot(e)
}

// Restore implements checkpoint.Snapshotter.
func (s *Scan) Restore(d *checkpoint.Decoder) error {
	cursor := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if cursor < 0 || cursor >= s.pages {
		return fmt.Errorf("workload: scan cursor %d outside [0,%d)", cursor, s.pages)
	}
	s.cursor = cursor
	return s.rng.Restore(d)
}

// Snapshot implements checkpoint.Snapshotter.
func (k *KeyValue) Snapshot(e *checkpoint.Encoder) { k.rng.Snapshot(e) }

// Restore implements checkpoint.Snapshotter.
func (k *KeyValue) Restore(d *checkpoint.Decoder) error { return k.rng.Restore(d) }

// Snapshot implements checkpoint.Snapshotter.
func (g *GraphWalk) Snapshot(e *checkpoint.Encoder) {
	e.Int(g.edgeCursor)
	g.rng.Snapshot(e)
}

// Restore implements checkpoint.Snapshotter.
func (g *GraphWalk) Restore(d *checkpoint.Decoder) error {
	cursor := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if cursor < 0 || g.vertexPages+cursor >= g.pages {
		return fmt.Errorf("workload: graphwalk edge cursor %d out of range", cursor)
	}
	g.edgeCursor = cursor
	return g.rng.Restore(d)
}

// Snapshot implements checkpoint.Snapshotter.
func (m *MLTrain) Snapshot(e *checkpoint.Encoder) {
	e.Int(m.dataCursor)
	m.rng.Snapshot(e)
}

// Restore implements checkpoint.Snapshotter.
func (m *MLTrain) Restore(d *checkpoint.Decoder) error {
	cursor := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if cursor < 0 || m.weightPages+m.activePages+cursor >= m.pages {
		return fmt.Errorf("workload: mltrain data cursor %d out of range", cursor)
	}
	m.dataCursor = cursor
	return m.rng.Restore(d)
}

// Snapshot implements checkpoint.Snapshotter.
func (n *NomadMicro) Snapshot(e *checkpoint.Encoder) { n.rng.Snapshot(e) }

// Restore implements checkpoint.Snapshotter.
func (n *NomadMicro) Restore(d *checkpoint.Decoder) error { return n.rng.Restore(d) }

// Snapshot implements checkpoint.Snapshotter.
func (w *WebServer) Snapshot(e *checkpoint.Encoder) { w.rng.Snapshot(e) }

// Restore implements checkpoint.Snapshotter.
func (w *WebServer) Restore(d *checkpoint.Decoder) error { return w.rng.Restore(d) }
