package sim

import (
	"bytes"
	"testing"

	"vulcan/internal/checkpoint"
)

// roundTrip pushes src's snapshot through a full container write/read
// cycle and restores it into dst.
func roundTrip(t *testing.T, src, dst checkpoint.Snapshotter) {
	t.Helper()
	w := checkpoint.NewWriter()
	src.Snapshot(w.Section("x", 1))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cr, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := cr.Section("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClockSnapshotRoundTrip(t *testing.T) {
	var c Clock
	c.Advance(3*Second + 17*Microsecond)

	restored := &Clock{}
	roundTrip(t, &c, restored)
	if restored.Now() != c.Now() {
		t.Fatalf("restored clock at %v, want %v", restored.Now(), c.Now())
	}
	// Advancing both must stay in lockstep.
	c.Advance(Millisecond)
	restored.Advance(Millisecond)
	if restored.Now() != c.Now() {
		t.Fatal("clocks diverged after restore")
	}
}

func TestRNGSnapshotRoundTrip(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 1000; i++ {
		r.Uint64() // burn into mid-stream state
	}

	// Restore into a generator seeded differently on purpose: the
	// snapshot must fully overwrite the stream position.
	restored := NewRNG(7)
	roundTrip(t, r, restored)
	for i := 0; i < 1000; i++ {
		if a, b := r.Uint64(), restored.Uint64(); a != b {
			t.Fatalf("draw %d: %d != %d", i, a, b)
		}
	}
	// Derived draws ride on the same stream.
	for i := 0; i < 100; i++ {
		if a, b := r.Float64(), restored.Float64(); a != b {
			t.Fatalf("float draw %d: %v != %v", i, a, b)
		}
	}
}

func TestRNGRestoreTruncatedErrors(t *testing.T) {
	r := NewRNG(1)
	e := &checkpoint.Encoder{}
	r.Snapshot(e)
	blob := e.Bytes()
	for cut := 0; cut < len(blob); cut += 8 {
		d := checkpoint.NewDecoder(blob[:cut])
		if err := NewRNG(2).Restore(d); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestClockRestoreTruncatedErrors(t *testing.T) {
	d := checkpoint.NewDecoder(nil)
	var c Clock
	if err := c.Restore(d); err == nil {
		t.Fatal("empty clock payload accepted")
	}
}
