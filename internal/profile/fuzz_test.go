package profile

import (
	"bytes"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/pagetable"
)

// fuzzKinds are the profilers the compared policies build; each is
// restored into bare and fault-wrapped.
var fuzzKinds = []string{"pebs", "hybrid", "hintfault"}

// fuzzTarget builds the restore target sel names, kind sel/2 wrapped in
// Faulty when sel is odd, and the table it profiles.
func fuzzTarget(sel uint8) (Profiler, *pagetable.Replicated) {
	p, tbl := newKind(fuzzKinds[int(sel/2)%len(fuzzKinds)])
	if sel%2 == 1 {
		p = NewFaulty(p, &scriptedFaults{dropEvery: 3})
	}
	return p, tbl
}

// faultyHeader is the encoded size of the "faulty" tag plus the
// wrapper's own fields (epoch, confidence, overflow flag, drop count).
const faultyHeader = 8 + len("faulty") + 8 + 8 + 1 + 8

// innerSnapshot strips a leading fault-wrapper header from blob.
func innerSnapshot(blob []byte) []byte {
	d := checkpoint.NewDecoder(blob)
	if d.String() == "faulty" && len(blob) >= faultyHeader {
		return blob[faultyHeader:]
	}
	return blob
}

// FuzzRestoreProfiler feeds arbitrary bytes to RestoreProfiler. It must
// never panic, and whatever it accepts (with no bytes left over) must
// re-snapshot to exactly the input: the decoder admits only the
// encoder's canonical output. When the target's fault decoration
// differs from the input's, the wrapper state legitimately does not
// carry over, so only the inner profiler's bytes are compared.
//
// The seeds are the snapshot_test.go truncation ladder over a mid-run
// snapshot of every target, plus each full snapshot restored across
// decorations.
func FuzzRestoreProfiler(f *testing.F) {
	for sel := uint8(0); sel < uint8(2*len(fuzzKinds)); sel++ {
		p, tbl := fuzzTarget(sel)
		for r := 0; r < 3; r++ {
			feedMix(p, tbl, r)
		}
		e := &checkpoint.Encoder{}
		SnapshotProfiler(e, p)
		blob := e.Bytes()
		for cut := 0; cut < len(blob); cut += 97 {
			f.Add(sel, blob[:cut])
		}
		f.Add(sel, blob)
		f.Add(sel^1, blob)
	}
	f.Fuzz(func(t *testing.T, sel uint8, blob []byte) {
		p, _ := fuzzTarget(sel)
		d := checkpoint.NewDecoder(blob)
		if err := RestoreProfiler(d, p); err != nil || d.Close() != nil {
			return
		}
		e := &checkpoint.Encoder{}
		SnapshotProfiler(e, p)
		got, want := e.Bytes(), blob
		if _, wrapped := p.(*Faulty); wrapped != (len(innerSnapshot(blob)) != len(blob)) {
			got, want = innerSnapshot(got), innerSnapshot(want)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("accepted %d bytes re-snapshot to %d different bytes", len(want), len(got))
		}
	})
}
