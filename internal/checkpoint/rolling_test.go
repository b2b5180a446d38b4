package checkpoint

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestRollingPath pins the stamp format.
func TestRollingPath(t *testing.T) {
	for _, tc := range []struct {
		base  string
		epoch int
		want  string
	}{
		{"out/run.ckpt", 30, "out/run.t030.ckpt"},
		{"out/run.ckpt", 5, "out/run.t005.ckpt"},
		{"out/run.ckpt", 1234, "out/run.t1234.ckpt"},
		{"noext", 7, "noext.t007"},
	} {
		if got := RollingPath(tc.base, tc.epoch); got != tc.want {
			t.Errorf("RollingPath(%q, %d) = %q, want %q", tc.base, tc.epoch, got, tc.want)
		}
	}
}

func writeRollingImage(t *testing.T, base string, epoch int) string {
	t.Helper()
	w := NewWriter()
	w.Section("test", 1).Int(epoch)
	path, err := WriteRolling(w, base, epoch)
	if err != nil {
		t.Fatalf("WriteRolling(%d): %v", epoch, err)
	}
	return path
}

// TestRollingRetention exercises write → prune → latest over a family.
func TestRollingRetention(t *testing.T) {
	base := filepath.Join(t.TempDir(), "run.ckpt")

	if _, _, ok, err := LatestRolling(base); err != nil || ok {
		t.Fatalf("empty family: ok=%t err=%v, want none", ok, err)
	}

	for _, e := range []int{10, 20, 30, 40} {
		writeRollingImage(t, base, e)
	}
	// A stray .tmp from a torn write must not count as a member.
	if err := os.WriteFile(RollingPath(base, 50)+".tmp", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	path, epoch, ok, err := LatestRolling(base)
	if err != nil || !ok || epoch != 40 || path != RollingPath(base, 40) {
		t.Fatalf("LatestRolling = (%q, %d, %t, %v), want epoch 40", path, epoch, ok, err)
	}

	deleted, err := PruneRolling(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 2 || deleted[0] != RollingPath(base, 10) || deleted[1] != RollingPath(base, 20) {
		t.Fatalf("pruned %v, want the two oldest", deleted)
	}
	for _, e := range []int{30, 40} {
		if _, err := os.Stat(RollingPath(base, e)); err != nil {
			t.Fatalf("epoch %d image pruned away: %v", e, err)
		}
	}

	// Keep <= 0 keeps everything; pruning an already-small family is a
	// no-op.
	if deleted, err := PruneRolling(base, 0); err != nil || deleted != nil {
		t.Fatalf("PruneRolling(0) = (%v, %v), want no-op", deleted, err)
	}
	if deleted, err := PruneRolling(base, 5); err != nil || deleted != nil {
		t.Fatalf("PruneRolling(5) = (%v, %v), want no-op", deleted, err)
	}

	// The retained newest image still opens and carries its payload.
	f, err := os.Open(RollingPath(base, 40))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("test", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Int(); got != 40 {
		t.Fatalf("payload %d, want 40", got)
	}
}

// TestRollingFamilyIsolation: families of different bases in one
// directory do not see each other.
func TestRollingFamilyIsolation(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.ckpt")
	b := filepath.Join(dir, "b.ckpt")
	writeRollingImage(t, a, 3)
	writeRollingImage(t, b, 9)

	if _, epoch, ok, _ := LatestRolling(a); !ok || epoch != 3 {
		t.Fatalf("family a latest = (%d, %t), want epoch 3", epoch, ok)
	}
	if deleted, err := PruneRolling(a, 1); err != nil || deleted != nil {
		t.Fatalf("pruning a touched %v (%v)", deleted, err)
	}
	if _, _, ok, _ := LatestRolling(b); !ok {
		t.Fatal("family b lost its image")
	}
}

// TestWriteFileFailureKeepsPrevious: a write that fails part-way leaves
// the previous file byte-for-byte intact and no ".tmp" sibling behind.
func TestWriteFileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("complete image"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("torn")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "complete image" {
		t.Fatalf("previous file = %q, %v; want it intact", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only run.ckpt: %v", len(entries), entries)
	}
}
