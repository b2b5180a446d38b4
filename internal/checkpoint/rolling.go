package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Rolling checkpoint files: a long-lived run periodically writes interim
// checkpoints next to its final artifact path, each stamped with the
// epoch it captures, and retains only the most recent K. The stamp sits
// before the extension — base "run.ckpt" at epoch 30 becomes
// "run.t030.ckpt" — so a glob over the directory finds the family and
// the lexicographic order of equal-width stamps is the epoch order.
//
// Writes are atomic: the image lands in a ".tmp" sibling first and is
// renamed into place, so a crash mid-write leaves either the previous
// complete file or a stray .tmp (ignored by discovery), never a torn
// checkpoint.

// rollingWidth is the zero-padded stamp width. Three digits keep stamps
// lexicographically ordered through epoch 999; longer runs widen
// naturally (width grows, and numeric parsing — not string order — is
// what LatestRolling compares).
const rollingWidth = 3

// RollingPath returns the stamped path for an interim checkpoint of the
// given epoch: the stamp ".tNNN" is inserted before base's extension
// ("out/run.ckpt", 30 → "out/run.t030.ckpt"). A base without an
// extension gets the stamp appended.
func RollingPath(base string, epoch int) string {
	ext := filepath.Ext(base)
	stem := strings.TrimSuffix(base, ext)
	return fmt.Sprintf("%s.t%0*d%s", stem, rollingWidth, epoch, ext)
}

// rollingEpoch parses the epoch out of a stamped path produced by
// RollingPath for the same base. Returns false for paths that do not
// belong to the family (including the unstamped base itself).
func rollingEpoch(base, path string) (int, bool) {
	ext := filepath.Ext(base)
	stem := strings.TrimSuffix(base, ext)
	if !strings.HasPrefix(path, stem+".t") || !strings.HasSuffix(path, ext) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(path, stem+".t"), ext)
	if len(digits) < rollingWidth {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// WriteRolling atomically writes w's image to RollingPath(base, epoch)
// with WriteFile. Returns the final path.
func WriteRolling(w *Writer, base string, epoch int) (string, error) {
	path := RollingPath(base, epoch)
	return path, WriteFile(path, func(f io.Writer) error {
		_, err := w.WriteTo(f)
		return err
	})
}

// WriteFile atomically replaces path with what write produces: the
// bytes land in a ".tmp" sibling which is fsynced, closed and renamed
// into place. On any error the temporary file is removed and a previous
// file at path is left untouched, so a crash or a failed write never
// leaves a torn checkpoint.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// rollingFamily lists the stamped siblings of base in ascending epoch
// order.
func rollingFamily(base string) ([]string, []int, error) {
	dir := filepath.Dir(base)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type member struct {
		path  string
		epoch int
	}
	var fam []member
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		p := filepath.Join(dir, ent.Name())
		if n, ok := rollingEpoch(base, p); ok {
			fam = append(fam, member{path: p, epoch: n})
		}
	}
	sort.Slice(fam, func(i, j int) bool { return fam[i].epoch < fam[j].epoch })
	paths := make([]string, len(fam))
	epochs := make([]int, len(fam))
	for i, m := range fam {
		paths[i] = m.path
		epochs[i] = m.epoch
	}
	return paths, epochs, nil
}

// PruneRolling deletes all but the newest keep members of base's rolling
// family. keep <= 0 keeps everything. Returns the deleted paths.
func PruneRolling(base string, keep int) ([]string, error) {
	if keep <= 0 {
		return nil, nil
	}
	paths, _, err := rollingFamily(base)
	if err != nil {
		return nil, err
	}
	if len(paths) <= keep {
		return nil, nil
	}
	victims := paths[:len(paths)-keep]
	for _, p := range victims {
		if err := os.Remove(p); err != nil {
			return nil, err
		}
	}
	return victims, nil
}

// LatestRolling returns the newest member of base's rolling family and
// the epoch it captures. ok is false when the family is empty (a
// missing directory counts as empty, not an error, so cold starts need
// no special casing).
func LatestRolling(base string) (path string, epoch int, ok bool, err error) {
	paths, epochs, ferr := rollingFamily(base)
	if ferr != nil {
		if os.IsNotExist(ferr) {
			return "", 0, false, nil
		}
		return "", 0, false, ferr
	}
	if len(paths) == 0 {
		return "", 0, false, nil
	}
	return paths[len(paths)-1], epochs[len(epochs)-1], true, nil
}
