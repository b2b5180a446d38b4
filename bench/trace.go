package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Times are host wall time in
// nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a top-level span
	Lane   int    `json:"lane"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Each goroutine that
// calls into the system records on its own lane, so recording takes no
// lock; IDs come from one counter so they are unique across lanes.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	lanes []*lane
}

// lane is one goroutine's span stream. Spans on a lane nest strictly, so
// the innermost open span is the parent of the next one opened.
type lane struct {
	tr    *tracer
	id    int
	base  int64 // parent of a span opened while no span is open
	stack []int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane returns lane i, creating it (and any below it) on first use. It
// must not race with recording; callers create lanes before stepping.
func (t *tracer) lane(i int) *lane {
	if t == nil {
		return nil
	}
	for len(t.lanes) <= i {
		t.lanes = append(t.lanes, &lane{tr: t, id: len(t.lanes)})
	}
	return t.lanes[i]
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its handle for end. A nil lane records
// nothing, so untraced runs share the traced code path.
func (l *lane) begin(name string) int {
	if l == nil {
		return -1
	}
	parent := l.base
	if n := len(l.stack); n > 0 {
		parent = l.spans[l.stack[n-1]].ID
	}
	l.spans = append(l.spans, span{
		ID: l.tr.ids.Add(1), Parent: parent, Lane: l.id, Name: name, Start: l.tr.now(),
	})
	idx := len(l.spans) - 1
	l.stack = append(l.stack, idx)
	return idx
}

// end closes the span begin returned; spans close innermost first.
func (l *lane) end(idx int) {
	if l == nil {
		return
	}
	l.spans[idx].End = l.tr.now()
	l.stack = l.stack[:len(l.stack)-1]
}

// current returns the ID of the innermost open span (or the lane's
// base), for handing to lanes that other goroutines record on.
func (l *lane) current() int64 {
	if l == nil {
		return 0
	}
	if n := len(l.stack); n > 0 {
		return l.spans[l.stack[n-1]].ID
	}
	return l.base
}

// all returns every recorded span, ordered by start time.
func (t *tracer) all() []span {
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus the time children cover
}

// coverage returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals (children on parallel lanes) once.
func coverage(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			covered += e - s
			cur = e
		}
	}
	return covered
}

// selfTimes derives each layer's total and self time from the span tree.
func selfTimes(spans []span) map[string]layerTime {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		d := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - coverage(s.Start, s.End, children[s.ID]))
		out[s.Name] = lt
	}
	return out
}

// unattributed returns the share of [lo, hi) that no top-level span
// covers: time the benchmark itself spent outside every layer.
func unattributed(spans []span, lo, hi int64) float64 {
	if hi <= lo {
		return 0
	}
	var top [][2]int64
	for _, s := range spans {
		if s.Parent == 0 {
			top = append(top, [2]int64{s.Start, s.End})
		}
	}
	return float64(hi-lo-coverage(lo, hi, top)) / float64(hi-lo)
}
