package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"testing"

	"vulcan/internal/figures"
	"vulcan/internal/system"
)

func TestTailRule(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n, base int
		pct     float64
		tail    float64
	}{
		{1000, 0, 99, 990},   // rank 990 leaves exactly 10 above it
		{999, 0, 95, 950},    // p99 would leave 9
		{200, 0, 95, 190},    // p95 leaves 10
		{40, 0, 75, 30},      // p90 leaves 4, p75 leaves 10
		{19, 0, 0, 19},       // no percentile qualifies: the maximum
		{1000, 200, 95, 950}, // percentile chosen for 200 samples, applied to all
	} {
		q := summarize(xs(c.n), c.base)
		if q.Pct != c.pct || q.Tail != c.tail || q.N != c.n {
			t.Errorf("n=%d base=%d: got p%g=%g over %d, want p%g=%g", c.n, c.base, q.Pct, q.Tail, q.N, c.pct, c.tail)
		}
		if q.Pct > 0 {
			base := c.base
			if base == 0 {
				base = c.n
			}
			if beyond := base - 1 - rankIndex(q.Pct, base); beyond < minBeyond {
				t.Errorf("n=%d: p%g has %d samples beyond it", c.n, q.Pct, beyond)
			}
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	// outer [0,100) holds a [10,30) and, on two parallel lanes, b [20,50)
	// and c [40,60); a holds d [12,18). Children overlap on [20,30) and
	// [40,50), which count once.
	spans := []span{
		{ID: 1, Name: "outer", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Lane: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Lane: 2, Start: 40, End: 60},
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},
		{ID: 6, Name: "outer", Start: 150, End: 160},
	}
	st := selfTimes(spans)
	want := map[string]layerTime{
		"outer": {Count: 2, Total: 110, Self: 50 + 10},
		"a":     {Count: 1, Total: 20, Self: 14},
		"b":     {Count: 1, Total: 30, Self: 30},
		"c":     {Count: 1, Total: 20, Self: 20},
		"d":     {Count: 1, Total: 6, Self: 6},
	}
	for name, w := range want {
		if got := st[name]; got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
	// [0,200) minus the top-level spans [0,100) and [150,160).
	if u := unattributed(spans, 0, 200); u != 0.45 {
		t.Errorf("unattributed = %g, want 0.45", u)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	l0, l1 := tr.lane(0), tr.lane(1)
	outer := l0.begin("outer")
	l1.base = l0.current()
	inner := l1.begin("inner")
	l1.end(inner)
	l0.end(outer)
	spans := tr.all()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Parent != 0 {
		t.Fatalf("spans %+v: want inner parented to outer", spans)
	}
	var nilLane *lane
	nilLane.end(nilLane.begin("untraced")) // untraced runs share the code path
}

func TestSeedPlumbing(t *testing.T) {
	o, err := parseOptions([]string{"--workload", "fleet", "--seed", "42", "--seconds", "3", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "fleet" || o.seed != 42 || o.seconds != 3 || !o.trace {
		t.Fatalf("parsed %+v", o)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "colo", "--trace", "2"},
		{"--workload", "colo", "--seconds", "0"},
		{"--workload", "colo", "extra"},
	} {
		if _, err := parseOptions(bad); err == nil {
			t.Errorf("%q: want an error", bad)
		}
	}

	// The seed reaches every workload's inputs, and only the seed does.
	jobs := func(seed uint64) string {
		var out string
		for _, j := range fleetConfig(newPass("fleet", seed), 1, nil, new(error)).Jobs {
			out += fmt.Sprintf("%s/%d/%d/%d ", j.App.Name, j.App.RSSPages, j.Arrive, j.Depart)
		}
		return out
	}
	if jobs(42) != jobs(42) || jobs(42) == jobs(43) {
		t.Error("fleet jobs are not a function of the seed")
	}
	if c, err := coloConfig(newPass("colo", 42), "tpp"); err != nil || c.Seed != 42 {
		t.Errorf("colo config seed %d (%v), want 42", c.Seed, err)
	}
	if s := serveOptions(42).Scenario.Seed; s != 42 {
		t.Errorf("serve scenario seed %d, want 42", s)
	}
}

// runColo runs a small co-location under policy, traced or not, and
// returns its report and end-state checkpoint bytes.
func runColo(t *testing.T, policy string, traced bool) (report, blob []byte) {
	t.Helper()
	cfg := system.Config{
		Machine:          figures.ColocationMachine(32),
		Apps:             figures.Table2Apps(32, false),
		Policy:           figures.NewPolicy(policy),
		Seed:             3,
		SamplesPerThread: figures.SamplesForScale(32),
	}
	if traced {
		var err error
		if cfg.Policy, err = wrapPolicy(cfg.Policy, newTracer().lane(0)); err != nil {
			t.Fatal(err)
		}
	}
	sys := system.New(cfg)
	for i := 0; i < 8; i++ {
		sys.RunEpoch()
	}
	var r, b bytes.Buffer
	if err := sys.Report().WriteJSON(&r); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	return r.Bytes(), b.Bytes()
}

func TestTracingIsObserverOnly(t *testing.T) {
	for _, policy := range figures.PolicyNames {
		r0, b0 := runColo(t, policy, false)
		r1, b1 := runColo(t, policy, true)
		if !bytes.Equal(r0, r1) {
			t.Errorf("%s: traced report differs from untraced", policy)
		}
		if !bytes.Equal(b0, b1) {
			t.Errorf("%s: traced checkpoint differs from untraced", policy)
		}
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if b.PerLayer[i].Name != l.name || b.PerLayer[i].Unit != l.unit {
			t.Errorf("per_layer[%d] = %+v, want %s %s", i, b.PerLayer[i], l.name, l.unit)
		}
	}
	for _, e := range b.EndToEnd {
		if u, ok := endToEndUnits[e.Name]; !ok || u != e.Unit {
			t.Errorf("end_to_end %+v: benchmark reports unit %q", e, u)
		}
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEndUnits))
	}
}

// inTempDir runs the rest of the test in a fresh working directory: the
// serve unit and the traced run write under .bench_build/ there.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestPinnedDigests runs one unit of every workload on each pinned seed.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	inTempDir(t)
	for name, seeds := range pinned {
		for seed := range seeds {
			p := newPass(name, seed)
			measure(workloads[name], p, 0, 0, 1)
			if p.failed != 0 {
				t.Errorf("%s seed %d: %d of %d operations failed: %v", name, seed, p.failed, p.attempted, p.problems)
			}
		}
	}
}

// TestTracedRunsAgree makes the traced run of every workload on an
// unpinned seed: its untraced, traced, profiled and (fleet) serial
// passes must reach the same digest, and every per-layer metric must be
// reported.
func TestTracedRunsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	inTempDir(t)
	for name, w := range workloads {
		res, err := traced(w, options{workload: name, seed: 2, seconds: 1, trace: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", name, len(res.Metrics), len(perLayer))
		}
	}
}
