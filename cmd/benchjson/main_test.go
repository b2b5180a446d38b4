package main

import (
	"strings"
	"testing"
)

const benchText = `goos: linux
BenchmarkFig8MigrationBandwidth 	       1	 955540614 ns/op	        23.00 gc/op	  86804464 heap-B/op	      1850 vulcan-MB/s@large	86804464 B/op	    9171 allocs/op
BenchmarkFig10PerfFairness      	       1	1683034785 ns/op	         1.005 cfi-vs-memtis	         0.7564 vulcan-cfi	380759000 B/op	   19383 allocs/op
PASS
`

func parsed(t *testing.T) []result {
	t.Helper()
	rs, err := parseBench(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("parsed %d results, want 2", len(rs))
	}
	return rs
}

func TestParseBench(t *testing.T) {
	rs := parsed(t)
	r := rs[0]
	if r.Name != "BenchmarkFig8MigrationBandwidth" || r.NsPerOp != 955540614 ||
		r.BPerOp != 86804464 || r.AllocsOp != 9171 || r.GCPerOp != 23 ||
		r.HeapBPerOp != 86804464 || r.Metrics["vulcan-MB/s@large"] != 1850 {
		t.Fatalf("bad parse: %+v", r)
	}
}

func TestDiffNoDrift(t *testing.T) {
	fresh := parsed(t)
	baseline := document{Benchmarks: []result{
		{Name: "BenchmarkFig8MigrationBandwidth", NsPerOp: 2857168733, BPerOp: 157000000, AllocsOp: 54633,
			Metrics: map[string]float64{"vulcan-MB/s@large": 1850}},
		{Name: "BenchmarkFig10PerfFairness", NsPerOp: 4870866932, BPerOp: 535000000, AllocsOp: 108270,
			Metrics: map[string]float64{"cfi-vs-memtis": 1.005, "vulcan-cfi": 0.7564}},
	}}
	var sb strings.Builder
	if drift := diff(&sb, baseline, fresh); drift != 0 {
		t.Fatalf("drift = %d, want 0\n%s", drift, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"BenchmarkFig8MigrationBandwidth",
		"(-66.6%)", // ns/op delta
		"(-83.2%)", // allocs/op delta
		"all figure metrics identical",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDiffMetricDrift(t *testing.T) {
	fresh := parsed(t)
	baseline := document{Benchmarks: []result{
		{Name: "BenchmarkFig8MigrationBandwidth",
			Metrics: map[string]float64{"vulcan-MB/s@large": 1851}},
	}}
	var sb strings.Builder
	if drift := diff(&sb, baseline, fresh); drift != 1 {
		t.Fatalf("drift = %d, want 1\n%s", drift, sb.String())
	}
	if !strings.Contains(sb.String(), "DRIFT BenchmarkFig8MigrationBandwidth vulcan-MB/s@large: 1851 -> 1850") {
		t.Errorf("missing DRIFT line:\n%s", sb.String())
	}
}

func TestDiffSpeedupMetricIsInformational(t *testing.T) {
	fresh := []result{{Name: "BenchmarkCheckpointBranch",
		Metrics: map[string]float64{"cold-vs-branch-speedup": 0.91}}}
	baseline := document{Benchmarks: []result{{Name: "BenchmarkCheckpointBranch",
		Metrics: map[string]float64{"cold-vs-branch-speedup": 1.246}}}}
	var sb strings.Builder
	if drift := diff(&sb, baseline, fresh); drift != 0 {
		t.Fatalf("drift = %d, want 0 (speedup metrics are wall-clock)\n%s", drift, sb.String())
	}
	if !strings.Contains(sb.String(), "wall-clock metric, informational") {
		t.Errorf("missing informational note:\n%s", sb.String())
	}
}

func TestDiffNewBenchmark(t *testing.T) {
	fresh := parsed(t)
	var sb strings.Builder
	if drift := diff(&sb, document{}, fresh); drift != 0 {
		t.Fatalf("drift = %d, want 0", drift)
	}
	if !strings.Contains(sb.String(), "BenchmarkFig8MigrationBandwidth (new)") {
		t.Errorf("missing (new) marker:\n%s", sb.String())
	}
}

// TestDiffIgnoresProcsSuffix: results taken with GOMAXPROCS > 1 carry a
// "-N" name suffix the committed baselines lack; they must still be
// matched, so a drifted figure metric is caught rather than reported as
// a new benchmark.
func TestDiffIgnoresProcsSuffix(t *testing.T) {
	fresh := []result{{Name: "BenchmarkFig8MigrationBandwidth-2",
		Metrics: map[string]float64{"vulcan-MB/s@large": 1850}}}
	baseline := document{Benchmarks: []result{{Name: "BenchmarkFig8MigrationBandwidth",
		Metrics: map[string]float64{"vulcan-MB/s@large": 1851}}}}
	var sb strings.Builder
	if drift := diff(&sb, baseline, fresh); drift != 1 {
		t.Fatalf("drift = %d, want 1\n%s", drift, sb.String())
	}
}
