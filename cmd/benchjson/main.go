// Command benchjson converts `go test -bench -benchmem` output on
// stdin into a JSON document on stdout, so benchmark numbers can be
// committed and diffed as structured data (BENCH_parallel.json).
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkFig -benchmem . | go run ./cmd/benchjson
//	go test -run '^$' -bench BenchmarkFig -benchmem . | go run ./cmd/benchjson -diff BENCH_parallel.json
//
// Each benchmark line becomes one record with iterations, ns/op, B/op,
// allocs/op, the self-profiling counters gc/op and heap-B/op (reported
// by benchmarks that wrap prof.ReadSelfStats), and any custom metrics
// (e.g. "cycles@32cpu") keyed by their unit string. Non-benchmark lines
// are ignored.
//
// With -diff BASELINE, the fresh run is instead compared against the
// committed baseline JSON: per-benchmark deltas for ns/op, B/op and
// allocs/op are printed as a table, and every custom metric is checked
// for drift. Timing and allocation deltas are informational; a custom
// metric changing is a correctness signal (figure outputs must be
// byte-identical across perf work), so any drift makes the command exit
// nonzero.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	BPerOp     float64            `json:"b_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	GCPerOp    float64            `json:"gc_per_op,omitempty"`
	HeapBPerOp float64            `json:"heap_b_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// document is the committed JSON shape.
type document struct {
	Benchmarks []result `json:"benchmarks"`
}

// parseBench reads `go test -bench` text and returns one result per
// benchmark line.
func parseBench(r io.Reader) ([]result, error) {
	var results []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := result{Name: fields[0], Iterations: iters}
		// The remainder alternates "<value> <unit>".
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BPerOp = v
			case "allocs/op":
				res.AllocsOp = v
			case "gc/op":
				res.GCPerOp = v
			case "heap-B/op":
				res.HeapBPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = v
			}
		}
		results = append(results, res)
	}
	return results, sc.Err()
}

// delta formats "old -> new (+x%)" for one counter; the baseline side is
// "-" when the benchmark is new or the counter absent from the baseline.
func delta(old, new float64) string {
	if old == 0 {
		return fmt.Sprintf("- -> %.0f", new)
	}
	return fmt.Sprintf("%.0f -> %.0f (%+.1f%%)", old, new, (new-old)/old*100)
}

// benchKey drops the "-N" GOMAXPROCS suffix go test appends to a
// benchmark name when N > 1, so a baseline recorded at one CPU count
// still matches (and drift-checks) results taken at another.
func benchKey(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// diff compares fresh results against the baseline document and writes a
// per-benchmark delta table plus a metric-drift report to w. It returns
// the number of drifted custom metrics.
func diff(w io.Writer, baseline document, fresh []result) int {
	base := make(map[string]result, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[benchKey(b.Name)] = b
	}
	tw := newTable(w, "benchmark", "ns/op", "B/op", "allocs/op")
	drift := 0
	var driftLines []string
	for _, f := range fresh {
		b, ok := base[benchKey(f.Name)]
		if !ok {
			tw.row(f.Name+" (new)", delta(0, f.NsPerOp), delta(0, f.BPerOp), delta(0, f.AllocsOp))
			continue
		}
		tw.row(f.Name, delta(b.NsPerOp, f.NsPerOp), delta(b.BPerOp, f.BPerOp), delta(b.AllocsOp, f.AllocsOp))
		// Custom metrics are figure outputs: equality, not tolerance.
		// The exception is wall-clock-derived ratios ("-speedup"
		// metrics, e.g. cold-vs-branch-speedup), which observe the host
		// like ns/op does and are reported as informational deltas.
		keys := make([]string, 0, len(f.Metrics))
		for k := range f.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv, had := b.Metrics[k]
			if !had {
				continue
			}
			fv := f.Metrics[k]
			// Bit-pattern equality: the contract is byte-identity of the
			// reported figure value, not numeric closeness.
			if math.Float64bits(fv) == math.Float64bits(bv) {
				continue
			}
			if strings.HasSuffix(k, "-speedup") {
				driftLines = append(driftLines,
					fmt.Sprintf("note  %s %s: %v -> %v (wall-clock metric, informational)", f.Name, k, bv, fv))
				continue
			}
			drift++
			driftLines = append(driftLines,
				fmt.Sprintf("DRIFT %s %s: %v -> %v", f.Name, k, bv, fv))
		}
	}
	tw.flush()
	for _, l := range driftLines {
		fmt.Fprintln(w, l)
	}
	if drift == 0 {
		fmt.Fprintln(w, "metrics: all figure metrics identical to baseline")
	}
	return drift
}

// table is a minimal column aligner (text/tabwriter's tab padding
// renders unevenly in CI logs).
type table struct {
	w    io.Writer
	rows [][]string
}

func newTable(w io.Writer, header ...string) *table {
	return &table{w: w, rows: [][]string{header}}
}

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) flush() {
	widths := make([]int, len(t.rows[0]))
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			fmt.Fprintf(t.w, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(t.w)
	}
}

func main() {
	baselinePath := flag.String("diff", "", "compare the fresh run on stdin against this committed baseline JSON instead of emitting JSON")
	flag.Parse()

	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var baseline document
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
		if drift := diff(os.Stdout, baseline, results); drift > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d figure metric(s) drifted from %s\n", drift, *baselinePath)
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(document{Benchmarks: results}); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
