// Command bench is the repository's end-to-end benchmark. It runs one
// workload (colo.go, fleet.go, serve.go) from a seed for a given number
// of seconds, checks the simulated outputs, and prints every metric by
// name and unit; the last line of standard output is one JSON object.
// With --trace 1 it instead makes an untraced and a traced pass over the
// workload and prints the per-layer metrics, derived from in-memory spans
// around the calls it makes into each layer. NOTES.md describes every
// metric.
//
//	bash bench/run.sh --workload colo --seed 1 --seconds 35 --trace 0
//
// Host times are wall-clock; counts named sim.*, tlb.*, migrate.*,
// prof.*, cluster.moves/deferred/fleet_cfi and serve.recover_replayed_epochs
// are simulated and exact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the benchmark's command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: colo, fleet or serve")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.IntVar(&o.seconds, "seconds", 35, "seconds to measure for")
	trace := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want colo, fleet or serve)", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds %d: need at least 1", o.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	o.trace = *trace == 1
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	w := workloads[o.workload]
	var res result
	if o.trace {
		res, err = traced(w, o)
	} else {
		res, err = endToEnd(w, o)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// pass is one measured sequence of units of a workload. Every unit is
// the same deterministic work, so units of one seed must produce the
// same digest.
type pass struct {
	name    string
	seed    uint64
	tr      *tracer // nil when untraced
	lane    *lane   // main-goroutine lane of tr
	prof    bool    // arm the cost profiler
	workers int     // fleet worker count

	units      int
	minEpochs  int       // epoch samples after the first minUnits units
	minAPI     int       // control-plane samples after the first minUnits units
	setup      []float64 // s, one per unit
	epochMs    []float64 // one per epoch call
	apiMs      []float64 // one per control-plane call
	apiByOp    map[string][]float64
	recoverS   []float64 // s, one per unit
	epochTime  time.Duration
	hostEpochs int
	wall       time.Duration

	attempted, failed int
	problems          []string
	digest            string

	// policyEpochs counts the host-epochs each policy ran.
	policyEpochs map[string]int
	// layer holds per-layer values of the last unit (counts and times
	// the workload measures itself).
	layer map[string]float64
}

func newPass(name string, seed uint64) *pass {
	return &pass{name: name, seed: seed, apiByOp: map[string][]float64{},
		policyEpochs: map[string]int{}, layer: map[string]float64{}}
}

// traceWith arms tracing on the pass.
func (p *pass) traceWith(tr *tracer) {
	p.tr = tr
	p.lane = tr.lane(0)
}

// op counts one attempted operation and records err as a failure.
func (p *pass) op(err error) bool {
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.problems) < 20 {
			p.problems = append(p.problems, err.Error())
		}
		return false
	}
	return true
}

// timed runs f under a span and returns its wall time.
func (p *pass) timed(span string, f func()) time.Duration {
	i := p.lane.begin(span)
	t := time.Now()
	f()
	d := time.Since(t)
	p.lane.end(i)
	return d
}

// epoch times one epoch call, which advances hostEpochs host-epochs.
func (p *pass) epoch(span string, hostEpochs int, f func() error) {
	var err error
	d := p.timed(span, func() { err = f() })
	p.epochMs = append(p.epochMs, ms(d))
	p.epochTime += d
	p.hostEpochs += hostEpochs
	p.op(err)
}

// api times one control-plane call.
func (p *pass) api(op, span string, f func() error) {
	var err error
	d := p.timed(span, func() { err = f() })
	p.apiMs = append(p.apiMs, ms(d))
	p.apiByOp[op] = append(p.apiByOp[op], ms(d))
	p.op(err)
}

// check counts one correctness check.
func (p *pass) check(ok bool, format string, args ...any) {
	if ok {
		p.op(nil)
		return
	}
	p.op(fmt.Errorf(format, args...))
}

// checkDigest compares a unit's output digest with the pinned digest of
// the seed, or, for an unpinned seed, with the pass's first unit.
func (p *pass) checkDigest(d string) {
	want := p.digest
	if pin, ok := pinned[p.name][p.seed]; ok {
		want = pin
	}
	if want == "" {
		want = d
	}
	p.check(d == want, "%s seed %d: output digest %s, want %s", p.name, p.seed, d[:16], want[:16])
	if p.digest == "" {
		p.digest = d
	}
}

// spec is one benchmark workload: unit runs one deterministic unit
// of work on p; layers adds the per-layer values measured outside the
// passes (generator replays, micro-timings).
type spec struct {
	unit func(p *pass)
	// minUnits is the fewest units an end-to-end run makes, even past
	// its seconds; the tail percentiles are chosen for the sample counts
	// those units give, so runs of any length report the same ones.
	minUnits   int
	traceUnits int // fewest units per pass of a traced run
	// layers may run further passes; it returns them for the digest check.
	layers func(o options, tp *pass, out map[string]float64) ([]*pass, error)
}

var workloads = map[string]spec{
	"colo":  {unit: coloUnit, minUnits: 4, traceUnits: 1, layers: coloLayers},
	"fleet": {unit: fleetUnit, minUnits: 20, traceUnits: fleetTraceUnits, layers: fleetLayers},
	"serve": {unit: serveUnit, minUnits: 20, traceUnits: 4, layers: serveLayers},
}

// measure runs units of w until d has passed and at least minUnits
// units are done, stopping early at maxUnits when that is nonzero. It
// notes the sample counts after minUnits units.
func measure(w spec, p *pass, d time.Duration, minUnits, maxUnits int) {
	start := time.Now()
	for p.units < max(minUnits, 1) || (time.Since(start) < d && (maxUnits == 0 || p.units < maxUnits)) {
		p.layer = map[string]float64{}
		runtime.GC() // every unit starts from a collected heap
		w.unit(p)
		p.units++
		if p.units == minUnits {
			p.minEpochs, p.minAPI = len(p.epochMs), len(p.apiMs)
		}
	}
	p.wall = time.Since(start)
}

// endToEndUnits are the end-to-end metrics and their units.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"sim_epochs_per_s": "1/s",
	"epoch_ms.p50":     "ms",
	"epoch_ms.tail":    "ms",
	"api_ms.p50":       "ms",
	"api_ms.tail":      "ms",
	"recover_s":        "s",
	"peak_rss_mb":      "MB",
}

// endToEnd is the untraced run behind every end-to-end metric.
func endToEnd(w spec, o options) (result, error) {
	p := newPass(o.workload, o.seed)
	measure(w, p, time.Duration(o.seconds)*time.Second, w.minUnits, 0)
	epoch, api := summarize(p.epochMs, p.minEpochs), summarize(p.apiMs, p.minAPI)
	fmt.Printf("workload %s seed %d: %d units in %.2fs, output digest %s\n", o.workload, o.seed, p.units, p.wall.Seconds(), p.digest)
	fmt.Printf("epoch_ms: p50 %.4g, p%g %.4g over %d samples\n", epoch.P50, epoch.Pct, epoch.Tail, epoch.N)
	fmt.Printf("api_ms: p50 %.4g, p%g %.4g over %d samples\n", api.P50, api.Pct, api.Tail, api.N)
	for _, s := range p.problems {
		fmt.Println("failure:", s)
	}
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{v, endToEndUnits[name]} }
	set("setup_s", median(p.setup))
	set("sim_epochs_per_s", float64(p.hostEpochs)/p.epochTime.Seconds())
	set("epoch_ms.p50", epoch.P50)
	set("epoch_ms.tail", epoch.Tail)
	set("api_ms.p50", api.P50)
	set("api_ms.tail", api.Tail)
	set("recover_s", median(p.recoverS))
	set("peak_rss_mb", peakRSSMB())
	return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

// traced makes an untraced pass for a third of the run's seconds, a
// traced pass over as many units, and (for colo and fleet) a unit with
// the cost profiler armed, then derives the per-layer metrics. Every
// pass must reach the same output digest.
func traced(w spec, o options) (result, error) {
	plain := newPass(o.workload, o.seed)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	measure(w, plain, time.Duration(o.seconds)*time.Second/3, w.traceUnits, 0)
	runtime.ReadMemStats(&after)

	tp := newPass(o.workload, o.seed)
	tr := newTracer()
	tp.traceWith(tr)
	lo := tr.now()
	measure(w, tp, 0, plain.units, plain.units)
	hi := tr.now()
	spans := tr.all()
	if err := tr.write(fmt.Sprintf(".bench_build/spans/%s.seed%d.json", o.workload, o.seed)); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}

	layers := map[string]float64{}
	for k, v := range tp.layer {
		layers[k] = v
	}
	passes := []*pass{plain, tp}
	if o.workload != "serve" {
		// The cost profiler is an observer too, but costs host time: its
		// simulated counts come from a pass of their own.
		pp := newPass(o.workload, o.seed)
		pp.prof = true
		measure(w, pp, 0, 0, 1)
		for k, v := range pp.layer {
			layers[k] = v
		}
		passes = append(passes, pp)
	}
	more, err := w.layers(o, tp, layers)
	if err != nil {
		return result{}, err
	}
	passes = append(passes, more...)

	attempted, failed := 0, 0
	for _, p := range passes {
		attempted += p.attempted
		failed += p.failed
		for _, s := range p.problems {
			fmt.Println("failure:", s)
		}
		attempted++
		if p.digest != plain.digest {
			failed++
			fmt.Printf("failure: a pass's digest %.16s differs from the untraced pass's %.16s\n", p.digest, plain.digest)
		}
	}

	st := selfTimes(spans)
	un := unattributed(spans, lo, hi)
	printShares(st, time.Duration(hi-lo), un)
	m := layerMetrics(st, tp)
	if hits, misses := layers[tlbHits], layers["tlb.misses"]; hits+misses > 0 {
		layers["tlb.hit_rate"] = hits / (hits + misses)
	}
	delete(layers, tlbHits)
	for k, v := range layers {
		lm, ok := m[k]
		if !ok {
			return result{}, fmt.Errorf("workload %s set unknown per-layer metric %q", o.workload, k)
		}
		m[k] = metric{v, lm.Unit}
	}
	epochs := float64(len(plain.epochMs))
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("runtime.alloc_mb_per_epoch", float64(after.TotalAlloc-before.TotalAlloc)/1e6/epochs)
	// less the collection forced before each unit
	set("runtime.gc_cycles", float64(after.NumGC-before.NumGC)-float64(plain.units))
	set("bench.trace_overhead_frac", (tp.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds())
	set("bench.unattributed_frac", un)
	set("bench.failed_frac", float64(failed)/float64(attempted))
	if acc := m["sim.accesses"].Value; acc > 0 {
		set("system.host_ns_per_access", float64(plain.epochTime.Nanoseconds())/float64(plain.units)/acc)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// printShares prints each layer's self time as a share of the traced
// wall time; with the unattributed share they add up to one.
func printShares(st map[string]layerTime, wall time.Duration, un float64) {
	names := make([]string, 0, len(st))
	var total time.Duration
	for n, lt := range st {
		names = append(names, n)
		total += lt.Self
	}
	sort.Strings(names)
	fmt.Printf("traced wall %.3fs; layer self time (share of wall):\n", wall.Seconds())
	for _, n := range names {
		lt := st[n]
		fmt.Printf("  %-34s %6d calls %10.3fms self %6.2f%%\n", n, lt.Count, ms(lt.Self), 100*lt.Self.Seconds()/wall.Seconds())
	}
	fmt.Printf("  %-34s %6.2f%%\n", "(unattributed)", 100*un)
	fmt.Printf("  self time on parallel lanes can exceed wall: sum of self %.3fs\n", total.Seconds())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
