// Command vulcansim runs one tiered-memory co-location scenario and
// reports per-application performance, fast-tier hit ratios, allocation,
// and the FTHR-weighted fairness index.
//
// Usage:
//
//	vulcansim -policy vulcan -seconds 180
//	vulcansim -policy memtis -apps memcached,liblinear -seconds 120
//	vulcansim -policy vulcan -staggered -series timeline.csv
//	vulcansim -policy vulcan -seeds 5 -parallel 4   # seeds 1..5 in parallel
//	vulcansim -policy vulcan -faults moderate       # deterministic chaos
//	vulcansim -policy tpp -fault-rate 0.08 -fault-seed 42
//	vulcansim -fleet 8 -scheduler fairness -seconds 60   # multi-host fleet
//
// Fleet mode (-fleet N, or a scenario file with a "fleet" block) steps
// N hosts in lockstep under a placement scheduler (-scheduler binpack,
// fairness or vulcan); -seconds then counts one-second fleet epochs and
// the report is fleet-wide (fleet CFI, per-host spread, migration
// totals). Fleet runs support -json, fleet-level -checkpoint-out and
// -resume, but no per-epoch artifact exports.
//
// Multi-seed mode (-seeds N) runs N consecutive seeds as independent
// simulations on a worker pool (-parallel, default GOMAXPROCS) and
// reports them in seed order; per-seed artifacts get a ".seedK" suffix
// before the extension. Output is byte-identical at any -parallel value.
// A single run is the one-seed case of the same path.
//
// A -config scenario runs one host (or a fleet, with a "fleet" block).
// Scenarios with an "arrivals" block are served, not batch-run: start
// them under vulcand and rebuild the run with -replay-journal.
//
// Fault injection (-faults off|light|moderate|heavy, or -fault-rate R
// for the canonical plan at rate R) is clock-keyed and seed-derived:
// the same flags replay the same faults byte for byte. -fault-seed
// varies the fault schedule without touching the workload seed.
//
// Cost profiling (-costprofile, -cost-folded, -cost-csv) attributes
// every simulated cycle to a (subsystem, app, tier) account and exports
// the result as a go-tool-pprof-readable profile, folded flamegraph
// stacks, or a per-epoch breakdown CSV (see internal/obs/prof). The
// artifacts are deterministic: byte-identical across replays and at any
// -parallel value. -cpuprofile/-memprofile profile the simulator
// process itself (wall-clock plane) with runtime/pprof.
//
// Checkpoint/restore (-checkpoint-out, -checkpoint-every, -resume):
//
//	vulcansim -seconds 120 -checkpoint-out run.ckpt        # snapshot the end state
//	vulcansim -seconds 120 -checkpoint-out run.ckpt -checkpoint-every 30
//	vulcansim -resume run.ckpt -seconds 60                 # 60 MORE simulated seconds
//	vulcansim -resume run.ckpt -seconds 60 -faults heavy   # branch into chaos
//
// A resumed run continued to the original end time reproduces the
// uninterrupted run's report, series, trace and metrics byte for byte
// when the remaining flags match. The policy and fault flags may differ
// from the checkpointed run — that branches a new experiment from the
// snapshot instead (the restored policy starts cold). Checkpointing is
// single-run only: it excludes -seeds > 1. Interim checkpoints follow
// the rolling-family naming (run.ckpt -> run.t030.ckpt) and
// -checkpoint-retain keeps only the newest N of them (0 = all).
//
// Journal replay (-replay-journal run.journal) rebuilds a vulcand
// serving session from its command journal through the batch pipeline:
// the journal header carries the scenario, every journaled command
// re-applies at its epoch boundary, and the report, -trace-out and
// -metrics-out artifacts are byte-identical to what the live daemon
// streamed — at any -parallel value.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"vulcan"
	"vulcan/internal/checkpoint"
	"vulcan/internal/cluster"
	"vulcan/internal/figures"
	"vulcan/internal/lab"
	"vulcan/internal/obs"
	"vulcan/internal/obs/prof"
	"vulcan/internal/scenario"
	"vulcan/internal/serve"
	"vulcan/internal/sim"
)

// costFlags bundles the three simulated-cost artifact paths.
type costFlags struct {
	pb     string // gzipped pprof protobuf
	folded string // folded stacks (flamegraph.pl / speedscope input)
	csv    string // per-epoch breakdown CSV
}

// wanted reports whether any cost artifact was requested.
func (c costFlags) wanted() bool { return c.pb != "" || c.folded != "" || c.csv != "" }

// outputs are the report format and artifact paths of a single-host
// run, as the flags request them.
type outputs struct {
	json                   bool
	series, trace, metrics string
	obsFilter              string
	cost                   costFlags
}

// ckptFlags are the checkpoint/resume flags of a single-run experiment.
type ckptFlags struct {
	resume, out   string
	every, retain int
}

func main() {
	var (
		policyName = flag.String("policy", "vulcan", "tiering policy: "+strings.Join(figures.PolicyNames, ", "))
		appsFlag   = flag.String("apps", "memcached,pagerank,liblinear", "comma-separated apps (memcached, pagerank, liblinear)")
		seconds    = flag.Int("seconds", 120, "simulated seconds")
		scale      = flag.Int("scale", 4, "extra capacity scale divisor (1 = full 1/64 scale)")
		seed       = flag.Uint64("seed", 1, "random seed")
		staggered  = flag.Bool("staggered", false, "stagger app arrivals at 0s/50s/110s (Figure 9 style)")
		seriesOut  = flag.String("series", "", "write per-epoch time series CSV to this file")
		configPath = flag.String("config", "", "load the scenario from a JSON file (see internal/scenario) instead of flags")
		jsonOut    = flag.Bool("json", false, "emit the final report as JSON")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON file (open in Perfetto / chrome://tracing)")
		metricsOut = flag.String("metrics-out", "", "write per-epoch metric samples as CSV to this file")
		obsFilter  = flag.String("obs-filter", "", "comma-separated event types to record (default all; see internal/obs)")
		seedsN     = flag.Int("seeds", 1, "run this many consecutive seeds (seed, seed+1, ...) as independent simulations")
		parallel   = flag.Int("parallel", 0, "worker goroutines for multi-seed mode (0 = GOMAXPROCS); output is byte-identical at any value")
		faultsProf = flag.String("faults", "", "fault-injection profile: off, light, moderate, heavy")
		faultRate  = flag.Float64("fault-rate", 0, "inject the canonical all-kinds fault plan at this rate (0 = off; excludes -faults)")
		faultSeed  = flag.Uint64("fault-seed", 0, "vary the fault schedule independently of -seed (needs -faults or -fault-rate)")
		fleetN     = flag.Int("fleet", 0, "run a fleet of this many hosts instead of one machine; -seconds counts fleet epochs of 1s")
		schedName  = flag.String("scheduler", "binpack", "fleet placement scheduler: "+strings.Join(cluster.Schedulers(), ", ")+" (needs -fleet)")
		ckptOut    = flag.String("checkpoint-out", "", "write a checkpoint blob of the final simulation state to this file")
		ckptEvery  = flag.Int("checkpoint-every", 0, "also checkpoint every N simulated seconds (needs -checkpoint-out; interim files get a .tNNN suffix)")
		ckptRetain = flag.Int("checkpoint-retain", 0, "keep only the newest N interim checkpoints (0 = all; needs -checkpoint-every)")
		resumeFrom = flag.String("resume", "", "resume from a checkpoint blob; -seconds then counts additional simulated time")
		replayJrnl = flag.String("replay-journal", "", "replay a vulcand command journal through the batch pipeline and exit")
		costPB     = flag.String("costprofile", "", "write the simulated-cycle cost profile as gzipped pprof protobuf (go tool pprof readable)")
		costFolded = flag.String("cost-folded", "", "write the cost profile as folded stacks (flamegraph.pl / speedscope input)")
		costCSV    = flag.String("cost-csv", "", "write the per-epoch cost breakdown as CSV")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the simulator process itself to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile of the simulator process itself to this file (taken after the run)")
	)
	flag.Parse()
	lab.SetDefaultWorkers(*parallel)
	out := outputs{
		json: *jsonOut, series: *seriesOut, trace: *traceOut, metrics: *metricsOut, obsFilter: *obsFilter,
		cost: costFlags{pb: *costPB, folded: *costFolded, csv: *costCSV},
	}
	ck := ckptFlags{resume: *resumeFrom, out: *ckptOut, every: *ckptEvery, retain: *ckptRetain}

	// Plane-B self-profiling of the simulator process. Deferred writers
	// run on every normal return path; log.Fatal error paths lose the
	// profile, which is fine — the run itself failed.
	if *cpuProf != "" {
		stop, err := prof.StartCPUProfile(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				log.Print(err)
				return
			}
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := prof.WriteHeapProfile(*memProf); err != nil {
				log.Print(err)
				return
			}
			fmt.Fprintf(os.Stderr, "heap profile written to %s\n", *memProf)
		}()
	}

	plan, err := buildFaultPlan(*faultsProf, *faultRate, *faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if !figures.ValidPolicy(*policyName) {
		log.Fatalf("unknown policy %q (want one of %s)", *policyName, strings.Join(figures.PolicyNames, ", "))
	}
	if ck.every < 0 || ck.retain < 0 {
		log.Fatal("-checkpoint-every and -checkpoint-retain must be >= 0")
	}
	if ck.every > 0 && ck.out == "" {
		log.Fatal("-checkpoint-every needs -checkpoint-out")
	}
	if ck.retain > 0 && ck.every == 0 {
		log.Fatal("-checkpoint-retain needs -checkpoint-every")
	}
	if (ck.out != "" || ck.resume != "") && *seedsN > 1 {
		log.Fatal("-checkpoint-out/-resume are single-run flags; they exclude -seeds > 1")
	}

	if *replayJrnl != "" {
		// The journal header IS the scenario; flags that would define or
		// alter one are contradictions, not overrides.
		if *configPath != "" || *fleetN > 0 || *seedsN > 1 || out.series != "" ||
			out.cost.wanted() || plan != nil || ck.out != "" || ck.resume != "" {
			log.Fatal("-replay-journal replays the journal's own scenario: it supports -json, -trace-out, -metrics-out and -parallel only")
		}
		runReplayJournal(*replayJrnl, out)
		return
	}

	if *fleetN > 0 {
		if *seedsN > 1 || *configPath != "" || out.cost.wanted() ||
			out.trace != "" || out.metrics != "" || out.series != "" || ck.every > 0 {
			log.Fatal("-fleet runs one fleet: it excludes -seeds, -config, -series, trace/metrics and cost artifacts, and -checkpoint-every")
		}
		runFleet(fleetConfig(*fleetN, *schedName, *policyName, *scale, *seed, plan),
			*seconds, out.json, ck)
		return
	}

	if *configPath != "" && *seedsN > 1 {
		log.Fatal("-seeds applies to flag-defined scenarios, not -config runs")
	}
	// Validate the filter once up front; every seed's worker reparses it
	// (deterministically) for its private recorder.
	if _, err := buildRecorder(out.trace, out.metrics, out.obsFilter); err != nil {
		log.Fatal(err)
	}
	if *configPath != "" {
		runConfigFile(*configPath, out, plan, ck)
		return
	}

	var apps []vulcan.AppConfig
	for _, name := range strings.Split(*appsFlag, ",") {
		var cfg vulcan.AppConfig
		switch strings.TrimSpace(name) {
		case "memcached":
			cfg = vulcan.Memcached()
		case "pagerank":
			cfg = vulcan.PageRank()
		case "liblinear":
			cfg = vulcan.Liblinear()
		default:
			log.Fatalf("unknown app %q (want memcached, pagerank, liblinear)", name)
		}
		cfg.RSSPages /= *scale
		apps = append(apps, cfg)
	}
	if *staggered {
		for i := range apps {
			apps[i].StartAt = vulcan.Time(i) * vulcan.Time(50*sim.Second) * 11 / 10
		}
	}
	runHost(vulcan.Config{
		Machine:          figures.ColocationMachine(*scale),
		Apps:             apps,
		Seed:             *seed,
		SamplesPerThread: figures.SamplesForScale(*scale),
		Faults:           plan,
	}, *policyName, *seconds, max(*seedsN, 1), out, ck)
}

// artifact is one rendered output file of a run.
type artifact struct {
	path, what string
	data       []byte
}

// seedOut is one seed's rendered report and artifacts.
type seedOut struct {
	report []byte
	files  []artifact
}

// runHost is the single-host run path. It runs seeds [cfg.Seed,
// cfg.Seed+seeds) as independent simulations on the lab worker pool —
// each with a fresh policy, recorder, cost profiler and system — and
// renders every report and artifact to memory. They are committed to
// stdout and disk serially in seed order, so bytes never depend on
// -parallel. With more than one seed the reports get "### seed K"
// headers (text mode) and the artifact paths a ".seedK" suffix. ck
// applies to the one-seed case only (main rejects it otherwise).
func runHost(cfg vulcan.Config, policy string, seconds, seeds int, out outputs, ck ckptFlags) {
	outs := lab.Map(0, seeds, func(i int) seedOut {
		rec, err := buildRecorder(out.trace, out.metrics, out.obsFilter)
		if err != nil {
			panic(err) // filter validated before the fan-out
		}
		p := buildCostProfiler(out.cost)
		c := cfg
		c.Seed += uint64(i)
		c.Policy = figures.NewPolicy(policy)
		c.Prof = p
		if rec != nil {
			c.Obs = rec
			rec.AttachCostProfiler(p)
		}
		sys := runSystem(c, seconds, ck)
		o := seedOut{report: renderReport(sys, out.json)}
		add := func(path, what string, write func(io.Writer) error) {
			if path != "" {
				o.files = append(o.files, artifact{path, what, renderTo(write)})
			}
		}
		add(out.series, "time series", sys.Recorder().WriteCSV)
		add(out.trace, "chrome trace", rec.WriteChromeTrace)
		add(out.metrics, "metric samples", rec.WriteMetricsCSV)
		add(out.cost.pb, "cost profile", p.WritePprof)
		add(out.cost.folded, "folded cost stacks", p.WriteFolded)
		add(out.cost.csv, "cost breakdown", p.WriteBreakdownCSV)
		return o
	})
	for i, o := range outs {
		s := cfg.Seed + uint64(i)
		if seeds > 1 && !out.json {
			fmt.Printf("### seed %d\n", s)
		}
		os.Stdout.Write(o.report)
		for _, a := range o.files {
			path := a.path
			if seeds > 1 {
				path = seedPath(path, s)
			}
			writeBytesArtifact(path, a.what, a.data)
		}
	}
}

// runReplayJournal rebuilds a vulcand serving run from its command
// journal in batch mode and renders the same artifacts the daemon
// streamed.
func runReplayJournal(path string, out outputs) {
	s, err := serve.Replay(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	if err := s.WriteReport(os.Stdout, out.json); err != nil {
		log.Fatal(err)
	}
	if out.trace != "" {
		writeBytesArtifact(out.trace, "chrome trace", renderTo(s.WriteTrace))
	}
	if out.metrics != "" {
		writeBytesArtifact(out.metrics, "metric samples", renderTo(s.WriteMetrics))
	}
}

// runSystem builds (or resumes) the system and advances it seconds of
// simulated time, writing interim and final checkpoints as requested.
// Checkpoints happen on epoch boundaries, which whole-second steps
// align with (the default epoch is 1s).
func runSystem(cfg vulcan.Config, seconds int, ck ckptFlags) *vulcan.System {
	var sys *vulcan.System
	if ck.resume != "" {
		f, err := os.Open(ck.resume)
		if err != nil {
			log.Fatal(err)
		}
		sys, err = vulcan.Resume(f, cfg)
		f.Close()
		if err != nil {
			log.Fatalf("resume %s: %v", ck.resume, err)
		}
		fmt.Fprintf(os.Stderr, "resumed from %s at t=%ds\n", ck.resume, simSeconds(sys))
	} else {
		sys = vulcan.NewSystem(cfg)
	}
	if ck.every > 0 {
		for done := 0; done < seconds; {
			step := ck.every
			if done+step > seconds {
				step = seconds - done
			}
			sys.Run(vulcan.Duration(step) * vulcan.Second)
			done += step
			if done < seconds {
				writeCheckpoint(sys, checkpoint.RollingPath(ck.out, simSeconds(sys)))
				if _, err := checkpoint.PruneRolling(ck.out, ck.retain); err != nil {
					log.Fatalf("prune checkpoints: %v", err)
				}
			}
		}
	} else {
		sys.Run(vulcan.Duration(seconds) * vulcan.Second)
	}
	if ck.out != "" {
		writeCheckpoint(sys, ck.out)
	}
	return sys
}

// fleetConfig assembles the flag-defined fleet experiment: hosts built
// from the colocation machine at -scale, two jobs per host cycling the
// built-in app templates with staggered arrivals and a few departures,
// so every scheduler faces the same offered load.
func fleetConfig(hosts int, scheduler, policyName string, scale int, seed uint64, plan *vulcan.FaultPlan) cluster.Config {
	templates := []vulcan.AppConfig{vulcan.Memcached(), vulcan.PageRank(), vulcan.Liblinear()}
	var jobs []cluster.JobSpec
	for i := 0; i < 2*hosts; i++ {
		ac := templates[i%len(templates)]
		ac.Name = fmt.Sprintf("%s%02d", ac.Name, i)
		ac.RSSPages /= scale
		spec := cluster.JobSpec{App: ac, Arrive: i % 4}
		if i%5 == 4 {
			spec.Depart = spec.Arrive + 8
		}
		jobs = append(jobs, spec)
	}
	return cluster.Config{
		Hosts: hosts,
		Host: cluster.HostTemplate{
			Machine:          figures.ColocationMachine(scale),
			NewPolicy:        func() vulcan.Tiering { return figures.NewPolicy(policyName) },
			EpochLength:      sim.Second,
			SamplesPerThread: figures.SamplesForScale(scale),
		},
		HostOverride:   func(host int, scfg *vulcan.Config) { scfg.Faults = plan },
		Scheduler:      scheduler,
		Jobs:           jobs,
		RebalanceEvery: 5,
		MoveBudget:     2,
		Seed:           seed,
	}
}

// runFleet executes fleet mode: the configured hosts stepped seconds
// fleet epochs, with optional fleet checkpoint/resume (ck.every is
// rejected by the callers).
func runFleet(cfg cluster.Config, seconds int, jsonOut bool, ck ckptFlags) {
	var f *cluster.Fleet
	var err error
	if ck.resume != "" {
		in, err2 := os.Open(ck.resume)
		if err2 != nil {
			log.Fatal(err2)
		}
		f, err = cluster.Resume(in, cfg)
		in.Close()
		if err != nil {
			log.Fatalf("resume %s: %v", ck.resume, err)
		}
		fmt.Fprintf(os.Stderr, "resumed fleet from %s at epoch %d\n", ck.resume, f.Epoch())
	} else if f, err = cluster.New(cfg); err != nil {
		log.Fatal(err)
	}
	if err := f.Run(seconds); err != nil {
		log.Fatal(err)
	}
	if ck.out != "" {
		if err := checkpoint.WriteFile(ck.out, f.Checkpoint); err != nil {
			log.Fatalf("checkpoint %s: %v", ck.out, err)
		}
		fmt.Fprintf(os.Stderr, "fleet checkpoint written to %s (epoch %d)\n", ck.out, f.Epoch())
	}
	if jsonOut {
		if err := f.Report().WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
	} else if err := f.Report().WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// simSeconds returns the simulation clock in whole simulated seconds.
func simSeconds(sys *vulcan.System) int {
	return int(sim.Duration(sys.Now()) / sim.Second)
}

// writeCheckpoint atomically serializes the full simulation state to
// path.
func writeCheckpoint(sys *vulcan.System, path string) {
	if err := checkpoint.WriteFile(path, sys.Checkpoint); err != nil {
		log.Fatalf("checkpoint %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "checkpoint written to %s (t=%ds)\n", path, simSeconds(sys))
}

// renderReport buffers the final report in the requested format.
func renderReport(sys *vulcan.System, jsonOut bool) []byte {
	var b bytes.Buffer
	var err error
	if jsonOut {
		err = sys.Report().WriteJSON(&b)
	} else {
		err = sys.Report().WriteText(&b)
	}
	if err != nil {
		log.Fatal(err)
	}
	return b.Bytes()
}

// renderTo buffers one exporter's output.
func renderTo(write func(io.Writer) error) []byte {
	var b bytes.Buffer
	if err := write(&b); err != nil {
		log.Fatal(err)
	}
	return b.Bytes()
}

// seedPath derives a per-seed artifact path by inserting the seed
// before the extension: trace.json -> trace.seed7.json.
func seedPath(path string, seed uint64) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.seed%d%s", strings.TrimSuffix(path, ext), seed, ext)
}

// writeBytesArtifact writes one pre-rendered artifact to path.
func writeBytesArtifact(path, what string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s written to %s\n", what, path)
}

// buildRecorder returns a telemetry recorder when any -trace-out,
// -metrics-out or -obs-filter flag asks for one, nil otherwise (so the
// simulation pays nothing for telemetry it will not export). An
// -obs-filter naming an unknown event type is rejected with the list of
// known types.
func buildRecorder(traceOut, metricsOut, obsFilter string) (*obs.Recorder, error) {
	if traceOut == "" && metricsOut == "" && obsFilter == "" {
		return nil, nil
	}
	rec := obs.NewRecorder()
	if obsFilter != "" {
		filter, err := obs.ParseFilter(obsFilter)
		if err != nil {
			return nil, fmt.Errorf("-obs-filter: %w", err)
		}
		rec.SetFilter(filter)
	}
	return rec, nil
}

// buildCostProfiler returns a cycle-attribution profiler when any cost
// artifact flag asks for one, nil otherwise — a nil profiler keeps the
// simulation byte-identical to an uninstrumented run.
func buildCostProfiler(cost costFlags) *prof.Profiler {
	if !cost.wanted() {
		return nil
	}
	return prof.New()
}

// buildFaultPlan resolves the three fault flags to at most one plan.
// -faults names a canned profile; -fault-rate builds the canonical
// all-kinds plan at an explicit rate; the two are mutually exclusive.
// -fault-seed re-keys whichever plan was selected and is an error on
// its own (it would silently do nothing).
func buildFaultPlan(profile string, rate float64, seed uint64) (*vulcan.FaultPlan, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("-fault-rate %v out of range [0,1]", rate)
	}
	var plan *vulcan.FaultPlan
	if rate > 0 {
		if profile != "" && profile != "off" {
			return nil, fmt.Errorf("-faults %s and -fault-rate %v are mutually exclusive", profile, rate)
		}
		plan = vulcan.FaultPlanAtRate(rate)
	} else {
		var err error
		if plan, err = vulcan.FaultProfile(profile); err != nil {
			return nil, err
		}
	}
	if seed != 0 {
		if plan == nil {
			return nil, fmt.Errorf("-fault-seed %d without -faults or -fault-rate has no effect", seed)
		}
		plan.Seed = seed
	}
	return plan, nil
}

// runConfigFile executes a JSON-defined scenario. A -faults/-fault-rate
// flag plan overrides the file's own faults block.
func runConfigFile(path string, out outputs, plan *vulcan.FaultPlan, ck ckptFlags) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	parsed, err := scenario.Load(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if parsed.Arrivals != nil {
		// The churn process admits and stops apps at epoch boundaries,
		// which only the serving session drives.
		log.Fatalf("%s: scenarios with an arrivals block run under vulcand; "+
			"replay its journal with vulcansim -replay-journal", path)
	}
	if plan == nil {
		plan = parsed.Faults
	}
	seconds := int(parsed.Duration / sim.Duration(sim.Second))
	if parsed.Fleet != nil {
		if out.trace != "" || out.metrics != "" || out.obsFilter != "" || out.cost.wanted() || out.series != "" || ck.every > 0 {
			log.Fatal("fleet scenarios support -json, -resume and -checkpoint-out only " +
				"(no series, trace/metrics or cost artifacts, no -checkpoint-every)")
		}
		parsed.Faults = plan // flag plan overrides the file's block
		newPol := func() vulcan.Tiering { return figures.NewPolicy(parsed.Policy) }
		runFleet(parsed.Fleet.ClusterConfig(parsed, newPol, sim.Second, 0), seconds, out.json, ck)
		return
	}
	runHost(vulcan.Config{
		Machine: parsed.Machine,
		Apps:    parsed.Apps,
		Seed:    parsed.Seed,
		Faults:  plan,
	}, parsed.Policy, seconds, 1, out, ck)
}
