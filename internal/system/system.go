package system

import (
	"fmt"

	"vulcan/internal/fault"
	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/metrics"
	"vulcan/internal/obs"
	"vulcan/internal/obs/prof"
	"vulcan/internal/profile"
	"vulcan/internal/sim"
	"vulcan/internal/workload"
)

// Config assembles one co-location experiment.
type Config struct {
	Machine machine.Config
	Apps    []workload.AppConfig
	Policy  Tiering

	// EpochLength is the policy/measurement period (default 1s — the
	// cadence of the paper's migration daemons).
	EpochLength sim.Duration
	// SamplesPerThread is the number of representative accesses simulated
	// per thread per epoch (default 400).
	SamplesPerThread int
	// NewProfiler builds each app's profiler when the policy does not
	// implement ProfilerFactory (default: Vulcan's hybrid).
	NewProfiler func(app *App) profile.Profiler

	// DisableTHP turns off transparent huge pages. By default every
	// app's RSS is mapped as 2MiB huge pages for TLB coverage and split
	// into base pages when migration touches a group (§3.5).
	DisableTHP bool

	// Obs receives structured telemetry from every layer of the run
	// (see internal/obs). nil — the default — disables telemetry at the
	// cost of a nil check per emission site. If the sink can bind a
	// clock (obs.Recorder), the system binds it to the machine clock so
	// all event timestamps are simulated time.
	Obs obs.Sink

	// Prof, when non-nil, arms the cycle-attribution profiler
	// (internal/obs/prof): every layer posts its simulated cycle costs
	// to the account tree, and the system flushes per-epoch deltas at
	// each epoch boundary. The profiler is an observer only — charging
	// never feeds back into simulation arithmetic, so an armed run's
	// figures, trace and metrics are byte-identical to a disarmed one.
	// Profiler state is not checkpointed: a resumed run's cost profile
	// covers the post-resume epochs only.
	Prof *prof.Profiler

	// AllowDynamic permits runtime workload turnover: the system may be
	// built with zero apps and grown with AddApp / shrunk with StopApp
	// (the fleet placement layer drives both). Static experiments leave
	// it off and keep the configured-up-front contract: New rejects an
	// empty app list and the run's population is fixed.
	AllowDynamic bool

	// Faults arms the deterministic chaos layer (internal/fault): the
	// plan is compiled against Seed into an injector consulted by the
	// migration engines, profilers, latency/bandwidth models and the
	// epoch loop. nil — or a plan whose rules can never fire — leaves
	// every hook on the exact pre-fault arithmetic, so a faultless run
	// is byte-identical to one built without the subsystem.
	Faults *fault.Plan

	// AsyncMaxBacklog bounds each app's async migration queue (0 =
	// unbounded, the batch default). Long-running daemons set it so an
	// admission burst cannot grow a departed tenant's backlog without
	// limit; the queue sheds and displaces deterministically (see
	// migrate.AsyncConfig.MaxBacklog).
	AsyncMaxBacklog int

	// IncrementalRescore lets a policy implementing Rescorer re-evaluate
	// only the dirty app set on admissions, departures and intensity
	// changes, instead of waiting for the next whole-epoch recompute.
	// Off by default: batch runs keep the classic end-of-epoch-only
	// cadence and their byte-identical artifacts.
	IncrementalRescore bool

	Seed uint64
}

func (c *Config) fillDefaults() {
	if c.Machine.Cores == 0 {
		c.Machine = machine.DefaultConfig()
	}
	if c.Policy == nil {
		c.Policy = NullPolicy{}
	}
	if c.EpochLength == 0 {
		c.EpochLength = 1 * sim.Second
	}
	if c.SamplesPerThread == 0 {
		c.SamplesPerThread = 400
	}
	if c.NewProfiler == nil {
		c.NewProfiler = func(app *App) profile.Profiler {
			return profile.NewHybrid(app.Table, 8, app.rng.Uint64())
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// System is the live co-location runtime.
type System struct {
	cfg    Config
	m      *machine.Machine
	apps   []*App
	policy Tiering
	placer Placer

	cores int
	rng   *sim.RNG

	recorder *metrics.Recorder
	cfi      *metrics.CFITracker
	obs      obs.Sink
	prof     *prof.Profiler //vulcan:nosnap observer-only cost accounting, rebuilt per run
	epoch    int

	// admitOrder records app indices in admission order. Policies keep
	// per-workload state in registration order, so a checkpoint must
	// replay admissions in this order, not index order (staggered starts
	// make the two differ).
	admitOrder []int

	// stopLog records StopApp calls in order, each tagged with how many
	// admissions preceded it. A checkpoint replays admissions and stops
	// interleaved in this chronology, so the replayed resident set never
	// exceeds what the original run held at the same point (a stop that
	// freed capacity for a later admission must free it during replay
	// too). Empty on every non-dynamic run.
	stopLog []stopEvent

	// bwUtil carries the previous epoch's measured bandwidth utilization
	// into the next epoch's latency model.
	bwUtil [mem.NumTiers]float64

	// Fault-injection state (all zero/nil when Config.Faults is off).
	// latSpike and bwFault are the current epoch's windows: latSpike
	// multiplies access latency when > 1, bwFault shrinks a tier's
	// sustainable bandwidth when in (0,1). pressure holds fast-tier
	// frames seized by an injected memory-pressure burst, released at
	// the next epoch boundary.
	inj      *fault.Injector
	latSpike [mem.NumTiers]float64
	bwFault  [mem.NumTiers]float64
	pressure []mem.Frame

	// tiers and cost are aliases of the machine's fields for brevity.
	tiers *mem.Tiers
	cost  machine.CostModel

	// startedScratch backs StartedApps; the filter is rebuilt on every
	// call so policies can hold the returned slice through an epoch (the
	// started set only changes at epoch boundaries, and reentrant calls
	// rewrite identical contents in place).
	startedScratch []*App //vulcan:nosnap derived view, rebuilt by every StartedApps call
}

// New validates cfg and builds the system; apps are admitted lazily at
// their StartAt times during RunEpoch.
func New(cfg Config) *System {
	cfg.fillDefaults()
	if len(cfg.Apps) == 0 && !cfg.AllowDynamic {
		panic("system: no applications configured")
	}
	// A dynamic system may start empty; the tracker grows with AddApp.
	cfi := new(metrics.CFITracker)
	if len(cfg.Apps) > 0 {
		cfi = metrics.NewCFITracker(len(cfg.Apps))
	}
	m := machine.New(cfg.Machine)
	s := &System{
		cfg:      cfg,
		m:        m,
		policy:   cfg.Policy,
		cores:    cfg.Machine.Cores,
		rng:      sim.NewRNG(cfg.Seed),
		recorder: metrics.NewRecorder(m.Clock),
		cfi:      cfi,
		obs:      cfg.Obs,
		prof:     cfg.Prof,
		tiers:    m.Tiers,
		cost:     cfg.Machine.Cost,
	}
	if b, ok := cfg.Obs.(interface{ BindClock(*sim.Clock) }); ok {
		b.BindClock(m.Clock)
	}
	s.prof.BindClock(m.Clock)
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			panic(fmt.Sprintf("system: %v", err))
		}
		// nil when no rule can fire, keeping every hook on the fast path.
		s.inj = fault.NewInjector(cfg.Faults, cfg.Seed, cfg.Obs)
	}
	if p, ok := cfg.Policy.(Placer); ok {
		s.placer = p
	}
	totalThreads := 0
	for i, ac := range cfg.Apps {
		ac.Validate()
		totalThreads += ac.Threads
		s.apps = append(s.apps, &App{
			Cfg: ac, Index: i, rng: s.rng.Fork(),
			keyFastPages: ac.Name + ".fast_pages",
			keyFTHR:      ac.Name + ".fthr",
			keyOps:       ac.Name + ".ops",
		})
	}
	// A dynamic system's population turns over: the static sum may count
	// instances that never coexist (one stopped before the next arrived),
	// so core capacity is enforced per AddApp against live threads
	// instead.
	if totalThreads > cfg.Machine.Cores && !cfg.AllowDynamic {
		panic(fmt.Sprintf("system: %d app threads exceed %d cores (the paper pins one thread per core)",
			totalThreads, cfg.Machine.Cores))
	}
	return s
}

// Apps returns every configured app (started or not).
func (s *System) Apps() []*App { return s.apps }

// StartedApps returns the currently admitted apps.
func (s *System) StartedApps() []*App {
	out := s.startedScratch[:0]
	for _, a := range s.apps {
		if a.started {
			out = append(out, a)
		}
	}
	s.startedScratch = out
	return out
}

// App returns the app with the given name, or nil.
func (s *System) App(name string) *App {
	for _, a := range s.apps {
		if a.Cfg.Name == name {
			return a
		}
	}
	return nil
}

// Tiers returns the machine's memory tiers.
func (s *System) Tiers() *mem.Tiers { return s.tiers }

// Cost returns the machine's cost model.
func (s *System) Cost() machine.CostModel { return s.cost }

// Cores returns the machine's core count.
func (s *System) Cores() int { return s.cores }

// Now returns the current simulated time.
func (s *System) Now() sim.Time { return s.m.Now() }

// Epoch returns the number of completed epochs.
func (s *System) Epoch() int { return s.epoch }

// EpochLength returns the configured epoch duration.
func (s *System) EpochLength() sim.Duration { return s.cfg.EpochLength }

// EpochCycles returns the per-thread CPU cycles available in one epoch.
func (s *System) EpochCycles() float64 {
	return float64(s.cfg.EpochLength) * sim.CyclesPerNs
}

// Recorder returns the time-series recorder.
func (s *System) Recorder() *metrics.Recorder { return s.recorder }

// CFI returns the FTHR-weighted cumulative fairness tracker (Eq. 4).
func (s *System) CFI() *metrics.CFITracker { return s.cfi }

// Policy returns the active tiering policy.
func (s *System) Policy() Tiering { return s.policy }

// Obs returns the telemetry sink (nil when telemetry is disabled).
// Policies emit their decision/adaptation events through it.
func (s *System) Obs() obs.Sink { return s.obs }

// RunEpoch advances the simulation by one epoch: admission, access
// simulation, profiler harvest, policy migrations, accounting.
func (s *System) RunEpoch() {
	now := s.m.Now()

	// Admission. Stopped apps stay out: their lifecycle is over, not
	// pending.
	var admitted []*App
	for _, a := range s.apps {
		if !a.started && !a.stopped && a.Cfg.StartAt <= now {
			a.admit(s, s.placer)
			a.refreshCensus()
			s.admitOrder = append(s.admitOrder, a.Index)
			s.policy.AppStarted(s, a)
			if obs.Enabled(s.obs, obs.EvAppStart) {
				s.obs.Event(obs.E(obs.EvAppStart, a.Cfg.Name, "", 0,
					obs.F("rss_pages", float64(a.rssMapped)),
					obs.F("threads", float64(a.Cfg.Threads))))
			}
			admitted = append(admitted, a)
		}
	}
	s.rescore(admitted)

	// Open this epoch's fault windows (latency spikes, bandwidth
	// degradation, memory-pressure bursts) before any access or
	// migration sees the tiers.
	if s.inj != nil {
		s.applyFaultWindows()
	}

	// Access simulation against last epoch's bandwidth picture.
	s.tiers.ResetEpoch()
	epochCycles := s.EpochCycles()
	for _, a := range s.apps {
		if a.started {
			samples := s.cfg.SamplesPerThread
			if a.intensityMilli != 0 && a.intensityMilli != 1000 {
				// Intensity overrides scale the per-thread sample count in
				// integer arithmetic, so default runs are untouched.
				samples = samples * a.intensityMilli / 1000
				if samples < 1 {
					samples = 1
				}
			}
			a.runEpochAccesses(samples, epochCycles, s.bwUtil)
			if a.epochDemandFaults > 0 && obs.Enabled(s.obs, obs.EvDemandFault) {
				s.obs.Event(obs.E(obs.EvDemandFault, a.Cfg.Name, "faults", 0,
					obs.F("count", float64(a.epochDemandFaults)),
					obs.F("cycles", float64(a.epochDemandFaults)*s.cost.MinorFaultCycles)))
			}
		}
	}

	// Profiler harvest; overhead lands on the app's next epoch.
	for _, a := range s.apps {
		if a.started {
			rep := a.Profiler.EndEpoch()
			a.ChargeStall(rep.OverheadCycles)
			// Mechanism-plane view of the harvest cost; the same cycles
			// surface on the use plane as next epoch's system/stall.
			a.acct.profEpoch.Charge(rep.OverheadCycles)
			s.checkProfileConfidence(a)
			if obs.Enabled(s.obs, obs.EvProfileEpoch) {
				s.obs.Event(obs.E(obs.EvProfileEpoch, a.Cfg.Name, "profile",
					sim.CyclesToDuration(rep.OverheadCycles),
					obs.F("overhead_cycles", rep.OverheadCycles),
					obs.F("scanned_pages", float64(rep.ScannedPages)),
					obs.F("faults", float64(rep.Faults)),
					obs.F("tracked", float64(rep.Tracked))))
			}
			if rep.Faults > 0 && obs.Enabled(s.obs, obs.EvHintFault) {
				s.obs.Event(obs.E(obs.EvHintFault, a.Cfg.Name, "faults", 0,
					obs.F("count", float64(rep.Faults))))
			}
		}
	}

	// Policy decisions and migrations.
	s.policy.EndEpoch(s)

	// Bounded retry of transiently-failed migrations (chaos runs only):
	// the retry batch is background migration work, charged like any
	// other stall against the app's next epoch.
	for _, a := range s.apps {
		if a.started && a.Retry != nil {
			ep := a.Retry.RunEpoch(uint64(s.epoch))
			a.ChargeStall(ep.Cycles)
		}
	}

	// Post-migration accounting.
	var weighted [mem.NumTiers]float64
	for _, a := range s.apps {
		if !a.started {
			continue
		}
		a.refreshCensus()
		s.cfi.Observe(a.Index, float64(a.fastPages), a.FTHR())
		s.recorder.Record(a.keyFastPages, float64(a.fastPages))
		s.recorder.Record(a.keyFTHR, a.FTHR())
		s.recorder.Record(a.keyOps, a.epochOps)
		weighted[mem.TierFast] += a.epochFastSamples * a.sampleWeight
		weighted[mem.TierSlow] += a.epochSlowSamples * a.sampleWeight
		s.observeApp(a)
	}
	s.recorder.Record("fast_tier_used", float64(s.tiers.Fast().Used()))

	// Bandwidth utilization for the next epoch's latency ramp: weighted
	// accesses × one cache line over the epoch. An injected degradation
	// window shrinks the tier's sustainable bandwidth, so the same
	// traffic rides higher on the latency ramp.
	seconds := s.cfg.EpochLength.Seconds()
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		gbs := weighted[t] * 64 / seconds / 1e9
		bw := s.tiers.Tier(t).Config().BandwidthGBs
		if f := s.bwFault[t]; f > 0 && f < 1 {
			bw *= f
		}
		u := gbs / bw
		if u > 1 {
			u = 1
		}
		s.bwUtil[t] = u
	}

	s.observeEpoch()

	s.m.Clock.Advance(s.cfg.EpochLength)
	s.epoch++
}

// observeApp publishes one started app's end-of-epoch telemetry: THP
// split events plus the per-app gauge/histogram refresh. No-ops at zero
// cost when no sink (or no registry-bearing sink) is configured.
func (s *System) observeApp(a *App) {
	if a.epochTHPSplits > 0 {
		if obs.Enabled(s.obs, obs.EvTHPSplit) {
			s.obs.Event(obs.E(obs.EvTHPSplit, a.Cfg.Name, "thp", 0,
				obs.F("count", float64(a.epochTHPSplits)),
				obs.F("cycles", float64(a.epochTHPSplits)*s.cost.THPSplitCycles)))
		}
		a.epochTHPSplits = 0
	}
	reg := obs.RegistryOf(s.obs)
	if reg == nil {
		return
	}
	app := obs.App(a.Cfg.Name)
	reg.Gauge("fast_pages", app).Set(float64(a.fastPages))
	reg.Gauge("rss_pages", app).Set(float64(a.rssMapped))
	reg.Gauge("fthr", app).Set(a.FTHR())
	reg.Gauge("ops", app).Set(a.epochOps)
	ts := a.TLBStats()
	reg.Gauge("tlb_hit_rate", app).Set(ts.HitRate())
	reg.Gauge("tlb_invalidations", app).Set(float64(ts.Invalidations))
	if a.huge != nil {
		reg.Gauge("thp_groups", app).Set(float64(a.huge.HugeGroups()))
		reg.Gauge("thp_splits", app).Set(float64(a.huge.Splits()))
	}
	as := a.Async.Stats()
	reg.Gauge("async_moved", app).Set(float64(as.Moved))
	reg.Gauge("async_aborted", app).Set(float64(as.Aborted))
	reg.Histogram("epoch_perf", 0, 1.5, 60, app).Add(a.epochPerf)
	// Resilience gauges exist only on chaos runs, so fault-free metric
	// CSVs keep their pre-fault row set byte-for-byte.
	if a.Retry != nil {
		rs := a.Retry.Stats()
		reg.Gauge("retry_pending", app).Set(float64(a.Retry.Pending()))
		reg.Gauge("retry_recovered", app).Set(float64(rs.Recovered))
		reg.Gauge("retry_gaveup", app).Set(float64(rs.GaveUp))
	}
	if fp, ok := a.Profiler.(*profile.Faulty); ok {
		reg.Gauge("profile_confidence", app).Set(fp.Confidence())
	}
	if ts.DelayedAcks > 0 {
		reg.Gauge("tlb_delayed_acks", app).Set(float64(ts.DelayedAcks))
	}
}

// observeEpoch emits the machine-scope epoch summary event, refreshes
// machine gauges, and flushes the epoch's metric samples (the sink is
// flushed before the clock advances so samples carry this epoch's
// boundary timestamp).
func (s *System) observeEpoch() {
	if obs.Enabled(s.obs, obs.EvEpoch) {
		s.obs.Event(obs.E(obs.EvEpoch, "", "epoch", s.cfg.EpochLength,
			obs.F("epoch", float64(s.epoch)),
			obs.F("fast_used_pages", float64(s.tiers.Fast().Used())),
			obs.F("bw_fast", s.bwUtil[mem.TierFast]),
			obs.F("bw_slow", s.bwUtil[mem.TierSlow])))
	}
	if reg := obs.RegistryOf(s.obs); reg != nil {
		reg.Gauge("fast_tier_used").Set(float64(s.tiers.Fast().Used()))
		reg.Gauge("bw_util", obs.Tier("fast")).Set(s.bwUtil[mem.TierFast])
		reg.Gauge("bw_util", obs.Tier("slow")).Set(s.bwUtil[mem.TierSlow])
	}
	// The cost profiler closes its books first so a streaming sink sees
	// this epoch's counter rows at its flush boundary; the batch
	// exporters are insensitive to the order.
	s.prof.FlushEpoch(s.epoch)
	if f, ok := s.obs.(interface{ FlushEpoch(int) }); ok {
		f.FlushEpoch(s.epoch)
	}
}

// applyFaultWindows opens the epoch's injected substrate windows:
// per-tier latency spikes and bandwidth degradation, plus fast-tier
// frames seized by an external memory-pressure burst. Last epoch's
// seized frames are released first, so a burst lasts exactly its
// window.
func (s *System) applyFaultWindows() {
	for _, f := range s.pressure {
		s.tiers.Free(f)
	}
	s.pressure = s.pressure[:0]

	epoch := uint64(s.epoch)
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		s.latSpike[t] = s.inj.LatencyFactor(t, epoch)
		s.bwFault[t] = s.inj.BandwidthFactor(t, epoch)
	}
	fastCap := s.tiers.Fast().Config().CapacityPages
	want := s.inj.PressurePages(epoch, fastCap)
	for i := 0; i < want; i++ {
		f, ok := s.tiers.Alloc(mem.TierFast)
		if !ok {
			break // tier already full: the burst seizes what it can
		}
		s.pressure = append(s.pressure, f)
	}
}

// checkProfileConfidence latches whether the app's profile is too
// starved (injected sample loss) to act on this epoch, and emits the
// degradation event. No-op on fault-free runs, where profilers are
// never wrapped.
func (s *System) checkProfileConfidence(a *App) {
	fp, ok := a.Profiler.(*profile.Faulty)
	if !ok {
		return
	}
	conf := fp.Confidence()
	a.profileDegraded = conf < s.inj.Plan().DegradeBelow
	if a.profileDegraded && obs.Enabled(s.obs, obs.EvProfileDegraded) {
		overflow := 0.0
		if fp.Overflowed() {
			overflow = 1
		}
		s.obs.Event(obs.E(obs.EvProfileDegraded, a.Cfg.Name, "profile", 0,
			obs.F("confidence", conf),
			obs.F("dropped", float64(fp.Dropped())),
			obs.F("overflow", overflow)))
	}
}

// FaultInjector returns the compiled fault injector, or nil when the
// run is fault-free.
func (s *System) FaultInjector() *fault.Injector { return s.inj }

// PressureHeld returns how many fast-tier frames are currently seized
// by an injected memory-pressure burst.
func (s *System) PressureHeld() int { return len(s.pressure) }

// Run advances the simulation for d of simulated time.
func (s *System) Run(d sim.Duration) {
	deadline := s.m.Now() + sim.Time(d)
	for s.m.Now() < deadline {
		s.RunEpoch()
	}
}

// BandwidthUtil returns the previous epoch's per-tier bandwidth
// utilization estimate.
func (s *System) BandwidthUtil() [mem.NumTiers]float64 { return s.bwUtil }

// Mechanisms returns the optimization set in effect: the policy's
// declaration.
func (s *System) Mechanisms() Mechanisms { return s.policy.Mechanisms() }
