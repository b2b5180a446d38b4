package system

import (
	"fmt"

	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/metrics"
	"vulcan/internal/migrate"
	"vulcan/internal/obs/prof"
	"vulcan/internal/pagetable"
	"vulcan/internal/profile"
	"vulcan/internal/sim"
	"vulcan/internal/tlb"
	"vulcan/internal/workload"
)

// App is one admitted application: a simulated process with its own
// address space, threads, TLBs, profiler and migration engine.
type App struct {
	Cfg   workload.AppConfig
	Index int

	Table    *pagetable.Replicated
	TLBs     []*tlb.TLB
	Threads  []*workload.Thread
	Engine   *migrate.Engine
	Async    *migrate.AsyncMigrator
	Profiler profile.Profiler //vulcan:nosnap snapshotted at the system layer via profile.SnapshotProfiler
	// Retry is the bounded-retry queue for transiently-failed
	// migrations; nil on fault-free runs.
	Retry *migrate.Retrier

	sys     *System //vulcan:nosnap construction wiring, bound when the system admits the app
	rng     *sim.RNG
	started bool
	// stopped marks an app evicted by StopApp: its frames are freed and
	// it never runs again, but it keeps its slot (indices, recorder
	// series and fairness history stay stable) and its durable summary
	// statistics for reporting.
	stopped bool
	huge    *HugeSet // nil when THP disabled

	// acct is the app's resolved cost-account set; every field is nil on
	// unprofiled runs and all charges are nil-safe no-ops.
	acct appAccounts //vulcan:nosnap observer-only cost accounting, rebuilt at admission

	// sampleWeight converts one simulated sample access into real
	// operations, so heat is comparable across apps with different
	// intensities. It lags one epoch.
	sampleWeight float64

	// Per-epoch measurements (reset each epoch; checkpoints are cut at
	// epoch boundaries, where these are always zero). epochActualCyc is
	// the measured per-operation cycles across the samples;
	// epochIdealCyc is the same samples under all-fast, TLB-hit
	// placement.
	epochFastSamples float64 //vulcan:nosnap per-epoch scratch, zero at epoch boundaries
	epochSlowSamples float64 //vulcan:nosnap per-epoch scratch, zero at epoch boundaries
	epochActualCyc   float64 //vulcan:nosnap per-epoch scratch, zero at epoch boundaries
	epochIdealCyc    float64 //vulcan:nosnap per-epoch scratch, zero at epoch boundaries
	// epochEventCyc accumulates per-page events (hint faults, leaf links,
	// demand faults) that occur once per page rather than once per
	// operation; they are epoch overhead, not per-op latency.
	epochEventCyc float64 //vulcan:nosnap per-epoch scratch, zero at epoch boundaries
	epochOps      float64
	pendingStall  float64 // sync-migration cycles to charge next epoch

	// Telemetry accumulators (reset or harvested each epoch).
	epochDemandFaults int     //vulcan:nosnap per-epoch scratch, harvested and zeroed by EndEpoch
	epochTHPSplits    int     //vulcan:nosnap per-epoch scratch, harvested and zeroed by EndEpoch
	epochPerf         float64 // last epoch's normalized performance

	// Smoothed / cumulative state.
	fthr       *metrics.EMA
	totalOps   float64
	perfSeries *metrics.Running // normalized perf per epoch

	// Cached placement census, refreshed each epoch.
	fastPages int
	rssMapped int

	// Recorder series names, derived once from Cfg.Name so the per-epoch
	// accounting loop does not rebuild the same strings forever.
	keyFastPages string //vulcan:nosnap derived from Cfg.Name at construction
	keyFTHR      string //vulcan:nosnap derived from Cfg.Name at construction
	keyOps       string //vulcan:nosnap derived from Cfg.Name at construction

	// profileDegraded latches whether injected sample loss starved this
	// epoch's profile below the plan's confidence threshold; resilient
	// policies hold their prior placement instead of reacting to it.
	profileDegraded bool

	// intensityMilli scales the app's workload intensity in thousandths
	// (0 and 1000 both mean the configured intensity, so the default is
	// arithmetically inert). Dynamic systems adjust it at epoch
	// boundaries via System.SetIntensity.
	intensityMilli int
}

// Name returns the configured application name.
func (a *App) Name() string { return a.Cfg.Name }

// CostModel returns the machine's cost model (available once admitted).
func (a *App) CostModel() machine.CostModel { return a.sys.cost }

// Class returns LC or BE.
func (a *App) Class() workload.Class { return a.Cfg.Class }

// Started reports whether the app is currently admitted and running.
func (a *App) Started() bool { return a.started }

// Stopped reports whether the app was evicted by StopApp.
func (a *App) Stopped() bool { return a.stopped }

// FTHR returns the smoothed fast-tier hit ratio (paper Eq. 1–2).
func (a *App) FTHR() float64 { return a.fthr.Value() }

// FastPages returns the app's pages resident in the fast tier (census at
// the last epoch boundary).
func (a *App) FastPages() int { return a.fastPages }

// RSSMapped returns the app's mapped page count.
func (a *App) RSSMapped() int { return a.rssMapped }

// EpochOps returns operations completed in the last finished epoch.
func (a *App) EpochOps() float64 { return a.epochOps }

// TotalOps returns cumulative operations.
func (a *App) TotalOps() float64 { return a.totalOps }

// NormalizedPerf returns the mean of per-epoch performance normalized to
// the app's own all-fast ideal (1.0 = as if its whole working set were in
// fast memory with no migration interference).
func (a *App) NormalizedPerf() *metrics.Running { return a.perfSeries }

// IntensityMilli returns the app's intensity override in thousandths of
// the configured workload intensity (1000 = as configured).
func (a *App) IntensityMilli() int {
	if a.intensityMilli == 0 {
		return 1000
	}
	return a.intensityMilli
}

// ChargeStall debits cycles of synchronous migration stall against the
// app's next epoch (promotions on the critical path, TPP-style).
func (a *App) ChargeStall(cycles float64) {
	if cycles < 0 {
		panic("system: negative stall")
	}
	a.pendingStall += cycles
}

// SampleWeight returns real operations represented by one sample access.
func (a *App) SampleWeight() float64 { return a.sampleWeight }

// ProfileDegraded reports whether the last epoch's profile was starved
// below the fault plan's confidence threshold (always false on
// fault-free runs). Policies use it to degrade gracefully: hold the
// prior placement rather than chase a profile built from lost samples.
func (a *App) ProfileDegraded() bool { return a.profileDegraded }

// WriteProbability estimates the chance that a page is written during
// one migration copy window — the dirty-retry input for transactional
// async migration. It combines the page's profiled write fraction with
// its heat (a write-heavy page that is barely touched rarely dirties a
// copy in flight).
func (a *App) WriteProbability(vp pagetable.VPage) float64 {
	wf := a.Profiler.WriteFraction(vp)
	if wf == 0 {
		return 0
	}
	heat := a.Profiler.Heat(vp)
	intensity := heat / (heat + 1000)
	p := wf * intensity * 1.8
	if p > 0.98 {
		p = 0.98
	}
	return p
}

// appAccounts is one app's use-plane cost-account set (DESIGN.md §13),
// plus the mechanism-plane profiler-harvest account. Resolved once at
// admission so the epoch hot loop only touches pre-bound pointers.
type appAccounts struct {
	prof *prof.Profiler

	// Use plane: these partition the app's per-epoch CPU budget.
	compute     *prof.Account // system/compute: the per-op compute term
	llc         *prof.Account // system/llc: accesses absorbed by the CPU cache
	idle        *prof.Account // system/idle: budget left unspent (open-loop slack)
	stall       *prof.Account // system/stall: migration/profiling stall consumed
	accessFast  *prof.Account // machine/access {tier=fast}: memory term, baseline
	accessSlow  *prof.Account // machine/access {tier=slow}
	spikeFast   *prof.Account // fault/latency-spike {tier=fast}: injected stretch
	spikeSlow   *prof.Account // fault/latency-spike {tier=slow}
	demandFault *prof.Account // machine/demand-fault: first-touch page mapping
	leafLink    *prof.Account // machine/leaf-link: replicated-PTE leaf sharing
	record      *prof.Account // profile/record: in-epoch hint-fault overhead

	// Mechanism plane.
	profEpoch *prof.Account // profile/epoch: end-of-epoch harvest overhead
}

// newAppAccounts resolves one app's account set; a nil profiler yields
// the all-nil (disabled) set.
func newAppAccounts(p *prof.Profiler, app string) appAccounts {
	if p == nil {
		return appAccounts{}
	}
	return appAccounts{
		prof:        p,
		compute:     p.Account("system/compute", app, "", false),
		llc:         p.Account("system/llc", app, "", false),
		idle:        p.Account("system/idle", app, "", false),
		stall:       p.Account("system/stall", app, "", false),
		accessFast:  p.Account("machine/access", app, "fast", false),
		accessSlow:  p.Account("machine/access", app, "slow", false),
		spikeFast:   p.Account("fault/latency-spike", app, "fast", false),
		spikeSlow:   p.Account("fault/latency-spike", app, "slow", false),
		demandFault: p.Account("machine/demand-fault", app, "", false),
		leafLink:    p.Account("machine/leaf-link", app, "", false),
		record:      p.Account("profile/record", app, "", false),
		profEpoch:   p.Account("profile/epoch", app, "", true),
	}
}

// admit builds the app's runtime state and premaps its RSS with
// first-touch placement (the paper's workloads are warmed before
// measurement).
func (a *App) admit(sys *System, placer Placer) {
	a.sys = sys
	a.acct = newAppAccounts(sys.prof, a.Cfg.Name)
	a.Table = pagetable.NewReplicated(a.Cfg.Threads)
	a.TLBs = make([]*tlb.TLB, a.Cfg.Threads)
	for i := range a.TLBs {
		a.TLBs[i] = tlb.New(tlb.DefaultEntries)
	}
	a.Threads = workload.BuildThreads(a.Cfg, a.rng)
	a.fthr = metrics.NewEMA(FTHRAlpha)
	a.perfSeries = &metrics.Running{}
	a.sampleWeight = 1

	mech := sys.Mechanisms()
	engCfg := migrate.Config{
		Cost:              sys.cost,
		Tiers:             sys.tiers,
		Table:             a.Table,
		Cpus:              sys.cores,
		ProcessThreads:    a.Cfg.Threads,
		OptimizedPrep:     mech.OptimizedPrep,
		TargetedShootdown: mech.TargetedShootdown,
		Shadowing:         mech.Shadowing,
		Invalidate:        a.invalidateTLBs,
		PreMigrate:        a.splitTHP,
		Obs:               sys.obs,
		Owner:             a.Cfg.Name,
		Prof:              prof.NewEngineAccounts(sys.prof, a.Cfg.Name),
	}
	if sys.inj != nil {
		// Assigned only when non-nil so the interface field stays truly
		// nil (not a typed nil) on fault-free runs.
		engCfg.Inject = sys.inj
		engCfg.OnBusy = func(mv migrate.Move) { a.Retry.NoteBusy(mv) }
		engCfg.OnIPIDelay = a.noteDelayedAcks
	}
	eng := migrate.NewEngine(engCfg)
	a.Engine = eng
	if sys.inj != nil {
		plan := sys.inj.Plan()
		a.Retry = migrate.NewRetrier(migrate.RetryConfig{
			Engine:      eng,
			Budget:      plan.RetryBudget,
			MaxAttempts: plan.RetryMaxAttempts,
			BackoffBase: plan.RetryBackoffEpochs,
			BackoffCap:  plan.RetryBackoffCap,
		})
	}
	a.Async = migrate.NewAsyncMigrator(migrate.AsyncConfig{
		Engine:     eng,
		MaxRetries: 3,
		BatchPages: 64,
		MaxBacklog: sys.cfg.AsyncMaxBacklog,
		RNG:        a.rng.Fork(),
	})
	if pf, ok := sys.policy.(ProfilerFactory); ok {
		a.Profiler = pf.NewProfiler(a)
	} else {
		a.Profiler = sys.cfg.NewProfiler(a)
	}
	if sys.inj != nil {
		if sf := sys.inj.Profile(a.Cfg.Name); sf != nil {
			a.Profiler = profile.NewFaulty(a.Profiler, sf)
		}
	}

	a.premap(placer)
	if !sys.cfg.DisableTHP {
		a.huge = NewHugeSet(a.rssMapped)
	}
	a.started = true
}

// splitTHP breaks the huge mapping covering a page about to migrate,
// returning the one-time split cost (§3.5).
func (a *App) splitTHP(vp pagetable.VPage) float64 {
	if a.huge.Split(vp) {
		a.epochTHPSplits++
		return a.sys.cost.THPSplitCycles
	}
	return 0
}

// TLBStats aggregates the app's per-thread TLB counters.
func (a *App) TLBStats() tlb.Stats {
	var s tlb.Stats
	for _, t := range a.TLBs {
		s = s.Merge(t.Stats())
	}
	return s
}

// Huge exposes the app's THP state (nil when disabled).
func (a *App) Huge() *HugeSet { return a.huge }

// invalidateTLBs evicts vp from the TLBs of the threads in scope.
func (a *App) invalidateTLBs(vp pagetable.VPage, threads []int) {
	for _, t := range threads {
		if t >= 0 && t < len(a.TLBs) {
			a.TLBs[t].Invalidate(vp)
		}
	}
}

// noteDelayedAcks records an injected IPI-acknowledgment delay on each
// affected thread's TLB counters (the cycle cost is charged by the
// engine; threads is engine scratch and must not be retained).
func (a *App) noteDelayedAcks(threads []int) {
	for _, t := range threads {
		if t >= 0 && t < len(a.TLBs) {
			a.TLBs[t].NoteDelayedAck()
		}
	}
}

// premap faults in the RSS (or the configured fraction of it): private
// slices by their owning thread, the shared region round-robin (true
// sharing emerges as threads touch). Pages beyond the premapped prefix
// demand-fault as the access stream reaches them, growing the resident
// set over time.
func (a *App) premap(placer Placer) {
	sharedPages := int(float64(a.Cfg.RSSPages) * a.Cfg.SharedFraction)
	if sharedPages < 1 {
		sharedPages = 1
	}
	privPer := (a.Cfg.RSSPages - sharedPages) / a.Cfg.Threads
	mapped := sharedPages + privPer*a.Cfg.Threads
	frac := a.Cfg.PremapFraction
	if frac == 0 {
		frac = 1
	}
	mapped = int(float64(mapped) * frac)
	for vp := 0; vp < mapped; vp++ {
		tid := 0
		if vp < sharedPages {
			tid = vp % a.Cfg.Threads
		} else {
			tid = (vp - sharedPages) / privPer
		}
		a.mapNewPage(pagetable.VPage(vp), tid, placer)
	}
	a.rssMapped = a.Table.Mapped()
}

// mapNewPage allocates a frame (policy placement with fast-first
// fallback) and installs the mapping with tid as owner.
func (a *App) mapNewPage(vp pagetable.VPage, tid int, placer Placer) {
	var frame mem.Frame
	var ok bool
	if placer != nil {
		if tier := placer.Place(a.sys, a); tier.Valid() {
			frame, ok = a.sys.tiers.Alloc(tier)
			if !ok && tier == mem.TierFast {
				frame, ok = a.sys.tiers.Alloc(mem.TierSlow)
			} else if !ok {
				frame, ok = a.sys.tiers.Alloc(mem.TierFast)
			}
		}
	}
	if !ok {
		frame, ok = a.sys.tiers.AllocPreferFast()
	}
	if !ok {
		panic(fmt.Sprintf("system: out of physical memory mapping %s page %d",
			a.Cfg.Name, vp))
	}
	if err := a.Table.Map(tid, vp, pagetable.NewPTE(frame, uint8(tid))); err != nil {
		panic(fmt.Sprintf("system: premap collision: %v", err))
	}
}

// runEpochAccesses simulates the app's memory activity for one epoch and
// computes achieved operations. samples is per thread.
//
//vulcan:hotpath
func (a *App) runEpochAccesses(samples int, epochCycles float64, bwUtil [mem.NumTiers]float64) {
	a.epochFastSamples, a.epochSlowSamples = 0, 0
	a.epochActualCyc, a.epochIdealCyc, a.epochEventCyc = 0, 0, 0
	a.epochDemandFaults = 0

	cost := a.sys.cost
	computeCyc := float64(a.Cfg.ComputeNs) * sim.CyclesPerNs
	fastTier := a.sys.tiers.Fast()

	// Cost-attribution accumulators (pure local float adds; charged once
	// at the end of the epoch, so the disabled profiler costs nothing on
	// the per-sample path).
	var llcHits, leafLinks float64
	var accFastCyc, accSlowCyc float64
	var spikeFastCyc, spikeSlowCyc float64
	var recordCyc float64

	for tid, th := range a.Threads {
		tlbT := a.TLBs[tid]
		for s := 0; s < samples; s++ {
			ref := th.Next()
			vp := pagetable.VPage(ref.Page)

			res, ok := a.Table.Touch(tid, vp, ref.Write)
			if !ok {
				// Beyond the premapped region (integer division slack):
				// demand-fault it in.
				a.mapNewPage(vp, tid, a.sys.placer)
				res, _ = a.Table.Touch(tid, vp, ref.Write)
				a.epochEventCyc += cost.MinorFaultCycles
				a.epochDemandFaults++
			}
			if res.LinkedLeaf {
				a.epochEventCyc += cost.LeafLinkCycles
				leafLinks++
			}

			frame := res.PTE.Frame()
			fast := frame.Tier == mem.TierFast

			// Shadow invalidation: a store to a promoted page makes its
			// slow-tier shadow stale (write-protection fault in Nomad).
			if ref.Write && a.Engine.HasShadow(vp) {
				a.Engine.InvalidateShadow(vp)
			}

			actual := computeCyc
			ideal := computeCyc
			if a.rng.Bool(ref.LLCHitProb) {
				// Served by the CPU cache: no memory traffic, invisible
				// to miss-based profilers.
				actual += LLCHitCycles
				ideal += LLCHitCycles
				llcHits++
			} else {
				// A huge mapping translates the whole 2MiB group through
				// one TLB entry.
				tag := vp
				if a.huge.IsHuge(vp) {
					tag = hugeTLBTag(vp)
				}
				hit := tlbT.Access(tag)
				tier := a.sys.tiers.Tier(frame.Tier)
				// An injected latency spike stretches the memory term;
				// the guard keeps fault-free epochs (spike 0 or 1) on
				// the untouched baseline expression. The all-fast ideal
				// is deliberately unfaulted — it is the no-chaos
				// reference the slowdown is measured against.
				memCyc := cost.AccessCycles(tier, hit, bwUtil[frame.Tier])
				if spike := a.sys.latSpike[frame.Tier]; spike > 1 {
					deg := cost.AccessCyclesDegraded(tier, hit, bwUtil[frame.Tier], spike)
					actual += deg
					// The stretch beyond the unfaulted baseline is the
					// injected fault's bill, not the memory tier's.
					if fast {
						spikeFastCyc += deg - memCyc
					} else {
						spikeSlowCyc += deg - memCyc
					}
				} else {
					actual += memCyc
				}
				if fast {
					accFastCyc += memCyc
				} else {
					accSlowCyc += memCyc
				}
				ideal += cost.AccessCycles(fastTier, true, bwUtil[mem.TierFast])
				// A profiling fault (hint-fault poisoning) fires once per
				// poisoned page, not once per operation: epoch overhead.
				rc := a.Profiler.Record(profile.Access{
					VP: vp, Thread: tid, Write: ref.Write, Fast: fast,
				})
				a.epochEventCyc += rc
				recordCyc += rc
				a.sys.tiers.RecordAccess(frame, ref.Write)
				if fast {
					a.epochFastSamples++
				} else {
					a.epochSlowSamples++
				}
			}
			a.epochActualCyc += actual
			a.epochIdealCyc += ideal
		}
	}

	// Convert sampled costs to epoch throughput: each thread has
	// epochCycles of CPU, minus its share of pending migration stalls.
	totalSamples := float64(samples * a.Cfg.Threads)
	avgActual := a.epochActualCyc / totalSamples
	avgIdeal := a.epochIdealCyc / totalSamples
	budget := epochCycles * float64(a.Cfg.Threads)
	stallConsumed := a.pendingStall
	available := budget - a.pendingStall - a.epochEventCyc
	if available < 0 {
		available = 0
	}
	a.pendingStall = 0
	capacityOps := available / avgActual

	if a.Cfg.OpsPerSec > 0 {
		// Open-loop service: arrivals bound throughput; performance is
		// per-operation latency relative to the all-fast ideal, degraded
		// further if the CPU cannot even keep up with arrivals.
		epochSeconds := epochCycles / sim.CyclesPerNs / 1e9
		arrivals := a.Cfg.OpsPerSec * epochSeconds
		if a.intensityMilli != 0 && a.intensityMilli != 1000 {
			// Intensity overrides scale the arrival rate; the branch keeps
			// default runs' float arithmetic untouched bit for bit.
			arrivals *= float64(a.intensityMilli) / 1000
		}
		a.epochOps = arrivals
		if a.epochOps > capacityOps {
			a.epochOps = capacityOps
		}
		perf := avgIdeal / avgActual
		if arrivals > 0 {
			perf *= a.epochOps / arrivals
		}
		a.epochPerf = perf
		a.perfSeries.Add(perf)
	} else {
		// Closed-loop: throughput-bound; performance is achieved ops
		// versus the all-fast ideal over the full epoch.
		a.epochOps = capacityOps
		idealOps := epochCycles * float64(a.Cfg.Threads) / avgIdeal
		a.epochPerf = a.epochOps / idealOps
		a.perfSeries.Add(a.epochPerf)
	}
	a.totalOps += a.epochOps
	a.sampleWeight = a.epochOps / totalSamples

	if a.acct.prof != nil {
		a.chargeEpochCost(epochCost{
			budget: budget, available: available, stall: stallConsumed,
			avgActual: avgActual, computeCyc: computeCyc,
			llcHits: llcHits, leafLinks: leafLinks,
			accFast: accFastCyc, accSlow: accSlowCyc,
			spikeFast: spikeFastCyc, spikeSlow: spikeSlowCyc,
			recordCyc: recordCyc, totalSamples: totalSamples,
		})
	}

	// FTHR sample (Eq. 1) and EMA update (Eq. 2).
	if a.epochFastSamples+a.epochSlowSamples > 0 {
		h := a.epochFastSamples / (a.epochFastSamples + a.epochSlowSamples)
		a.fthr.Update(h)
	}
}

// epochCost carries one epoch's accumulated cost components from the
// access loop to the attribution pass.
type epochCost struct {
	budget, available, stall float64
	avgActual, computeCyc    float64
	llcHits, leafLinks       float64
	accFast, accSlow         float64
	spikeFast, spikeSlow     float64
	recordCyc, totalSamples  float64
}

// chargeEpochCost partitions the epoch's CPU budget across the app's
// use-plane accounts (DESIGN.md §13). Per-sample costs scale by the
// epoch's sample weight (ops per sample), so the per-op components sum
// to the cycles actually spent on operations; event costs and consumed
// stall charge at face value; the remainder is idle slack. The books
// close to the budget up to float association — the figures-level
// coverage test pins the residual below 1%.
func (a *App) chargeEpochCost(ec epochCost) {
	c := &a.acct
	cost := a.sys.cost
	c.prof.AddBudget(ec.budget)
	sw := a.sampleWeight
	c.compute.ChargeN(sw*ec.computeCyc*ec.totalSamples, uint64(ec.totalSamples))
	if ec.llcHits > 0 {
		c.llc.ChargeN(sw*LLCHitCycles*ec.llcHits, uint64(ec.llcHits))
	}
	if a.epochFastSamples > 0 {
		c.accessFast.ChargeN(sw*ec.accFast, uint64(a.epochFastSamples))
	}
	if a.epochSlowSamples > 0 {
		c.accessSlow.ChargeN(sw*ec.accSlow, uint64(a.epochSlowSamples))
	}
	if ec.spikeFast > 0 {
		c.spikeFast.Charge(sw * ec.spikeFast)
	}
	if ec.spikeSlow > 0 {
		c.spikeSlow.Charge(sw * ec.spikeSlow)
	}
	if a.epochDemandFaults > 0 {
		c.demandFault.ChargeN(float64(a.epochDemandFaults)*cost.MinorFaultCycles,
			uint64(a.epochDemandFaults))
	}
	if ec.leafLinks > 0 {
		c.leafLink.ChargeN(ec.leafLinks*cost.LeafLinkCycles, uint64(ec.leafLinks))
	}
	if ec.recordCyc > 0 {
		c.record.ChargeN(ec.recordCyc, uint64(a.epochFastSamples+a.epochSlowSamples))
	}
	if ec.stall > 0 {
		c.stall.Charge(ec.stall)
	}
	if idle := ec.available - a.epochOps*ec.avgActual; idle > 0 {
		c.idle.Charge(idle)
	}
}

// refreshCensus reads tier placement from the page table's maintained
// counters — an O(1) read where the original implementation walked every
// present PTE per app per epoch.
func (a *App) refreshCensus() {
	a.fastPages = a.Table.FastMapped()
	a.rssMapped = a.Table.Mapped()
}

// LLCHitCycles is the cost of an access absorbed by the on-chip cache.
const LLCHitCycles = 40

// FTHRAlpha is the paper's EMA weight for FTHR smoothing (§3.3, α=0.8).
const FTHRAlpha = 0.8
