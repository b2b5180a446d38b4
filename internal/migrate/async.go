package migrate

import (
	"vulcan/internal/dense"
	"vulcan/internal/mem"
	"vulcan/internal/obs"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
)

// AsyncConfig parameterizes an AsyncMigrator.
type AsyncConfig struct {
	Engine *Engine
	// MaxRetries bounds transactional copy retries for a page dirtied
	// mid-copy before the migration is aborted (Nomad semantics).
	MaxRetries int
	// BatchPages is the largest batch submitted per engine call; batching
	// amortizes preparation and trap costs exactly as the kernel does.
	BatchPages int
	// MaxBacklog bounds the pending queue (0 = unbounded, the batch
	// default). A full queue applies deterministic backpressure:
	// promotions are shed (dropped — the page stays slow and can be
	// re-nominated next epoch), while demotions displace the oldest
	// pending promotion, because capacity-relief work must never be the
	// work a full queue throws away.
	MaxBacklog int
	// RNG drives the dirtied-during-copy draws.
	RNG *sim.RNG
}

// AsyncStats accumulates lifetime counters for an AsyncMigrator.
type AsyncStats struct {
	Enqueued   uint64
	Moved      uint64
	Remapped   uint64
	Retries    uint64
	Aborted    uint64 // gave up after MaxRetries
	Failed     uint64 // not mapped / destination full
	Shed       uint64 // dropped by a full bounded queue
	Displaced  uint64 // pending promotions evicted to admit demotions
	CyclesUsed float64
}

// EpochResult reports one budgeted migration epoch.
type EpochResult struct {
	Moved     int
	Remapped  int
	Retries   int
	Aborted   int
	Failed    int
	Shed      int // moves dropped by the bounded queue since the last epoch
	Displaced int // pending promotions evicted for demotions since the last epoch
	Cycles    float64
	Backlog   int // moves still pending after the epoch
}

// AsyncMigrator executes migrations off the critical path: callers
// enqueue moves, and each simulation epoch grants a cycle budget
// (migration-thread CPU time) that the migrator spends in batches.
// Pages written during their copy window are retried transactionally and
// eventually aborted, reproducing asynchronous copying's weakness on
// write-intensive pages (Observation #4).
type AsyncMigrator struct {
	cfg     AsyncConfig
	pending []Move
	queued  dense.Map // vp -> index+1 in pending (for dedup)
	stats   AsyncStats
	// epochShed/epochDisplaced tally this epoch's backpressure decisions
	// for the migrate.shed event; RunEpoch harvests and zeroes them.
	epochShed      int
	epochDisplaced int
	// commitBuf is the per-batch commit list, reused across epochs so a
	// steady-state RunEpoch allocates no Move batches.
	commitBuf []Move //vulcan:nosnap per-batch scratch, truncated before each use
}

// NewAsyncMigrator builds an async migrator around an engine.
func NewAsyncMigrator(cfg AsyncConfig) *AsyncMigrator {
	if cfg.Engine == nil {
		panic("migrate: AsyncConfig requires an Engine")
	}
	if cfg.MaxRetries < 0 {
		panic("migrate: negative MaxRetries")
	}
	if cfg.BatchPages <= 0 {
		cfg.BatchPages = 32
	}
	if cfg.RNG == nil {
		cfg.RNG = sim.NewRNG(0)
	}
	return &AsyncMigrator{
		cfg: cfg,
		// Backlogs routinely reach hundreds of moves; starting with room
		// for a few batches skips the early append-growth ladder that
		// otherwise repeats for every migrator instance in a sweep.
		pending: make([]Move, 0, 8*cfg.BatchPages),
	}
}

// Enqueue adds moves to the backlog. A later request for a page already
// pending replaces its destination rather than duplicating the entry.
func (a *AsyncMigrator) Enqueue(moves ...Move) {
	for _, mv := range moves {
		a.EnqueueOne(mv)
	}
}

// EnqueueOne adds a single move to the backlog with the same dedup
// semantics as Enqueue but without the variadic slice allocation —
// policies enqueueing page-at-a-time sit on the per-access hot path.
//
//vulcan:hotpath
func (a *AsyncMigrator) EnqueueOne(mv Move) {
	if w := a.queued.Get(uint64(mv.VP)); w != 0 {
		a.pending[w-1].To = mv.To
		return
	}
	if a.cfg.MaxBacklog > 0 && len(a.pending) >= a.cfg.MaxBacklog {
		if !a.admitUnderPressure(mv) {
			return
		}
	}
	a.queued.Set(uint64(mv.VP), uint64(len(a.pending))+1)
	a.pending = append(a.pending, mv)
	a.stats.Enqueued++
}

// admitUnderPressure applies the bounded queue's shed/defer policy to a
// new move arriving at a full backlog, reporting whether room was made.
// Promotions are shed outright. A demotion displaces the oldest pending
// promotion; if the backlog is all demotions, the newcomer is shed too.
// Cold path: the hot enqueue only ever branches on the length check.
func (a *AsyncMigrator) admitUnderPressure(mv Move) bool {
	if mv.To == mem.TierFast {
		a.stats.Shed++
		a.epochShed++
		return false
	}
	victim := -1
	for i, p := range a.pending {
		if p.To == mem.TierFast {
			victim = i
			break
		}
	}
	if victim < 0 {
		a.stats.Shed++
		a.epochShed++
		return false
	}
	a.queued.Delete(uint64(a.pending[victim].VP))
	copy(a.pending[victim:], a.pending[victim+1:])
	a.pending = a.pending[:len(a.pending)-1]
	for i := victim; i < len(a.pending); i++ {
		a.queued.Set(uint64(a.pending[i].VP), uint64(i)+1)
	}
	a.stats.Displaced++
	a.epochDisplaced++
	return true
}

// Backlog returns the number of pending moves.
func (a *AsyncMigrator) Backlog() int { return len(a.pending) }

// Stats returns cumulative counters.
func (a *AsyncMigrator) Stats() AsyncStats { return a.stats }

// RunEpoch spends up to budgetCycles of migration-thread time working
// through the backlog. writeProb, when non-nil, gives each page's
// probability of being written during one copy window; dirtied copies are
// retried up to MaxRetries times (each retry costs another page copy)
// before the page's migration is aborted for this epoch.
func (a *AsyncMigrator) RunEpoch(budgetCycles float64, writeProb func(vp pagetable.VPage) float64) EpochResult {
	var res EpochResult
	for len(a.pending) > 0 && res.Cycles < budgetCycles {
		n := a.cfg.BatchPages
		if n > len(a.pending) {
			n = len(a.pending)
		}
		batch := a.pending[:n]

		// Transactional filter: each copy attempt is invalidated with the
		// page's write probability; after MaxRetries invalidated retries
		// the migration aborts and every attempted copy was wasted work.
		commit := a.commitBuf[:0]
		extraCopies := 0
		for _, mv := range batch {
			p := 0.0
			if writeProb != nil {
				p = writeProb(mv.VP)
			}
			attempts, clean := 0, false
			for attempts <= a.cfg.MaxRetries {
				attempts++
				if !a.cfg.RNG.Bool(p) {
					clean = true
					break
				}
			}
			retries := attempts - 1
			res.Retries += retries
			a.stats.Retries += uint64(retries)
			if !clean {
				// Aborted: all attempts were wasted copies.
				extraCopies += attempts
				res.Aborted++
				a.stats.Aborted++
				continue
			}
			// Committed: the final clean copy is charged by MigrateSync;
			// only the invalidated attempts are extra.
			extraCopies += retries
			commit = append(commit, mv)
		}

		a.commitBuf = commit // retain any growth for the next batch
		eng := a.cfg.Engine
		eng.ctx = ctxAsync
		r := eng.MigrateSync(commit)
		eng.ctx = ctxSync
		extraCyc := eng.cfg.Cost.CopyCycles(extraCopies)
		if pa := eng.cfg.Prof; pa != nil && extraCopies > 0 {
			// Invalidated copy attempts are wasted async copy work; they
			// never pass through MigrateSync, so post them here.
			pa.Async.Copy.ChargeN(extraCyc, uint64(extraCopies))
		}
		cycles := r.Cycles() + extraCyc
		res.Cycles += cycles
		a.stats.CyclesUsed += cycles
		res.Moved += r.Moved
		res.Remapped += r.Remapped
		res.Failed += r.Failed
		a.stats.Moved += uint64(r.Moved)
		a.stats.Remapped += uint64(r.Remapped)
		a.stats.Failed += uint64(r.Failed)

		for _, mv := range batch {
			a.queued.Delete(uint64(mv.VP))
		}
		// Compact the consumed prefix in place so the backlog's backing
		// array is pooled across epochs instead of re-allocated as the
		// window slides.
		a.pending = a.pending[:copy(a.pending, a.pending[n:])]
	}
	// Reindex the dedup map after consuming a prefix.
	for i, mv := range a.pending {
		a.queued.Set(uint64(mv.VP), uint64(i)+1)
	}
	res.Backlog = len(a.pending)
	res.Shed = a.epochShed
	res.Displaced = a.epochDisplaced
	a.epochShed, a.epochDisplaced = 0, 0
	eng := a.cfg.Engine
	if res.Cycles > 0 && obs.Enabled(eng.cfg.Obs, obs.EvMigrateAsync) {
		eng.cfg.Obs.Event(obs.E(obs.EvMigrateAsync, eng.cfg.Owner, "migrate",
			sim.CyclesToDuration(res.Cycles),
			obs.F("moved", float64(res.Moved)),
			obs.F("remapped", float64(res.Remapped)),
			obs.F("retries", float64(res.Retries)),
			obs.F("aborted", float64(res.Aborted)),
			obs.F("failed", float64(res.Failed)),
			obs.F("cycles", res.Cycles),
			obs.F("backlog", float64(res.Backlog))))
	}
	if (res.Shed > 0 || res.Displaced > 0) && obs.Enabled(eng.cfg.Obs, obs.EvMigrateShed) {
		eng.cfg.Obs.Event(obs.E(obs.EvMigrateShed, eng.cfg.Owner, "migrate", 0,
			obs.F("shed", float64(res.Shed)),
			obs.F("displaced", float64(res.Displaced)),
			obs.F("max_backlog", float64(a.cfg.MaxBacklog)),
			obs.F("backlog", float64(res.Backlog))))
	}
	return res
}
