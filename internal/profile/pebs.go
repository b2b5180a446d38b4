package profile

import (
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
)

// PEBS is a Processor Event-Based Sampling profiler: it observes a
// pseudo-random 1-in-SampleRate subset of accesses (LLC-miss-style
// events) and weights each sample by the rate to stay unbiased. Like the
// real mechanism it is cheap per access but suffers false negatives for
// large, lightly-touched footprints (§2.1: "high false negatives at the
// terabyte scale").
type PEBS struct {
	heat *heatStore
	rng  *sim.RNG
	// SampleRate is the sampling period: one in SampleRate accesses is
	// observed.
	sampleRate   int
	sampleWeight float64
	samples      uint64
}

// NewPEBSWithDecay additionally selects the per-epoch heat aging factor.
// Systems with long cooling periods (Memtis halves counts only every few
// migration rounds) retain heat across many epochs, which is what lets a
// streaming workload's entire footprint register as warm.
func NewPEBSWithDecay(sampleRate int, decay float64, seed uint64) *PEBS {
	if sampleRate <= 0 {
		panic("profile: PEBS sample rate must be positive")
	}
	return &PEBS{
		heat:         newHeatStore(decay),
		rng:          sim.NewRNG(seed),
		sampleRate:   sampleRate,
		sampleWeight: float64(sampleRate),
	}
}

// Name implements Profiler.
func (p *PEBS) Name() string { return "pebs" }

// Record samples the access with probability 1/sampleRate. PEBS imposes
// no cost on the sampled thread (the PMU does the work), so it always
// returns 0 extra cycles.
//
//vulcan:hotpath
func (p *PEBS) Record(a Access) float64 {
	if p.rng.Intn(p.sampleRate) != 0 {
		return 0
	}
	p.samples++
	p.heat.record(a.VP, a.Write, p.sampleWeight)
	return 0
}

// EndEpoch ages the heat store. Draining the PEBS buffer costs the
// profiling daemon a small constant per collected sample.
//
//vulcan:hotpath
func (p *PEBS) EndEpoch() EpochReport {
	rep := EpochReport{OverheadCycles: float64(p.samples) * 40}
	p.samples = 0
	p.heat.endEpoch()
	rep.Tracked = p.heat.tracked()
	return rep
}

// Heat implements Profiler.
func (p *PEBS) Heat(vp pagetable.VPage) float64 { return p.heat.heat(vp) }

// WriteFraction implements Profiler.
func (p *PEBS) WriteFraction(vp pagetable.VPage) float64 { return p.heat.writeFraction(vp) }

// HeatSnapshot implements Profiler.
func (p *PEBS) HeatSnapshot() []PageHeat { return p.heat.snapshot() }

// HeatPages implements Profiler.
func (p *PEBS) HeatPages() []PageHeat { return p.heat.pages() }

// Tracked implements Profiler.
func (p *PEBS) Tracked() int { return p.heat.tracked() }
