package mem

import (
	"fmt"

	"vulcan/internal/sim"
)

// Scale is the default capacity scale factor relative to the paper's
// testbed. All default capacities and workload RSS values are divided by
// this factor; the ratios between them (which drive every policy decision)
// are preserved exactly.
const Scale = 64

// Tiers is the complete physical memory of the simulated machine.
type Tiers struct {
	tiers [NumTiers]*Tier
}

// DefaultConfig returns the paper's hardware at 1/Scale capacity:
// fast = 32GB local DDR4 (70ns), slow = 256GB CXL-emulated (162ns).
func DefaultConfig() [NumTiers]TierConfig {
	return [NumTiers]TierConfig{
		TierFast: {
			Name:            "fast",
			CapacityPages:   32 << 30 / PageSize / Scale, // 131072 pages = 512MB
			UnloadedLatency: 70 * sim.Nanosecond,
			BandwidthGBs:    205,
		},
		TierSlow: {
			Name:            "slow",
			CapacityPages:   256 << 30 / PageSize / Scale, // 1Mi pages = 4GB
			UnloadedLatency: 162 * sim.Nanosecond,
			BandwidthGBs:    25, // UPI-limited, per direction
		},
	}
}

// NewTiers builds the tier set from configs.
func NewTiers(cfgs [NumTiers]TierConfig) *Tiers {
	ts := &Tiers{}
	for id, cfg := range cfgs {
		ts.tiers[id] = NewTier(TierID(id), cfg)
	}
	return ts
}

// Tier returns the tier with the given ID.
func (ts *Tiers) Tier(id TierID) *Tier {
	if !id.Valid() {
		panic(fmt.Sprintf("mem: invalid tier id %d", id))
	}
	return ts.tiers[id]
}

// Fast and Slow are convenience accessors for the two default tiers.
func (ts *Tiers) Fast() *Tier { return ts.tiers[TierFast] }

// Slow returns the slow tier.
func (ts *Tiers) Slow() *Tier { return ts.tiers[TierSlow] }

// Alloc allocates a frame in the given tier.
func (ts *Tiers) Alloc(id TierID) (Frame, bool) {
	idx, ok := ts.Tier(id).Alloc()
	if !ok {
		return NilFrame, false
	}
	return Frame{Tier: id, Index: idx}, true
}

// AllocPreferFast allocates from the fast tier, falling back to slow when
// fast is exhausted — the standard first-touch policy of tiered Linux.
func (ts *Tiers) AllocPreferFast() (Frame, bool) {
	if f, ok := ts.Alloc(TierFast); ok {
		return f, true
	}
	return ts.Alloc(TierSlow)
}

// Free releases a frame back to its tier.
func (ts *Tiers) Free(f Frame) {
	if f.IsNil() {
		panic("mem: freeing nil frame")
	}
	ts.Tier(f.Tier).Free(f.Index)
}

// RecordAccess accounts one access to the frame's tier.
func (ts *Tiers) RecordAccess(f Frame, write bool) {
	ts.Tier(f.Tier).RecordAccess(write)
}

// ResetEpoch clears per-epoch counters on all tiers.
func (ts *Tiers) ResetEpoch() {
	for _, t := range ts.tiers {
		t.ResetEpoch()
	}
}

// TotalCapacity returns the total number of frames across tiers.
func (ts *Tiers) TotalCapacity() int {
	n := 0
	for _, t := range ts.tiers {
		n += t.Capacity()
	}
	return n
}

// EpochBandwidthUtil estimates each tier's bandwidth utilization over an
// epoch of the given length, from the epoch access counters (PageSize
// bytes per access is an upper bound; real accesses touch a cache line,
// but the ratio across tiers — which is what the latency ramp consumes —
// is unaffected by the constant).
func (ts *Tiers) EpochBandwidthUtil(epoch sim.Duration) [NumTiers]float64 {
	var out [NumTiers]float64
	if epoch <= 0 {
		return out
	}
	for id, t := range ts.tiers {
		r, w := t.EpochAccesses()
		// 64B per access (one cache line).
		bytes := float64(r+w) * 64
		gbPerS := bytes / epoch.Seconds() / 1e9
		out[id] = gbPerS / t.Config().BandwidthGBs
		if out[id] > 1 {
			out[id] = 1
		}
	}
	return out
}
