package mem

import (
	"testing"
	"testing/quick"

	"vulcan/internal/sim"
)

func testTier(capacity int) *Tier {
	return NewTier(TierFast, TierConfig{
		Name:            "fast",
		CapacityPages:   capacity,
		UnloadedLatency: 70 * sim.Nanosecond,
		BandwidthGBs:    205,
	})
}

func TestTierAllocExhaustion(t *testing.T) {
	tr := testTier(4)
	seen := map[uint32]bool{}
	for i := 0; i < 4; i++ {
		idx, ok := tr.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed with capacity 4", i)
		}
		if seen[idx] {
			t.Fatalf("frame %d allocated twice", idx)
		}
		seen[idx] = true
	}
	if _, ok := tr.Alloc(); ok {
		t.Fatal("alloc succeeded past capacity")
	}
	if tr.Used() != 4 || tr.FreePages() != 0 {
		t.Fatalf("used=%d free=%d, want 4/0", tr.Used(), tr.FreePages())
	}
}

func TestTierAllocLowIndicesFirst(t *testing.T) {
	tr := testTier(8)
	idx, _ := tr.Alloc()
	if idx != 0 {
		t.Fatalf("first alloc = %d, want 0", idx)
	}
	idx, _ = tr.Alloc()
	if idx != 1 {
		t.Fatalf("second alloc = %d, want 1", idx)
	}
}

func TestTierFreeReuse(t *testing.T) {
	tr := testTier(2)
	a, _ := tr.Alloc()
	b, _ := tr.Alloc()
	tr.Free(a)
	c, ok := tr.Alloc()
	if !ok || c != a {
		t.Fatalf("realloc got %d,%v want %d,true", c, ok, a)
	}
	tr.Free(b)
	tr.Free(c)
	if tr.Used() != 0 {
		t.Fatalf("used=%d after freeing all", tr.Used())
	}
}

func TestTierFreePanics(t *testing.T) {
	for name, fn := range map[string]func(*Tier){
		"out-of-range": func(tr *Tier) { tr.Free(99) },
		"underflow":    func(tr *Tier) { tr.Free(0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s free did not panic", name)
				}
			}()
			fn(testTier(4))
		})
	}
}

func TestTierZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity tier did not panic")
		}
	}()
	testTier(0)
}

func TestTierUtilization(t *testing.T) {
	tr := testTier(10)
	for i := 0; i < 5; i++ {
		tr.Alloc()
	}
	if u := tr.Utilization(); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestTierAccessCounters(t *testing.T) {
	tr := testTier(4)
	tr.RecordAccess(false)
	tr.RecordAccess(false)
	tr.RecordAccess(true)
	r, w := tr.EpochAccesses()
	if r != 2 || w != 1 {
		t.Fatalf("epoch = %d/%d, want 2/1", r, w)
	}
	tr.ResetEpoch()
	r, w = tr.EpochAccesses()
	if r != 0 || w != 0 {
		t.Fatalf("epoch after reset = %d/%d", r, w)
	}
	r, w = tr.TotalAccesses()
	if r != 2 || w != 1 {
		t.Fatalf("totals = %d/%d, want 2/1", r, w)
	}
}

func TestLoadedLatencyRamp(t *testing.T) {
	tr := testTier(4)
	idle := tr.LoadedLatency(0)
	if idle != 70*sim.Nanosecond {
		t.Fatalf("idle latency = %v, want 70ns", idle)
	}
	half := tr.LoadedLatency(0.5)
	full := tr.LoadedLatency(1)
	if !(idle < half && half < full) {
		t.Fatalf("latency not monotone: %v %v %v", idle, half, full)
	}
	if full != 3*idle {
		t.Fatalf("saturated latency = %v, want 3x idle %v", full, 3*idle)
	}
	// Out-of-range inputs clamp rather than explode.
	if tr.LoadedLatency(-1) != idle {
		t.Fatal("negative utilization not clamped")
	}
	if tr.LoadedLatency(5) != full {
		t.Fatal("over-unity utilization not clamped")
	}
}

func TestTierAllocFreeInvariant(t *testing.T) {
	// Property: after any interleaving of allocs and frees,
	// used + free == capacity and no frame is handed out twice.
	check := func(seed uint64, opsRaw []bool) bool {
		const capacity = 32
		tr := testTier(capacity)
		live := map[uint32]bool{}
		var order []uint32
		for _, alloc := range opsRaw {
			if alloc {
				idx, ok := tr.Alloc()
				if ok {
					if live[idx] {
						return false // double allocation
					}
					live[idx] = true
					order = append(order, idx)
				} else if len(live) != capacity {
					return false // spurious exhaustion
				}
			} else if len(order) > 0 {
				idx := order[len(order)-1]
				order = order[:len(order)-1]
				delete(live, idx)
				tr.Free(idx)
			}
		}
		return tr.Used()+tr.FreePages() == capacity && tr.Used() == len(live)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTierIDString(t *testing.T) {
	if TierFast.String() != "fast" || TierSlow.String() != "slow" {
		t.Fatal("tier names wrong")
	}
	if TierID(9).String() != "tier(9)" {
		t.Fatalf("unknown tier string = %q", TierID(9).String())
	}
	if !TierFast.Valid() || TierID(7).Valid() {
		t.Fatal("validity check wrong")
	}
}
