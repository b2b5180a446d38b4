package policy

import (
	"testing"

	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// colo builds a small LC+BE co-location under the given policy: a modest
// open-loop Zipfian service next to a high-intensity streaming scanner.
func colo(t *testing.T, pol system.Tiering, fastPages int) *system.System {
	t.Helper()
	mcfg := machine.DefaultConfig()
	mcfg.Cores = 8
	mcfg.Tiers[mem.TierFast].CapacityPages = fastPages
	mcfg.Tiers[mem.TierSlow].CapacityPages = 1 << 15
	return system.New(system.Config{
		Machine: mcfg,
		Apps: []workload.AppConfig{
			{
				Name: "lc", Class: workload.LC, Threads: 2, RSSPages: 3000,
				SharedFraction: 0.9, ComputeNs: 100 * sim.Nanosecond,
				OpsPerSec: 1e5,
				NewGen: func(p int, rng *sim.RNG) workload.Generator {
					return workload.NewKeyValue(p, workload.KeyValueParams{}, rng)
				},
			},
			{
				Name: "be", Class: workload.BE, Threads: 2, RSSPages: 6000,
				SharedFraction: 0.9, ComputeNs: 25 * sim.Nanosecond,
				NewGen: func(p int, rng *sim.RNG) workload.Generator {
					return workload.NewMLTrain(p, rng)
				},
			},
		},
		Policy:           pol,
		EpochLength:      20 * sim.Millisecond,
		SamplesPerThread: 800,
		Seed:             5,
		// Policy tests isolate placement logic from THP TLB-coverage
		// effects (at micro scale a handful of splits erase all huge
		// mappings, drowning the placement signal).
		DisableTHP: true,
	})
}

func TestTPPPromotesAndStalls(t *testing.T) {
	pol := NewTPP()
	sys := colo(t, pol, 1024)
	before := func() float64 {
		sys.RunEpoch()
		return sys.App("lc").NormalizedPerf().Mean()
	}()
	_ = before
	for i := 0; i < 30; i++ {
		sys.RunEpoch()
	}
	lc := sys.App("lc")
	// Hint faults must have found and promoted hot pages.
	if lc.FTHR() <= 0 {
		t.Fatal("TPP never promoted anything for the LC app")
	}
	// The hint-fault profiler is in use.
	if lc.Profiler.Name() != "hintfault" {
		t.Fatalf("TPP profiler = %q", lc.Profiler.Name())
	}
}

func TestTPPWatermarkDemotion(t *testing.T) {
	pol := NewTPP()
	sys := colo(t, pol, 512) // small fast tier forces reclaim
	for i := 0; i < 20; i++ {
		sys.RunEpoch()
	}
	// Under sustained pressure kswapd must be actively reclaiming: pages
	// flow down even as promotions refill the tier.
	demoted := uint64(0)
	for _, a := range sys.StartedApps() {
		st := a.Async.Stats()
		demoted += st.Moved + st.Remapped
	}
	if demoted == 0 {
		t.Fatal("TPP reclaim never demoted a page despite a full fast tier")
	}
}

func TestTPPPlacement(t *testing.T) {
	pol := NewTPP()
	sys := colo(t, pol, 512)
	sys.RunEpoch()
	// First-touch under TPP prefers the fast tier until watermark.
	if sys.Tiers().Fast().Used() == 0 {
		t.Fatal("TPP placement never used the fast tier")
	}
}

func TestMemtisUsesPEBSAndMigrates(t *testing.T) {
	pol := NewMemtis()
	sys := colo(t, pol, 1024)
	for i := 0; i < 30; i++ {
		sys.RunEpoch()
	}
	lc := sys.App("lc")
	if lc.Profiler.Name() != "pebs" {
		t.Fatalf("Memtis profiler = %q", lc.Profiler.Name())
	}
	moved := lc.Async.Stats().Moved + sys.App("be").Async.Stats().Moved
	if moved == 0 {
		t.Fatal("Memtis never migrated a page")
	}
}

func TestMemtisColdPageDilemma(t *testing.T) {
	// Under Memtis's absolute-frequency ranking, the streaming BE app
	// squeezes the LC app's fast share far below its even split; Vulcan's
	// premise (Observation #1) must reproduce at micro scale.
	sys := colo(t, NewMemtis(), 1024)
	for i := 0; i < 60; i++ {
		sys.RunEpoch()
	}
	lc, be := sys.App("lc"), sys.App("be")
	if lc.FastPages() >= be.FastPages() {
		t.Fatalf("no dilemma: LC fast=%d >= BE fast=%d", lc.FastPages(), be.FastPages())
	}
	if lc.FastPages() > 1024/3 {
		t.Fatalf("LC kept %d fast pages, expected starvation below even share", lc.FastPages())
	}
}

func TestNomadSheddingIsAsyncWithShadowing(t *testing.T) {
	pol := NewNomad()
	sys := colo(t, pol, 1024)
	for i := 0; i < 30; i++ {
		sys.RunEpoch()
	}
	if !sys.Mechanisms().Shadowing {
		t.Fatal("Nomad must declare shadowing")
	}
	lc := sys.App("lc")
	if lc.Profiler.Name() != "hintfault" {
		t.Fatalf("Nomad profiler = %q", lc.Profiler.Name())
	}
	st := lc.Engine.Shadows()
	if st.Created == 0 {
		t.Fatal("Nomad never created a shadow copy")
	}
}

func TestPolicyCharacters(t *testing.T) {
	// Each baseline's signature behaviour at micro scale. First-touch
	// hands the whole fast tier to the LC app (admitted first).
	run := func(pol system.Tiering) (lc, be float64) {
		sys := colo(t, pol, 1024)
		for i := 0; i < 40; i++ {
			sys.RunEpoch()
		}
		return sys.App("lc").NormalizedPerf().Mean(),
			sys.App("be").NormalizedPerf().Mean()
	}
	staticLC, staticBE := run(system.NullPolicy{})

	// Memtis's capacity ranking reassigns the tier to the high-intensity
	// scanner: BE improves, LC pays (the cold-page dilemma).
	memtisLC, memtisBE := run(NewMemtis())
	if memtisBE <= staticBE {
		t.Errorf("memtis BE %v not better than static %v", memtisBE, staticBE)
	}
	if memtisLC >= staticLC {
		t.Errorf("memtis LC %v did not degrade from static %v (no dilemma)", memtisLC, staticLC)
	}

	// TPP and Nomad promote on recency per app with no global ranking:
	// the incumbent LC keeps its hot set resident (grab-and-hold), so LC
	// must not degrade materially versus static.
	for name, pol := range map[string]system.Tiering{
		"tpp":   NewTPP(),
		"nomad": NewNomad(),
	} {
		lc, _ := run(pol)
		if lc < staticLC*0.95 {
			t.Errorf("%s LC perf %v degraded below static %v", name, lc, staticLC)
		}
	}
}

func TestMergedRankingWeightsByIntensity(t *testing.T) {
	sys := colo(t, NewMemtis(), 1024)
	for i := 0; i < 5; i++ {
		sys.RunEpoch()
	}
	ranking := new(RankBuf).MergedRanking(sys)
	if len(ranking) == 0 {
		t.Fatal("empty merged ranking")
	}
	// Descending heat.
	for i := 1; i < len(ranking); i++ {
		if ranking[i-1].Heat < ranking[i].Heat {
			t.Fatal("ranking not sorted by descending heat")
		}
	}
	// The high-intensity BE app must dominate the head of the ranking.
	beAtHead := 0
	for _, gp := range ranking[:min(len(ranking), 100)] {
		if gp.App.Name() == "be" {
			beAtHead++
		}
	}
	if beAtHead < 60 {
		t.Fatalf("BE pages at ranking head = %d/100, expected dominance", beAtHead)
	}
}

func TestColdestFastPagesOrdering(t *testing.T) {
	sys := colo(t, system.NullPolicy{}, 1024)
	sys.RunEpoch()
	lc := sys.App("lc")
	cold := new(RankBuf).ColdestFastPages(lc, 10, nil)
	if len(cold) != 10 {
		t.Fatalf("got %d victims", len(cold))
	}
	prev := -1.0
	for _, vp := range cold {
		h := lc.Profiler.Heat(vp)
		if h < prev {
			t.Fatal("victims not in ascending heat order")
		}
		prev = h
		p, ok := lc.Table.Lookup(vp)
		if !ok || p.Frame().Tier != mem.TierFast {
			t.Fatal("victim not fast-resident")
		}
	}
	// Keep-set is honored.
	keep := map[pagetable.VPage]bool{cold[0]: true}
	cold2 := new(RankBuf).ColdestFastPages(lc, 10, keep)
	for _, vp := range cold2 {
		if vp == cold[0] {
			t.Fatal("kept page selected as victim")
		}
	}
}

func TestGlobalColdestSkipsKeepAndOrders(t *testing.T) {
	sys := colo(t, system.NullPolicy{}, 1024)
	sys.RunEpoch()
	victims := new(RankBuf).GlobalColdestFastPages(sys, 50, nil)
	if len(victims) != 50 {
		t.Fatalf("got %d global victims", len(victims))
	}
	for _, v := range victims {
		p, ok := v.App.Table.Lookup(v.VP)
		if !ok || p.Frame().Tier != mem.TierFast {
			t.Fatal("global victim not fast-resident")
		}
	}
	if new(RankBuf).GlobalColdestFastPages(sys, 0, nil) != nil {
		t.Fatal("n=0 returned victims")
	}
}

func TestMoveBuilders(t *testing.T) {
	vps := []pagetable.VPage{1, 2, 3}
	for i, mv := range new(RankBuf).PromoteMoves(vps) {
		if mv.VP != vps[i] || mv.To != mem.TierFast {
			t.Fatal("PromoteMoves wrong")
		}
	}
}

func TestSlowPagesWithHeatLimit(t *testing.T) {
	sys := colo(t, system.NullPolicy{}, 64) // tiny fast: most pages slow
	for i := 0; i < 3; i++ {
		sys.RunEpoch()
	}
	be := sys.App("be")
	pages := new(RankBuf).SlowPagesWithHeat(be, 5)
	if len(pages) > 5 {
		t.Fatalf("limit ignored: %d", len(pages))
	}
	for _, vp := range pages {
		p, _ := be.Table.Lookup(vp)
		if p.Frame().Tier != mem.TierSlow {
			t.Fatal("candidate not slow-resident")
		}
		if be.Profiler.Heat(vp) <= 0 {
			t.Fatal("candidate has no heat")
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
