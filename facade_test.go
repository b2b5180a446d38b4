package vulcan_test

import (
	"bytes"
	"testing"

	"vulcan"
	"vulcan/internal/sim"
)

// TestFacadeQuickstart exercises the public API end to end exactly as the
// README's quick-start does.
func TestFacadeQuickstart(t *testing.T) {
	machine := vulcan.DefaultMachine()
	machine.Tiers[vulcan.TierFast].CapacityPages /= 32
	machine.Tiers[vulcan.TierSlow].CapacityPages /= 32

	mc := vulcan.Memcached()
	mc.RSSPages /= 32
	ll := vulcan.Liblinear()
	ll.RSSPages /= 32

	sys := vulcan.NewSystem(vulcan.Config{
		Machine: machine,
		Apps:    []vulcan.AppConfig{mc, ll},
		Policy:  vulcan.NewVulcan(vulcan.VulcanOptions{}),
		Seed:    2,
	})
	sys.Run(20 * vulcan.Second)

	if len(sys.StartedApps()) != 2 {
		t.Fatalf("started apps = %d", len(sys.StartedApps()))
	}
	for _, app := range sys.StartedApps() {
		if app.NormalizedPerf().Mean() <= 0 {
			t.Fatalf("%s has no performance measurement", app.Name())
		}
		if app.RSSMapped() == 0 {
			t.Fatalf("%s mapped nothing", app.Name())
		}
	}
	if cfi := sys.CFI().Index(); cfi <= 0 || cfi > 1 {
		t.Fatalf("CFI = %v", cfi)
	}
	if rep := sys.Audit(); !rep.Ok() {
		t.Fatalf("audit failed: %v", rep.Errors)
	}
}

// TestFacadePolicyConstructors ensures every exported policy constructor
// yields a usable Tiering.
func TestFacadePolicyConstructors(t *testing.T) {
	policies := []vulcan.Tiering{
		vulcan.NewStatic(),
		vulcan.NewTPP(),
		vulcan.NewMemtis(),
		vulcan.NewNomad(),
		vulcan.NewVulcan(vulcan.VulcanOptions{}),
	}
	names := map[string]bool{}
	for _, p := range policies {
		if p.Name() == "" {
			t.Fatal("policy without a name")
		}
		names[p.Name()] = true
	}
	if len(names) != 5 {
		t.Fatalf("duplicate policy names: %v", names)
	}
}

// TestFacadeHotPageBench exercises the exported Figure 4 microbenchmark.
func TestFacadeHotPageBench(t *testing.T) {
	cfg := vulcan.DefaultHotPageConfig()
	cfg.ReadFraction = 1.0
	s := vulcan.RunHotPageSync(cfg)
	a := vulcan.RunHotPageAsync(cfg)
	if s.Ops == 0 || a.Ops == 0 {
		t.Fatal("microbenchmark produced no operations")
	}
	if a.OpsPerSec <= s.OpsPerSec {
		t.Fatal("read-only async should beat sync")
	}
}

// TestFacadeWorkloadPresets checks the Table 2 presets are exposed with
// their paper footprints.
func TestFacadeWorkloadPresets(t *testing.T) {
	for _, tc := range []struct {
		cfg vulcan.AppConfig
		gb  int
	}{
		{vulcan.Memcached(), 51},
		{vulcan.PageRank(), 42},
		{vulcan.Liblinear(), 69},
	} {
		if got := tc.cfg.RSSPages * 4096 * 64 >> 30; got != tc.gb {
			t.Errorf("%s paper footprint = %d GB, want %d", tc.cfg.Name, got, tc.gb)
		}
	}
}

// TestFacadeJainIndex sanity-checks the exported fairness metric.
func TestFacadeJainIndex(t *testing.T) {
	if j := vulcan.JainIndex([]float64{1, 1, 1}); j != 1 {
		t.Fatalf("Jain of equal = %v", j)
	}
}

// TestFacadeTraceRoundTrip exercises the exported trace surface.
func TestFacadeTraceRoundTrip(t *testing.T) {
	mc := vulcan.Memcached()
	gen := mc.NewGen(1000, sim.NewRNG(1))
	tr := vulcan.CaptureTrace(gen, 5000)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := vulcan.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := vulcan.NewTraceReplayer(back)
	for i := 0; i < 100; i++ {
		if p := rep.Next().Page; p < 0 || p >= 1000 {
			t.Fatalf("replayed page %d", p)
		}
	}
}

// TestFacadeCostModel checks the exported calibration entry point.
func TestFacadeCostModel(t *testing.T) {
	c := vulcan.DefaultCostModel()
	if c.PrepCycles(32, false) <= c.PrepCycles(2, false) {
		t.Fatal("preparation cost not growing with cores")
	}
	if c.PrepCycles(32, true) != c.PrepCycles(2, true) {
		t.Fatal("optimized preparation not constant")
	}
}
