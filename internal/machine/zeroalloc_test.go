package machine

import (
	"testing"

	"vulcan/internal/mem"
)

// The cost model is evaluated on every simulated access and every
// migration batch, so its //vulcan:hotpath methods must be pure
// arithmetic: no allocation, ever, not just in steady state.

func TestAccessCyclesZeroAlloc(t *testing.T) {
	c := DefaultCostModel()
	tiers := mem.NewTiers(mem.DefaultConfig())
	fast, slow := tiers.Fast(), tiers.Slow()

	if allocs := testing.AllocsPerRun(200, func() {
		c.AccessCycles(fast, true, 0.3)
		c.AccessCycles(slow, false, 0.9)
		c.AccessCyclesDegraded(slow, false, 0.9, 1.5)
	}); allocs != 0 {
		t.Errorf("AccessCycles allocated %.0f objects/op, want 0", allocs)
	}
}

func TestMigrationCostsZeroAlloc(t *testing.T) {
	c := DefaultCostModel()
	if allocs := testing.AllocsPerRun(200, func() {
		c.PrepCycles(32, false)
		c.PrepCycles(32, true)
		c.ShootdownCycles(512, 31)
		c.CopyCycles(512)
		b := c.MigrationBreakdown(512, 32, MigrationOptions{OptimizedPrep: true, Targets: 4})
		_ = b.Total()
	}); allocs != 0 {
		t.Errorf("migration cost path allocated %.0f objects/op, want 0", allocs)
	}
}
