// Package fault is the simulator's deterministic chaos layer: a
// declarative fault Plan (what can go wrong, how often, how badly, to
// whom) compiled into an Injector whose every decision is a pure
// function of a seed-derived hash — no wall clock, no global math/rand,
// no draw-order coupling between components. Faults model the substrate
// misbehavior real tiered-memory deployments exhibit (pinned-page
// migration failures, PEBS sample loss and ring-buffer overflow,
// bandwidth contention windows, latency spikes, delayed shootdown IPI
// acknowledgments, external memory-pressure bursts) so that policies
// can be stressed — and the resilience mechanisms in internal/migrate
// (bounded retry with capped backoff) and internal/profile (confidence
// downgrade) exercised — without giving up the byte-identical replay
// contract of DESIGN.md §7.
//
// Determinism: the Injector draws nothing from a stateful stream shared
// with the simulation. Each decision hashes (plan seed ⊕ scenario seed,
// fault kind, scope, key₁, key₂) through a SplitMix64 finalizer, where
// the keys are simulation-intrinsic coordinates (virtual page, epoch
// index, batch sequence number). Two consequences: adding or removing
// one fault kind cannot perturb another kind's schedule, and the
// schedule is identical at any lab worker count because no draw order
// exists to disturb.
package fault

import (
	"fmt"

	"vulcan/internal/mem"
)

// Kind enumerates the injectable fault classes, one per substrate layer
// the evaluation leans on (DESIGN.md §10 taxonomy).
type Kind uint8

// The fault taxonomy.
const (
	// MigrationFail makes a page's migration fail transiently
	// (pinned page / -EBUSY): the page stays put and may be retried.
	// Rate = per-page per-batch probability.
	MigrationFail Kind = iota
	// PEBSDrop loses individual profiler samples (PMU throttling).
	// Rate = per-sample probability.
	PEBSDrop
	// PEBSOverflow models a profiler ring-buffer overflow epoch: a
	// window in which Severity of the samples are additionally lost.
	// Rate = per-epoch probability; Severity = extra drop fraction.
	PEBSOverflow
	// BandwidthDegrade opens a one-epoch window in which a tier's
	// sustainable bandwidth shrinks. Rate = per-epoch probability;
	// Severity = fractional bandwidth loss (0.4 → 60% of nominal).
	BandwidthDegrade
	// LatencySpike inflates a tier's access latency for one epoch.
	// Rate = per-epoch probability; Severity = extra latency fraction
	// (0.5 → 1.5× unloaded-latency term).
	LatencySpike
	// IPIDelay delays TLB-shootdown IPI acknowledgments for one
	// migration batch. Rate = per-batch probability; Severity = extra
	// cycles charged per IPI target.
	IPIDelay
	// MemPressure seizes a fraction of the fast tier for one epoch (an
	// unmanaged co-tenant bursting). Rate = per-epoch probability;
	// Severity = fraction of fast-tier capacity seized.
	MemPressure

	// NumKinds bounds the enum.
	NumKinds
)

var kindNames = [NumKinds]string{
	MigrationFail:    "migration-fail",
	PEBSDrop:         "pebs-drop",
	PEBSOverflow:     "pebs-overflow",
	BandwidthDegrade: "bandwidth-degrade",
	LatencySpike:     "latency-spike",
	IPIDelay:         "ipi-delay",
	MemPressure:      "mem-pressure",
}

// String returns the kind's stable wire name (used in fault.inject
// event notes and the DESIGN.md taxonomy table).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// tierScoped reports whether the kind's Scope names a tier rather than
// an application.
func (k Kind) tierScoped() bool {
	return k == BandwidthDegrade || k == LatencySpike
}

// Rule arms one fault kind at one rate/severity for one scope.
type Rule struct {
	Kind Kind
	// Scope restricts the rule: an application name for app-scoped
	// kinds, a tier name ("fast"/"slow") for BandwidthDegrade and
	// LatencySpike. "" applies to every app or tier. An exact scope
	// match takes precedence over a wildcard rule of the same kind.
	Scope string
	// Rate is the per-opportunity probability in [0,1]; the opportunity
	// unit is kind-specific (page, sample, epoch, batch — see Kind).
	Rate float64
	// Severity is the kind-specific magnitude (see Kind); kinds that
	// need none ignore it.
	Severity float64
}

// Plan is the declarative fault-injection configuration for one run,
// plus the knobs of the resilience mechanisms that answer the faults.
// The zero value of every knob selects the documented default.
type Plan struct {
	// Seed decorrelates the fault schedule from the scenario seed; the
	// injector mixes both, so the same plan produces different
	// schedules for different scenario seeds (and -fault-seed varies
	// the schedule without touching workload randomness).
	Seed uint64
	// Rules arm the fault kinds. An empty rule set injects nothing.
	Rules []Rule

	// RetryBudget caps transiently-failed-page retry attempts per app
	// per epoch (default 128 pages).
	RetryBudget int
	// RetryMaxAttempts bounds retries per page before the migration is
	// abandoned (default 4).
	RetryMaxAttempts int
	// RetryBackoffEpochs is the initial retry delay in epochs; each
	// failed retry doubles it up to RetryBackoffCap (defaults 1 and 8).
	RetryBackoffEpochs int
	RetryBackoffCap    int

	// DegradeBelow is the profiler-confidence threshold under which a
	// policy should hold its prior placement instead of reacting to a
	// starved profile (default 0.7).
	DegradeBelow float64
}

// FillDefaults resolves zero-valued knobs to their documented defaults.
func (p *Plan) FillDefaults() {
	if p.RetryBudget == 0 {
		p.RetryBudget = 128
	}
	if p.RetryMaxAttempts == 0 {
		p.RetryMaxAttempts = 4
	}
	if p.RetryBackoffEpochs == 0 {
		p.RetryBackoffEpochs = 1
	}
	if p.RetryBackoffCap == 0 {
		p.RetryBackoffCap = 8
	}
	if p.DegradeBelow == 0 {
		p.DegradeBelow = 0.7
	}
}

// Validate rejects malformed plans: unknown kinds, rates outside [0,1],
// negative severities, tier scopes that name no tier, and nonsensical
// resilience knobs.
func (p *Plan) Validate() error {
	for i, r := range p.Rules {
		if r.Kind >= NumKinds {
			return fmt.Errorf("fault: rule %d: unknown kind %d", i, r.Kind)
		}
		if r.Rate < 0 || r.Rate > 1 {
			return fmt.Errorf("fault: rule %d (%s): rate %v outside [0,1]", i, r.Kind, r.Rate)
		}
		if r.Severity < 0 {
			return fmt.Errorf("fault: rule %d (%s): negative severity %v", i, r.Kind, r.Severity)
		}
		if r.Kind.tierScoped() && r.Scope != "" && r.Scope != mem.TierFast.String() && r.Scope != mem.TierSlow.String() {
			return fmt.Errorf("fault: rule %d (%s): scope %q is not a tier (want %q, %q or empty)",
				i, r.Kind, r.Scope, mem.TierFast, mem.TierSlow)
		}
		switch r.Kind {
		case BandwidthDegrade, PEBSOverflow, MemPressure:
			if r.Severity > 1 {
				return fmt.Errorf("fault: rule %d (%s): severity %v outside [0,1]", i, r.Kind, r.Severity)
			}
		}
	}
	if p.RetryBudget < 0 || p.RetryMaxAttempts < 0 || p.RetryBackoffEpochs < 0 || p.RetryBackoffCap < 0 {
		return fmt.Errorf("fault: negative retry knob")
	}
	if p.DegradeBelow < 0 || p.DegradeBelow > 1 {
		return fmt.Errorf("fault: DegradeBelow %v outside [0,1]", p.DegradeBelow)
	}
	return nil
}

// Armed reports whether any rule can ever fire.
func (p *Plan) Armed() bool {
	if p == nil {
		return false
	}
	for _, r := range p.Rules {
		if r.Rate > 0 {
			return true
		}
	}
	return false
}
