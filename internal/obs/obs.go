// Package obs is the simulator's deterministic telemetry substrate: a
// structured event bus keyed to the sim clock, a registry of named
// counters/gauges/histograms with per-app and per-tier labels, and
// exporters for Chrome trace-event JSON (Perfetto-loadable) and
// per-epoch CSV time series.
//
// Everything in this package honors the determinism contract (DESIGN.md
// §7): event timestamps come exclusively from sim.Clock, exporters never
// iterate maps without sorting keys first, and two runs of the same
// seeded scenario produce byte-identical trace and CSV output
// (enforced by TestReplayByteIdentical and `make obs-demo`).
//
// Instrumented layers hold an obs.Sink and guard each emission with
// Enabled, so a nil sink — the default everywhere — costs a nil check
// and nothing else.
package obs

import (
	"fmt"
	"sort"
	"strings"

	"vulcan/internal/sim"
)

// EventType enumerates the event taxonomy. The set mirrors the cost
// phenomena the paper argues about: migration decisions and phases, TLB
// shootdown scope, profiling epochs, queue/QoS adaptation, faults, and
// THP state changes.
type EventType uint8

// The event taxonomy (DESIGN.md §8).
const (
	// EvEpoch marks one completed system epoch (machine scope).
	EvEpoch EventType = iota
	// EvAppStart records an application's admission.
	EvAppStart
	// EvDecision is a policy-level migration decision (what to move).
	EvDecision
	// EvMigrateSync is one synchronous engine batch, with the five-phase
	// cycle breakdown (prep/trap/unmap/tlb/copy/remap) as fields.
	EvMigrateSync
	// EvMigrateAsync summarizes one budgeted async-migration epoch.
	EvMigrateAsync
	// EvShootdown is one TLB shootdown: IPI fan-out and cycle cost.
	EvShootdown
	// EvProfileEpoch is a profiler epoch boundary: overhead, pages
	// scanned, faults taken, pages tracked.
	EvProfileEpoch
	// EvQueueAdapt reports a promotion-queue rebuild: per-class depths
	// and MLFQ escalations.
	EvQueueAdapt
	// EvQoSAdapt reports QoS controller activity: CBFRP partitions,
	// credit transfers, probe-shrink moves, Colloid suspension.
	EvQoSAdapt
	// EvDemandFault aggregates an app's demand faults over one epoch.
	EvDemandFault
	// EvHintFault aggregates an app's profiling hint faults over one
	// epoch.
	EvHintFault
	// EvTHPSplit aggregates huge-page splits forced by migration over
	// one epoch.
	EvTHPSplit
	// EvTHPCollapse is reserved for huge-page collapse; the current
	// model only splits, but the taxonomy names both directions.
	EvTHPCollapse
	// EvFaultInject is one injected fault from internal/fault: the note
	// names the fault kind, fields carry kind/severity and the
	// kind-specific coordinates (page, epoch, batch).
	EvFaultInject
	// EvMigrateRetry aggregates one app's bounded-retry pass over an
	// epoch: pages retried, recovered, still pending, cycles spent.
	EvMigrateRetry
	// EvMigrateGiveup records migrations abandoned after exhausting
	// their retry attempts.
	EvMigrateGiveup
	// EvProfileDegraded marks an epoch in which an app's profiler
	// confidence fell below the degradation threshold, so the policy
	// held its prior placement instead of reacting to a starved profile.
	EvProfileDegraded
	// EvAppStop records an application's eviction (dynamic systems
	// only: fleet-level departures and cross-host rebalances).
	EvAppStop
	// EvMigrateShed records a bounded async queue's backpressure
	// decisions for one epoch: promotions shed at a full backlog and
	// pending promotions displaced to admit demotions.
	EvMigrateShed

	// NumEventTypes bounds the enum.
	NumEventTypes
)

var eventTypeNames = [NumEventTypes]string{
	EvEpoch:           "epoch",
	EvAppStart:        "app-start",
	EvDecision:        "migration-decision",
	EvMigrateSync:     "migrate-sync",
	EvMigrateAsync:    "migrate-async",
	EvShootdown:       "tlb-shootdown",
	EvProfileEpoch:    "profile-epoch",
	EvQueueAdapt:      "queue-adapt",
	EvQoSAdapt:        "qos-adapt",
	EvDemandFault:     "demand-fault",
	EvHintFault:       "hint-fault",
	EvTHPSplit:        "thp-split",
	EvTHPCollapse:     "thp-collapse",
	EvFaultInject:     "fault.inject",
	EvMigrateRetry:    "migrate.retry",
	EvMigrateGiveup:   "migrate.giveup",
	EvProfileDegraded: "profile.degraded",
	EvAppStop:         "app-stop",
	EvMigrateShed:     "migrate.shed",
}

// String returns the stable wire name used in traces and filters.
func (t EventType) String() string {
	if int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// ParseEventType resolves a wire name back to its type.
func ParseEventType(name string) (EventType, error) {
	for i, n := range eventTypeNames {
		if n == name {
			return EventType(i), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event type %q (known: %s)",
		name, strings.Join(eventTypeNames[:], ", "))
}

// TypeSet is a filter over event types. The zero value admits every
// type, so an unconfigured recorder records everything.
type TypeSet uint32

// With returns the set with t admitted.
func (s TypeSet) With(t EventType) TypeSet { return s | 1<<uint(t) }

// Enabled reports whether t passes the filter.
func (s TypeSet) Enabled(t EventType) bool {
	return s == 0 || s&(1<<uint(t)) != 0
}

// ParseFilter builds a TypeSet from a comma-separated list of event
// type names ("migrate-sync,tlb-shootdown"). An empty string yields the
// admit-everything zero set.
func ParseFilter(spec string) (TypeSet, error) {
	var s TypeSet
	if spec == "" {
		return s, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		t, err := ParseEventType(part)
		if err != nil {
			return 0, err
		}
		s = s.With(t)
	}
	return s, nil
}

// Field is one key→value attribute of an event. Fields are an ordered
// slice, never a map, so exporters replay identically.
type Field struct {
	Key string
	Val float64
}

// F builds one field.
func F(key string, val float64) Field { return Field{Key: key, Val: val} }

// Event is one structured telemetry record. Time is stamped by the
// recording sink from the sim clock; emission sites never read a clock
// themselves.
type Event struct {
	Time sim.Time
	Type EventType
	// App scopes the event to one application; "" means machine scope.
	App string
	// Track names the component lane within the scope ("migrate",
	// "profile", "qos", ...); exporters render one trace track per
	// (scope, track) pair.
	Track string
	// Dur is the modeled duration of the phenomenon (0 = instant).
	Dur sim.Duration
	// Note carries a short free-form annotation (e.g. a CBFRP transfer's
	// donor→borrower pair).
	Note   string
	Fields []Field
}

// E assembles an event; the sink stamps Time at emission.
func E(t EventType, app, track string, dur sim.Duration, fields ...Field) Event {
	return Event{Type: t, App: app, Track: track, Dur: dur, Fields: fields}
}

// Field returns the value of the named field (0 if absent).
func (e Event) Field(key string) float64 {
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Val
		}
	}
	return 0
}

// Sink consumes telemetry. Implementations must be deterministic: no
// wall clock, no map-order dependence. The interface is tiny so test
// doubles are one struct.
type Sink interface {
	// Enabled reports whether events of type t are wanted; emission
	// sites use it to skip building Event values nobody will see.
	Enabled(t EventType) bool
	// Event records one event.
	Event(e Event)
}

// Enabled is the nil-safe guard every instrumentation site uses:
//
//	if obs.Enabled(sink, obs.EvShootdown) { sink.Event(...) }
//
// A nil sink short-circuits before any allocation.
func Enabled(s Sink, t EventType) bool { return s != nil && s.Enabled(t) }

// RegistryOf returns the metrics registry behind a sink, or nil when
// the sink is nil or carries none. Layers that maintain counters and
// gauges use it so a bare event sink (or no sink) costs nothing.
func RegistryOf(s Sink) *Registry {
	if p, ok := s.(interface{ Metrics() *Registry }); ok {
		return p.Metrics()
	}
	return nil
}

// sortedKeys returns m's keys in ascending order; the only sanctioned
// way for this package to walk a map.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
