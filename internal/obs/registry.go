package obs

import (
	"sort"
	"strings"

	"vulcan/internal/metrics"
)

// Label is one dimension of a metric's identity. The conventional keys
// are "app" and "tier"; exporters sort labels by key so call-site order
// never leaks into output.
type Label struct {
	Key string
	Val string
}

// App is the canonical per-application label.
func App(name string) Label { return Label{Key: "app", Val: name} }

// Tier is the canonical per-tier label ("fast"/"slow").
func Tier(name string) Label { return Label{Key: "tier", Val: name} }

// metricID renders the canonical instrument identity:
// name{k1=v1,k2=v2} with labels sorted by key.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Val)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically accumulating value.
type Counter struct{ v float64 }

// Add accumulates delta (negative deltas panic: counters only go up).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("obs: negative counter delta")
	}
	c.v += delta
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Value returns the accumulated total.
func (c *Counter) Value() float64 { return c.v }

// Gauge is a set-to-current-value instrument.
type Gauge struct{ v float64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the last set value.
func (g *Gauge) Value() float64 { return g.v }

// Registry is the simulator's metric namespace: named counters, gauges,
// and fixed-bucket histograms, each optionally labeled per app and per
// tier. Lookup is create-on-first-use, so instrumentation sites never
// pre-register. The zero Registry is not usable; call NewRegistry.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	histos   map[string]*metrics.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		histos:   make(map[string]*metrics.Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	id := metricID(name, labels)
	c := r.counters[id]
	if c == nil {
		c = &Counter{}
		r.counters[id] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	id := metricID(name, labels)
	g := r.gauges[id]
	if g == nil {
		g = &Gauge{}
		r.gauges[id] = g
	}
	return g
}

// Histogram returns (creating if needed) the named fixed-bucket
// histogram over [min, max) with n buckets. The shape arguments apply
// only on first use.
func (r *Registry) Histogram(name string, min, max float64, n int, labels ...Label) *metrics.Histogram {
	id := metricID(name, labels)
	h := r.histos[id]
	if h == nil {
		h = metrics.NewHistogram(min, max, n)
		r.histos[id] = h
	}
	return h
}

// CounterIDs returns every counter identity, sorted.
func (r *Registry) CounterIDs() []string { return sortedKeys(r.counters) }

// GaugeIDs returns every gauge identity, sorted.
func (r *Registry) GaugeIDs() []string { return sortedKeys(r.gauges) }

// HistogramIDs returns every histogram identity, sorted.
func (r *Registry) HistogramIDs() []string { return sortedKeys(r.histos) }

// snapshot appends one row per instrument to out, in sorted-identity
// order: counters and gauges by value, histograms expanded to
// count/p50/p95/p99 via metrics.HistSummary. This is the registry's
// only export path, shared by the CSV exporter.
func (r *Registry) snapshot(out []metricRow) []metricRow {
	for _, id := range r.CounterIDs() {
		out = append(out, metricRow{ID: id, Val: r.counters[id].Value()})
	}
	for _, id := range r.GaugeIDs() {
		out = append(out, metricRow{ID: id, Val: r.gauges[id].Value()})
	}
	for _, id := range r.HistogramIDs() {
		s := r.histos[id].Summary()
		out = append(out,
			metricRow{ID: id + ".count", Val: float64(s.Count)},
			metricRow{ID: id + ".p50", Val: s.P50},
			metricRow{ID: id + ".p95", Val: s.P95},
			metricRow{ID: id + ".p99", Val: s.P99},
		)
	}
	return out
}

// metricRow is one exported (identity, value) pair.
type metricRow struct {
	ID  string
	Val float64
}
