package obs

import (
	"io"
	"strconv"

	"vulcan/internal/obs/prof"
	"vulcan/internal/sim"
)

// Recorder is the standard Sink. In batch mode (the default) it buffers
// events, hosts the metrics registry, snapshots the registry once per
// epoch for the CSV exporter, and records each flush boundary so the
// batch exporters can replay the session through the streaming sinks.
// In streaming mode (StreamTo) nothing is buffered: events forward
// straight to a TraceStream and each epoch flush appends the registry
// rows to a CSVStream — the long-running daemon's memory-bounded path.
// All timestamps come from the bound sim.Clock; a recorder with no
// clock stamps t=0 (useful in unit tests that set Event.Time
// explicitly).
type Recorder struct {
	clock   *sim.Clock //vulcan:nosnap construction wiring; the restoring recorder keeps its live clock binding
	filter  TypeSet
	events  []Event
	reg     *Registry
	samples []epochSample

	// marks are the flush boundaries recorded in batch mode: how many
	// events were buffered when each epoch flushed. The Chrome trace
	// replay emits each epoch's counter samples at its mark, mirroring
	// the streamed layout byte for byte.
	marks []flushMark

	// trace/csv, when set (StreamTo), switch the recorder to streaming
	// mode.
	trace *TraceStream //vulcan:nosnap streaming sink wiring; recovery resumes streams from their own snapshots
	csv   *CSVStream   //vulcan:nosnap streaming sink wiring; recovery resumes streams from their own snapshots

	// cost, when attached, merges the cycle-attribution profiler's
	// per-epoch subsystem totals into the Chrome trace as counter
	// tracks. Detached (nil) recorders emit exactly the pre-profiler
	// trace bytes.
	cost *prof.Profiler //vulcan:nosnap observer-only cost accounting, rebuilt per run
}

// flushMark is one recorded epoch-flush boundary.
type flushMark struct {
	Epoch  int
	Events int // events buffered when the epoch flushed
}

// epochSample is one per-epoch registry snapshot row.
type epochSample struct {
	Epoch int
	T     sim.Time
	Row   metricRow
}

// NewRecorder returns a recorder that admits every event type.
func NewRecorder() *Recorder {
	return &Recorder{reg: NewRegistry()}
}

// BindClock attaches the simulation clock; the system calls this during
// construction so emission sites never handle clocks themselves.
func (r *Recorder) BindClock(c *sim.Clock) { r.clock = c }

// SetFilter restricts recording to the given type set (zero = all).
func (r *Recorder) SetFilter(f TypeSet) { r.filter = f }

// Enabled implements Sink.
func (r *Recorder) Enabled(t EventType) bool { return r.filter.Enabled(t) }

// StreamTo switches the recorder to streaming mode: events forward to
// ts as they are emitted and each epoch flush appends the registry rows
// to cs (either stream may be nil to stream only the other artifact).
// Nothing is buffered, so the batch exporters have nothing to export —
// the streams are the artifacts.
func (r *Recorder) StreamTo(ts *TraceStream, cs *CSVStream) {
	r.trace = ts
	r.csv = cs
}

// Event implements Sink: the event is stamped with the sim clock's
// current time (unless the caller pre-stamped it) and buffered, or
// forwarded straight to the trace stream in streaming mode.
func (r *Recorder) Event(e Event) {
	if !r.filter.Enabled(e.Type) {
		return
	}
	if e.Time == 0 && r.clock != nil {
		e.Time = r.clock.Now()
	}
	if r.trace != nil || r.csv != nil {
		if r.trace != nil {
			r.trace.Event(e)
		}
		return
	}
	r.events = append(r.events, e)
}

// AttachCostProfiler merges p's per-epoch cost series into the Chrome
// trace export as counter tracks (one "cost.<subsystem>" counter per
// app). A nil p detaches.
func (r *Recorder) AttachCostProfiler(p *prof.Profiler) { r.cost = p }

// Metrics returns the registry (see RegistryOf).
func (r *Recorder) Metrics() *Registry { return r.reg }

// Events returns the buffered events in emission order.
func (r *Recorder) Events() []Event { return r.events }

// EventCount returns the number of buffered events of type t.
func (r *Recorder) EventCount(t EventType) int {
	n := 0
	for _, e := range r.events {
		if e.Type == t {
			n++
		}
	}
	return n
}

// FlushEpoch closes one epoch's telemetry. In batch mode it snapshots
// every registry instrument as one CSV row set and records the flush
// boundary. In streaming mode the rows append to the CSV stream, the
// epoch's cost counter samples append to the trace stream, and both
// streams flush — the explicit boundary at which the on-disk artifacts
// are consistent. The system calls it at each epoch boundary, before
// the clock advances, so rows carry the epoch's start time.
func (r *Recorder) FlushEpoch(epoch int) {
	var t sim.Time
	if r.clock != nil {
		t = r.clock.Now()
	}
	if r.trace != nil || r.csv != nil {
		if r.csv != nil {
			for _, row := range r.reg.snapshot(nil) {
				r.csv.Row(epoch, t, row.ID, row.Val)
			}
			r.csv.Flush()
		}
		if r.trace != nil {
			for _, c := range r.cost.CounterRowsForEpoch(epoch) {
				r.trace.Counter(c)
			}
			r.trace.Flush()
		}
		return
	}
	for _, row := range r.reg.snapshot(nil) {
		r.samples = append(r.samples, epochSample{Epoch: epoch, T: t, Row: row})
	}
	r.marks = append(r.marks, flushMark{Epoch: epoch, Events: len(r.events)})
}

// formatVal renders a metric value in the shortest round-trippable
// form, so output is byte-stable across runs and Go versions.
func formatVal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteMetricsCSV emits the per-epoch registry snapshots by replaying
// them through a CSVStream: epoch, sim time (ns), metric identity,
// value, in (epoch, sorted metric identity) order — never map order.
func (r *Recorder) WriteMetricsCSV(w io.Writer) error {
	cs := NewCSVStream(w)
	for _, s := range r.samples {
		cs.Row(s.Epoch, s.T, s.Row.ID, s.Row.Val)
	}
	return cs.Flush()
}
