package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vulcan/internal/sim"
)

func TestEventTypeNamesRoundTrip(t *testing.T) {
	for i := EventType(0); i < NumEventTypes; i++ {
		name := i.String()
		if name == "" || strings.HasPrefix(name, "event(") {
			t.Fatalf("type %d has no wire name", i)
		}
		back, err := ParseEventType(name)
		if err != nil || back != i {
			t.Fatalf("ParseEventType(%q) = %v, %v; want %d", name, back, err, i)
		}
	}
	if _, err := ParseEventType("bogus"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestTypeSetFilter(t *testing.T) {
	var all TypeSet
	for i := EventType(0); i < NumEventTypes; i++ {
		if !all.Enabled(i) {
			t.Fatalf("zero set must admit %v", i)
		}
	}
	s, err := ParseFilter(" migrate-sync , tlb-shootdown ")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Enabled(EvMigrateSync) || !s.Enabled(EvShootdown) {
		t.Fatal("named types not enabled")
	}
	if s.Enabled(EvEpoch) {
		t.Fatal("unnamed type enabled")
	}
	if _, err := ParseFilter("nope"); err == nil {
		t.Fatal("bad filter accepted")
	}
}

func TestNilSinkIsSafe(t *testing.T) {
	if Enabled(nil, EvEpoch) {
		t.Fatal("nil sink enabled")
	}
	if RegistryOf(nil) != nil {
		t.Fatal("nil sink has a registry")
	}
}

func TestRecorderStampsSimTime(t *testing.T) {
	var clk sim.Clock
	r := NewRecorder()
	r.BindClock(&clk)
	clk.Advance(5 * sim.Millisecond)
	r.Event(E(EvEpoch, "", "epoch", sim.Second))
	evs := r.Events()
	if len(evs) != 1 || evs[0].Time != sim.Time(5*sim.Millisecond) {
		t.Fatalf("events = %+v", evs)
	}
}

func TestRecorderFilterDropsEvents(t *testing.T) {
	r := NewRecorder()
	r.SetFilter(TypeSet(0).With(EvShootdown))
	r.Event(E(EvEpoch, "", "epoch", 0))
	r.Event(E(EvShootdown, "a", "migrate", 10, F("targets", 3)))
	if n := len(r.Events()); n != 1 {
		t.Fatalf("recorded %d events, want 1", n)
	}
	if r.EventCount(EvShootdown) != 1 {
		t.Fatal("shootdown not recorded")
	}
}

func TestRegistryLabelsAndIdentity(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("pages_moved", App("memcached"), Tier("fast"))
	c2 := reg.Counter("pages_moved", Tier("fast"), App("memcached"))
	if c1 != c2 {
		t.Fatal("label order changed instrument identity")
	}
	c1.Add(3)
	c1.Inc()
	if c2.Value() != 4 {
		t.Fatalf("counter = %v", c2.Value())
	}
	ids := reg.CounterIDs()
	if len(ids) != 1 || ids[0] != "pages_moved{app=memcached,tier=fast}" {
		t.Fatalf("ids = %v", ids)
	}

	g := reg.Gauge("fthr", App("a"))
	g.Set(0.75)
	if reg.Gauge("fthr", App("a")).Value() != 0.75 {
		t.Fatal("gauge identity broken")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("negative counter delta not rejected")
		}
	}()
	c1.Add(-1)
}

func TestRegistryHistogramSummaryExport(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("epoch_perf", 0, 1, 100, App("a"))
	for i := 0; i < 100; i++ {
		h.Add(float64(i) / 100)
	}
	rows := reg.snapshot(nil)
	want := map[string]bool{
		"epoch_perf{app=a}.count": false,
		"epoch_perf{app=a}.p50":   false,
		"epoch_perf{app=a}.p95":   false,
		"epoch_perf{app=a}.p99":   false,
	}
	for _, row := range rows {
		if _, ok := want[row.ID]; ok {
			want[row.ID] = true
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("missing export row %s", id)
		}
	}
	for _, row := range rows {
		switch row.ID {
		case "epoch_perf{app=a}.count":
			if row.Val != 100 {
				t.Errorf("count = %v", row.Val)
			}
		case "epoch_perf{app=a}.p50":
			if row.Val < 0.4 || row.Val > 0.6 {
				t.Errorf("p50 = %v", row.Val)
			}
		case "epoch_perf{app=a}.p99":
			if row.Val < 0.9 {
				t.Errorf("p99 = %v", row.Val)
			}
		}
	}
}

// chromeTrace mirrors the trace-event JSON shape for validation.
type chromeTrace struct {
	DisplayTimeUnit string                   `json:"displayTimeUnit"`
	TraceEvents     []map[string]interface{} `json:"traceEvents"`
}

func buildSampleRecorder() *Recorder {
	var clk sim.Clock
	r := NewRecorder()
	r.BindClock(&clk)
	r.Event(E(EvAppStart, "memcached", "app", 0, F("rss_pages", 100)))
	r.Event(E(EvShootdown, "memcached", "migrate", 2*sim.Microsecond,
		F("pages", 8), F("targets", 4)))
	r.Event(E(EvShootdown, "memcached", "migrate", 2*sim.Microsecond,
		F("pages", 4), F("targets", 2)))
	ev := E(EvQoSAdapt, "", "qos", 0, F("units", 512))
	ev.Note = `transfer "pool"->memcached`
	r.Event(ev)
	clk.Advance(sim.Second)
	r.Event(E(EvEpoch, "", "epoch", sim.Second, F("epoch", 0)))
	reg := r.Metrics()
	reg.Gauge("fast_pages", App("memcached")).Set(42)
	reg.Counter("demand_faults", App("memcached")).Add(7)
	r.FlushEpoch(0)
	return r
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	r := buildSampleRecorder()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var names []string
	var procNames []string
	for _, e := range tr.TraceEvents {
		if n, ok := e["name"].(string); ok {
			names = append(names, n)
			if n == "process_name" {
				args := e["args"].(map[string]interface{})
				procNames = append(procNames, args["name"].(string))
			}
		}
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"tlb-shootdown", "epoch", "app-start", "qos-adapt"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q events:\n%s", want, joined)
		}
	}
	if len(procNames) < 2 || procNames[0] != "machine" {
		t.Errorf("process names = %v (want machine first, then apps)", procNames)
	}
}

func TestChromeTraceLaysOutOverlappingSlices(t *testing.T) {
	r := buildSampleRecorder()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	// The two shootdown slices share a timestamp; the exporter must
	// shift the second to start at the first one's end.
	var ts []float64
	for _, e := range tr.TraceEvents {
		if e["name"] == "tlb-shootdown" {
			ts = append(ts, e["ts"].(float64))
		}
	}
	if len(ts) != 2 || ts[1] != ts[0]+2 {
		t.Fatalf("shootdown timestamps = %v (want second shifted by 2µs)", ts)
	}
}

func TestExportersAreByteDeterministic(t *testing.T) {
	dump := func() (string, string) {
		r := buildSampleRecorder()
		var tj, tc bytes.Buffer
		if err := r.WriteChromeTrace(&tj); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteMetricsCSV(&tc); err != nil {
			t.Fatal(err)
		}
		return tj.String(), tc.String()
	}
	j1, c1 := dump()
	j2, c2 := dump()
	if j1 != j2 {
		t.Fatal("chrome trace output differs across identical runs")
	}
	if c1 != c2 {
		t.Fatal("metrics CSV output differs across identical runs")
	}
}

func TestMetricsCSVShape(t *testing.T) {
	r := buildSampleRecorder()
	var buf bytes.Buffer
	if err := r.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "epoch,t_ns,metric,value" {
		t.Fatalf("header = %q", lines[0])
	}
	found := false
	for _, l := range lines[1:] {
		if l == "0,1000000000,fast_pages{app=memcached},42" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected gauge row missing:\n%s", buf.String())
	}
}

func TestMicroseconds(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want string
	}{
		{0, "0"},
		{1000, "1"},
		{1234, "1.234"},
		{5, "0.005"},
		{1_000_000_000, "1000000"},
	} {
		if got := microseconds(tc.ns); got != tc.want {
			t.Errorf("microseconds(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}
