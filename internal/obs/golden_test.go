package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vulcan/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files from current output")

// TestMetricsCSVGolden pins the metrics CSV export byte for byte: the
// header spelling and column order, the sorted-identity row order
// within an epoch (counters, then gauges, then histogram summaries,
// each sorted with labels in key order), and the shortest-round-trip
// value rendering. Any byte change here is a telemetry format break —
// regenerate with -update-golden only on purpose.
func TestMetricsCSVGolden(t *testing.T) {
	var clk sim.Clock
	rec := NewRecorder()
	rec.BindClock(&clk)
	reg := rec.Metrics()

	// Register instruments in deliberately unsorted order: the export
	// must sort by identity, not registration order.
	promoted := reg.Counter("migrate.pages", App("pagerank"), Label{Key: "dir", Val: "promote"})
	demoted := reg.Counter("migrate.pages", App("memcached"), Label{Key: "dir", Val: "demote"})
	fthr := reg.Gauge("app.fthr", App("memcached"))
	lat := reg.Histogram("access.latency", 0, 1000, 10, Tier("fast"))

	promoted.Add(128)
	demoted.Add(32)
	fthr.Set(0.625)
	lat.Add(150)
	rec.FlushEpoch(0)

	clk.Advance(sim.Second)
	promoted.Add(64)
	fthr.Set(0.75)
	lat.Add(850)
	lat.Add(250)
	rec.FlushEpoch(1)

	var got bytes.Buffer
	if err := rec.WriteMetricsCSV(&got); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "metrics_golden.csv")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("metrics CSV drifted from golden file.\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
