package system

import (
	"bytes"
	"strings"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/fault"
	"vulcan/internal/obs"
	"vulcan/internal/sim"
	"vulcan/internal/workload"
)

// ckptConfig builds a fresh two-app config (one staggered admission) so
// each run constructs its own closures and recorder.
func ckptConfig(faults *fault.Plan) Config {
	return Config{
		Machine: tinyMachine(256, 4096),
		Apps: []workload.AppConfig{
			tinyApp("late", workload.BE, 300, sim.Time(25*sim.Millisecond)),
			tinyApp("early", workload.LC, 300, 0),
		},
		EpochLength: 10 * sim.Millisecond,
		Obs:         obs.NewRecorder(),
		Faults:      faults,
		Seed:        7,
	}
}

// dump renders everything the byte-identity contract covers: the run
// report, the time-series CSV, and the telemetry metrics CSV.
func dump(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sys.Recorder().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if rec, ok := sys.Obs().(*obs.Recorder); ok {
		if err := rec.WriteMetricsCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func runEpochs(sys *System, n int) {
	for i := 0; i < n; i++ {
		sys.RunEpoch()
	}
}

func testResumeIdentical(t *testing.T, faults *fault.Plan, split, total int) {
	t.Helper()
	golden := New(ckptConfig(faults))
	runEpochs(golden, total)
	want := dump(t, golden)

	first := New(ckptConfig(faults))
	runEpochs(first, split)
	var blob bytes.Buffer
	if err := first.Checkpoint(&blob); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	resumed, err := Resume(bytes.NewReader(blob.Bytes()), ckptConfig(faults))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	runEpochs(resumed, total-split)
	got := dump(t, resumed)

	if !bytes.Equal(want, got) {
		t.Fatalf("resumed run diverged from uninterrupted run:\nwant %d bytes, got %d bytes", len(want), len(got))
	}
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	// Split before and after the staggered app's admission.
	testResumeIdentical(t, nil, 1, 10)
	testResumeIdentical(t, nil, 5, 10)
}

func TestCheckpointResumeFaultedByteIdentical(t *testing.T) {
	testResumeIdentical(t, fault.PlanAtRate(0.05), 6, 12)
}

// A fault-free warm-up may branch into a faulted continuation: the
// resume must succeed (fresh fault state) and stay deterministic.
func TestResumeIntoFaultedBranchDeterministic(t *testing.T) {
	var blob bytes.Buffer
	warm := New(ckptConfig(nil))
	runEpochs(warm, 4)
	if err := warm.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		sys, err := Resume(bytes.NewReader(blob.Bytes()), ckptConfig(fault.PlanAtRate(0.1)))
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		runEpochs(sys, 6)
		return dump(t, sys)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("faulted branch from clean snapshot is not deterministic")
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	var blob bytes.Buffer
	sys := New(ckptConfig(nil))
	runEpochs(sys, 3)
	if err := sys.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}

	bad := ckptConfig(nil)
	bad.Seed = 8
	if _, err := Resume(bytes.NewReader(blob.Bytes()), bad); err == nil {
		t.Fatal("seed mismatch accepted")
	}

	bad = ckptConfig(nil)
	bad.Apps = bad.Apps[:1]
	if _, err := Resume(bytes.NewReader(blob.Bytes()), bad); err == nil {
		t.Fatal("app-count mismatch accepted")
	}

	bad = ckptConfig(nil)
	bad.Apps[0].Name = "other"
	if _, err := Resume(bytes.NewReader(blob.Bytes()), bad); err == nil {
		t.Fatal("app-name mismatch accepted")
	}
}

// Corrupting or truncating any part of the blob must yield an error
// from Resume, never a panic.
func TestResumeCorruptionNeverPanics(t *testing.T) {
	var blob bytes.Buffer
	sys := New(ckptConfig(fault.PlanAtRate(0.05)))
	runEpochs(sys, 4)
	if err := sys.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	raw := blob.Bytes()

	// Every truncation point (stride keeps the test fast).
	for n := 0; n < len(raw); n += 7 {
		if _, err := Resume(bytes.NewReader(raw[:n]), ckptConfig(fault.PlanAtRate(0.05))); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	// Single-byte corruption at every offset (stride for speed).
	for i := 0; i < len(raw); i += 11 {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x5a
		if _, err := Resume(bytes.NewReader(mut), ckptConfig(fault.PlanAtRate(0.05))); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

// TestResumeRejectsV1ProfilerSection: profiler sections are read at
// wire version 2 only. A container whose app.N.profiler sections hold a
// well-formed version-1 (flat entry list) encoding of the same state
// must make Resume return an error, not decode it and not panic.
func TestResumeRejectsV1ProfilerSection(t *testing.T) {
	sys := New(ckptConfig(nil))
	runEpochs(sys, 4)
	var blob bytes.Buffer
	if err := sys.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	v1 := rewriteSections(t, blob.Bytes(), func(name string, version uint32, payload []byte) (uint32, []byte) {
		if !strings.HasSuffix(name, ".profiler") {
			return version, payload
		}
		rewritten++
		return 1, hybridV2ToV1(t, payload)
	})
	if rewritten != 2 {
		t.Fatalf("rewrote %d profiler sections, want 2", rewritten)
	}
	if _, err := Resume(bytes.NewReader(v1), ckptConfig(nil)); err == nil {
		t.Fatal("version-1 profiler section accepted")
	}
}

// TestResumeRejectsV3AppSection: app sections at wire version 3 carry
// the removed bounded backlog's shed/displace tallies. Resume must
// reject them by version rather than decode a layout it no longer
// writes.
func TestResumeRejectsV3AppSection(t *testing.T) {
	sys := New(ckptConfig(nil))
	runEpochs(sys, 4)
	var blob bytes.Buffer
	if err := sys.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	v3 := rewriteSections(t, blob.Bytes(), func(name string, version uint32, payload []byte) (uint32, []byte) {
		if !strings.HasPrefix(name, "app.") || strings.HasSuffix(name, ".profiler") {
			return version, payload
		}
		rewritten++
		return 3, payload
	})
	if rewritten == 0 {
		t.Fatal("checkpoint has no app sections")
	}
	_, err := Resume(bytes.NewReader(v3), ckptConfig(nil))
	if err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("Resume = %v, want a version-3 app section rejection", err)
	}
}

// rewriteSections re-encodes a checkpoint container, passing every
// section through fn.
func rewriteSections(t *testing.T, blob []byte, fn func(name string, version uint32, payload []byte) (uint32, []byte)) []byte {
	t.Helper()
	d := checkpoint.NewDecoder(blob[len(checkpoint.Magic) : len(blob)-8])
	if v := d.U32(); v != checkpoint.Version {
		t.Fatalf("container version %d", v)
	}
	w := checkpoint.NewWriter()
	for n := d.U32(); n > 0; n-- {
		name := d.String()
		version := d.U32()
		payload := d.Bytes64()
		d.U64() // payload checksum, recomputed by the writer
		version, payload = fn(name, version, payload)
		e := w.Section(name, version)
		for _, b := range payload {
			e.U8(b)
		}
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("parsing container: %v (%d bytes left)", d.Err(), d.Remaining())
	}
	var out bytes.Buffer
	if _, err := w.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// hybridV2ToV1 re-encodes a Hybrid profiler section from the version-2
// run-length heat layout into the version-1 layout: the entry count,
// then ascending (page, heat, reads, writes) tuples.
func hybridV2ToV1(t *testing.T, payload []byte) []byte {
	t.Helper()
	d := checkpoint.NewDecoder(payload)
	e := &checkpoint.Encoder{}
	if tag := d.String(); tag != "hybrid" {
		t.Fatalf("profiler tag %q, want hybrid", tag)
	}
	e.String("hybrid")
	for i := 0; i < 5; i++ { // rng state (4 words), in-flight sample count
		e.U64(d.U64())
	}
	e.Int(d.Int()) // entries
	for runs := d.Int(); runs > 0; runs-- {
		start := d.U64()
		n := d.Int()
		for i := 0; i < n; i++ {
			e.U64(start + uint64(i))
			e.F64(d.F64()) // heat
			e.F64(d.F64()) // reads
			e.F64(d.F64()) // writes
		}
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("decoding hybrid section: %v (%d bytes left)", d.Err(), d.Remaining())
	}
	return e.Bytes()
}
