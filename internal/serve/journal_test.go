package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vulcan/internal/scenario"
)

func testHeader() Header {
	return Header{
		Scenario: scenario.File{
			Policy: "vulcan", Seconds: 10, Seed: 3,
			Apps: []scenario.App{{Preset: "memcached"}},
		},
		MaxBacklog: 64,
		Rescore:    true,
	}
}

// TestJournalRoundTrip: write header + batches + trailer, read it back.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	app := &scenario.App{Name: "burst", Threads: 1, RSSPages: 1000}
	batches := []Batch{
		{Epoch: 2, Cmds: []Cmd{{Op: "admit", App: app, Src: "api", Depart: 9}}},
		{Epoch: 5, Cmds: []Cmd{{Op: "intensity", Name: "burst", Milli: 500, Src: "api"}}},
	}
	for _, b := range batches {
		if err := j.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(10); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Header.V != journalVersion || d.Header.MaxBacklog != 64 || !d.Header.Rescore {
		t.Fatalf("header: %+v", d.Header)
	}
	if d.Header.Scenario.Policy != "vulcan" || len(d.Header.Scenario.Apps) != 1 {
		t.Fatalf("scenario lost in round trip: %+v", d.Header.Scenario)
	}
	if !d.Finished || d.FinishEpoch != 10 {
		t.Fatalf("trailer: finished=%t epoch=%d", d.Finished, d.FinishEpoch)
	}
	if len(d.Batches) != 2 || d.LastEpoch() != 5 {
		t.Fatalf("batches: %+v", d.Batches)
	}
	b0 := d.Batches[0].Cmds
	if d.Batches[0].Epoch != 2 || len(b0) != 1 || b0[0].Op != "admit" ||
		b0[0].App.Name != "burst" || b0[0].Depart != 9 {
		t.Fatalf("batch 2: %+v", d.Batches[0])
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.CleanSize != info.Size() {
		t.Fatalf("CleanSize %d, file is %d bytes", d.CleanSize, info.Size())
	}
}

// TestJournalTornTail: a torn trailing line is dropped and excluded
// from CleanSize; everything before it survives.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Batch{Epoch: 1, Cmds: []Cmd{{Op: "stop", Name: "x", Src: "api"}}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	clean, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, torn := range []string{
		`{"epoch":2,"cm`,                // unterminated, unparseable
		`{"epoch":2,"cmds":[]}`,         // parseable but unterminated (no newline)
		`{"epoch":2,"cmds":[]}x` + "\n", // terminated garbage tail
	} {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(torn)
		f.Close()

		d, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("torn %q: %v", torn, err)
		}
		if d.CleanSize != clean.Size() {
			t.Fatalf("torn %q: CleanSize %d, want %d", torn, d.CleanSize, clean.Size())
		}
		if len(d.Batches) != 1 || d.Batches[0].Epoch != 1 || d.Finished {
			t.Fatalf("torn %q: parsed %+v", torn, d)
		}
		// Recovery truncates to CleanSize: the journal is whole again.
		if err := os.Truncate(path, d.CleanSize); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalCorruption: malformed non-tail content is an error, not a
// silent truncation.
func TestJournalCorruption(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	hdr := `{"v":1,"scenario":{"policy":"vulcan","seconds":5,"seed":1,"apps":[{"preset":"memcached"}]}}` + "\n"
	cases := map[string]string{
		"garbage middle line": hdr + "not json\n" + `{"epoch":3,"cmds":[]}` + "\n",
		"out of order epochs": hdr + `{"epoch":5,"cmds":[]}` + "\n" + `{"epoch":3,"cmds":[]}` + "\n",
		"batch after trailer": hdr + `{"finish":5}` + "\n" + `{"epoch":3,"cmds":[]}` + "\n",
		"double trailer":      hdr + `{"finish":5}` + "\n" + `{"finish":6}` + "\n",
		"wrong version":       `{"v":9,"scenario":{"policy":"vulcan","seconds":5,"seed":1,"apps":[{"preset":"memcached"}]}}` + "\n",
		"headerless":          `{"epoch":3,"cmds":[]}` + "\n" + `{"epoch":4,"cmds":[]}` + "\n",
		"second header":       hdr + hdr + `{"epoch":3,"cmds":[]}` + "\n",
	}
	for name, content := range cases {
		if _, err := ReadJournal(write(strings.ReplaceAll(name, " ", "_"), content)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An empty file has no intact header either.
	if _, err := ReadJournal(write("empty", "")); err == nil {
		t.Error("empty journal accepted")
	}
}

// TestJournalReopenAppend: recovery's truncate-and-append constructor
// continues a journal cleanly.
func TestJournalReopenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Batch{Epoch: 1, Cmds: []Cmd{{Op: "stop", Name: "a", Src: "api"}}})
	j.Close()

	// Tear the tail, then reopen at the clean boundary and continue.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"epoch":2,"c`)
	f.Close()
	d, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := openJournalAppend(path, d.CleanSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Batch{Epoch: 4, Cmds: []Cmd{{Op: "stop", Name: "b", Src: "api"}}}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Finish(8); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	d2, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Finished || d2.FinishEpoch != 8 || len(d2.Batches) != 2 ||
		d2.Batches[1].Epoch != 4 || d2.Batches[1].Cmds[0].Name != "b" {
		t.Fatalf("continued journal: %+v", d2)
	}
}
