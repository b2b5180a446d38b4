package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sockClient returns an HTTP client that dials the unix socket.
func sockClient(socket string) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", socket)
			},
		},
	}
}

func post(t *testing.T, c *http.Client, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := c.Post("http://vulcand"+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func getStatus(t *testing.T, c *http.Client) StatusReply {
	t.Helper()
	resp, err := c.Get("http://vulcand/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDaemonManualMode drives a manual-stepping daemon over its unix
// socket: admit, step, status, checkpoint, stop, and a clean wind-down
// when the run completes.
func TestDaemonManualMode(t *testing.T) {
	// Unix socket paths are length-limited (~104 bytes); t.TempDir can
	// exceed that under deep test roots.
	sockDir, err := os.MkdirTemp("", "vd")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(sockDir)
	dir := t.TempDir()

	s, err := NewSession(Options{
		Scenario:       testScenario(8),
		Journal:        filepath.Join(dir, "run.journal"),
		CheckpointBase: filepath.Join(dir, "run.ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	socket := filepath.Join(sockDir, "vulcand.sock")
	d, err := NewDaemon(s, socket, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Run() }()
	c := sockClient(socket)

	st := getStatus(t, c)
	if st.Epoch != 0 || st.Target != 8 || st.Finished {
		t.Fatalf("initial status: %+v", st)
	}

	// Queue an admission, then step past its boundary.
	code, body := post(t, c, "/v1/admit",
		`{"app": {"name": "burst", "class": "BE", "threads": 1, "rss_pages": 2048, "generator": "uniform"}, "depart": 6}`)
	if code != http.StatusOK {
		t.Fatalf("admit: %d %v", code, body)
	}
	if code, body := post(t, c, "/v1/admit", `{"app": {"name": "bad", "threads": 1}}`); code != http.StatusBadRequest {
		t.Fatalf("malformed admit accepted: %d %v", code, body)
	}
	if code, _ := post(t, c, "/v1/step", `{"epochs": 2}`); code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	st = getStatus(t, c)
	if st.Epoch != 2 {
		t.Fatalf("epoch %d after stepping 2", st.Epoch)
	}
	found := false
	for _, a := range st.Apps {
		if a.Name == "burst" && a.Started {
			found = true
		}
	}
	if !found {
		t.Fatalf("admitted app not running: %+v", st.Apps)
	}

	// Intensity change, a forced checkpoint, then run to completion.
	if code, body := post(t, c, "/v1/intensity", `{"name": "burst", "milli": 400}`); code != http.StatusOK {
		t.Fatalf("intensity: %d %v", code, body)
	}
	if code, body := post(t, c, "/v1/checkpoint", ``); code != http.StatusOK {
		t.Fatalf("checkpoint: %d %v", code, body)
	} else if int(body["checkpoint_epoch"].(float64)) != 2 {
		t.Fatalf("checkpoint at %v, want 2", body["checkpoint_epoch"])
	}
	// The final step completes the run (and winds the daemon down), so
	// the closing status comes from the step reply itself.
	code, body = post(t, c, "/v1/step", `{"epochs": 99}`)
	if code != http.StatusOK {
		t.Fatal("step to completion failed")
	}
	if body["finished"] != true || int(body["epoch"].(float64)) != 8 {
		t.Fatalf("final status: %v", body)
	}

	if err := <-done; err != nil {
		t.Fatalf("daemon run: %v", err)
	}

	// The daemon's journal replays: the manually-driven session is as
	// reproducible as a scripted one.
	r, err := Replay(filepath.Join(dir, "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if a := r.System().App("burst"); a == nil || !a.Stopped() {
		t.Fatal("replay did not reproduce the admitted app's lifecycle")
	}
}

// TestDaemonShutdownResumable: /v1/shutdown mid-run suspends without
// sealing, and Recover continues the same run.
func TestDaemonShutdownResumable(t *testing.T) {
	sockDir, err := os.MkdirTemp("", "vd")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(sockDir)
	dir := t.TempDir()
	opts := Options{
		Scenario: testScenario(8),
		Journal:  filepath.Join(dir, "run.journal"),
	}
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(s, filepath.Join(sockDir, "vulcand.sock"), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Run() }()
	c := sockClient(filepath.Join(sockDir, "vulcand.sock"))

	if code, _ := post(t, c, "/v1/step", `{"epochs": 3}`); code != http.StatusOK {
		t.Fatal("step failed")
	}
	if code, _ := post(t, c, "/v1/shutdown", ``); code != http.StatusOK {
		t.Fatal("shutdown failed")
	}
	if err := <-done; err != nil {
		t.Fatalf("daemon run: %v", err)
	}

	jd, err := ReadJournal(opts.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if jd.Finished {
		t.Fatal("suspended run sealed its journal")
	}
	recovered, err := Recover(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.Run(); err != nil {
		t.Fatal(err)
	}
	if !recovered.Finished() || recovered.Epoch() != 8 {
		t.Fatalf("recovered run ended at epoch %d", recovered.Epoch())
	}
}

// TestDaemonAutoPaced: an auto-paced daemon steps itself; the pace
// closure is the injected (wall-clock-free here) heartbeat.
func TestDaemonAutoPaced(t *testing.T) {
	sockDir, err := os.MkdirTemp("", "vd")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(sockDir)
	dir := t.TempDir()
	s, err := NewSession(Options{
		Scenario: testScenario(6),
		Journal:  filepath.Join(dir, "run.journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The pace closure is the daemon's injected heartbeat; the test
	// meters it with a channel so it can poke the API mid-run.
	tick := make(chan struct{})
	d, err := NewDaemon(s, filepath.Join(sockDir, "vulcand.sock"), func() { <-tick })
	if err != nil {
		t.Fatal(err)
	}
	c := sockClient(filepath.Join(sockDir, "vulcand.sock"))
	errCh := make(chan error, 1)
	go func() { errCh <- d.Run() }()

	// Manual stepping an auto-paced daemon is a client error (the loop
	// is parked on its first pace tick, so the API is free).
	if code, body := post(t, c, "/v1/step", `{}`); code != http.StatusConflict {
		t.Fatalf("step on auto-paced daemon: %d %v, want 409", code, body)
	}
	for i := 0; i < 6; i++ {
		tick <- struct{}{} // one heartbeat per epoch
	}
	if err := <-errCh; err != nil {
		t.Fatalf("daemon run: %v", err)
	}
	if st := d.statusLocked(); !st.Finished || st.Epoch != 6 {
		t.Fatalf("final: %+v", st)
	}
}

// startManualDaemon runs a manual-stepping daemon over a fresh session
// and returns a client for its socket; the cleanup shuts it down.
func startManualDaemon(t *testing.T) *http.Client {
	t.Helper()
	sockDir, err := os.MkdirTemp("", "vd")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(sockDir) })
	s, err := NewSession(Options{
		Scenario: testScenario(8),
		Journal:  filepath.Join(t.TempDir(), "run.journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	socket := filepath.Join(sockDir, "vulcand.sock")
	d, err := NewDaemon(s, socket, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Run() }()
	t.Cleanup(func() {
		d.Stop()
		if err := <-done; err != nil {
			t.Errorf("daemon run: %v", err)
		}
	})
	return sockClient(socket)
}

// rejectsStep posts body to /v1/step and requires a 400 that leaves
// the session at epoch 0.
func rejectsStep(t *testing.T, c *http.Client, body string) {
	t.Helper()
	if code, reply := post(t, c, "/v1/step", body); code != http.StatusBadRequest {
		t.Fatalf("step answered %d %v, want 400", code, reply)
	}
	if st := getStatus(t, c); st.Epoch != 0 {
		t.Fatalf("rejected step advanced the session to epoch %d", st.Epoch)
	}
}

// TestDaemonStepRejectsMalformedBody: a body that is not a step request
// steps nothing, while an empty body still steps one epoch.
func TestDaemonStepRejectsMalformedBody(t *testing.T) {
	c := startManualDaemon(t)
	rejectsStep(t, c, `{"epochs": "two"}`)
	rejectsStep(t, c, `{"epochs": 2`)
	if code, _ := post(t, c, "/v1/step", ``); code != http.StatusOK {
		t.Fatalf("empty step body answered %d, want 200", code)
	}
	if st := getStatus(t, c); st.Epoch != 1 {
		t.Fatalf("empty step body left the session at epoch %d, want 1", st.Epoch)
	}
}

// TestDaemonStepRejectsTooManyEpochs: one request may not ask for more
// than maxStepEpochs epochs.
func TestDaemonStepRejectsTooManyEpochs(t *testing.T) {
	c := startManualDaemon(t)
	rejectsStep(t, c, fmt.Sprintf(`{"epochs": %d}`, maxStepEpochs+1))
}

// TestDaemonRejectsOversizedBody: a body over maxBodyBytes is refused
// on every endpoint that reads one, even when it is otherwise valid.
func TestDaemonRejectsOversizedBody(t *testing.T) {
	c := startManualDaemon(t)
	pad := strings.Repeat("x", maxBodyBytes)
	rejectsStep(t, c, `{"epochs": 1, "pad": "`+pad+`"}`)
	code, reply := post(t, c, "/v1/stop", `{"name": "memcached", "pad": "`+pad+`"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized stop answered %d %v, want 400", code, reply)
	}
	if st := getStatus(t, c); st.Pending != 0 {
		t.Fatalf("oversized stop was queued: %d pending", st.Pending)
	}
}
