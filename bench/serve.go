package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vulcan/internal/scenario"
	"vulcan/internal/serve"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// serve drives an in-process vulcand daemon in manual pacing over its
// unix socket with one client connection: a seeded script of one-epoch
// steps with admissions, stops, intensity changes, status reads and
// checkpoints mixed in. Every executed batch is fsync-journaled, rolling
// checkpoints and trace/CSV streaming are on, and the scenario is small,
// so the journal, checkpoint, telemetry and HTTP layers carry a large
// share of the work. The session then suspends and is recovered.
const (
	serveScale           = 16
	serveSteps           = 57 // not a multiple of serveCheckpointEvery: recovery replays a tail
	serveCheckpointEvery = 10
	serveExplicitBefore  = 40 // explicit checkpoints stay below the last rolling one
	serveBlock           = 10 // steps per block of the client script
	serveDir             = ".bench_build/serve"
)

// serveOps are the control-plane operations the script sends.
var serveOps = []string{"admit", "stop", "intensity", "status", "checkpoint", "shutdown"}

func serveOptions(seed uint64) serve.Options {
	return serve.Options{
		Scenario: scenario.File{
			Policy:  "vulcan",
			Seconds: 100_000, // the script suspends long before the target
			Seed:    seed,
			Scale:   serveScale,
			Apps:    []scenario.App{{Preset: "memcached"}},
		},
		TraceOut:         filepath.Join(serveDir, "trace.json"),
		MetricsOut:       filepath.Join(serveDir, "metrics.csv"),
		Journal:          filepath.Join(serveDir, "run.journal"),
		CheckpointBase:   filepath.Join(serveDir, "run.ckpt"),
		CheckpointEvery:  serveCheckpointEvery,
		CheckpointRetain: 2,
	}
}

// serveJob is the spec of a job the script admits.
func serveJob(name string) *scenario.App {
	return &scenario.App{Name: name, Class: "BE", Threads: 2, RSSPages: 1024,
		Generator: "uniform", WriteFrac: 0.3}
}

// client talks HTTP/JSON to the daemon over one unix-socket connection.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient(socket string) *client {
	tr := &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", socket)
		},
		MaxConnsPerHost:    1,
		DisableCompression: true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr}
}

// do sends one request; a non-2xx reply is an error.
func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, "http://vulcand"+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// cmdBody is the wire shape of the admit, stop and intensity endpoints.
type cmdBody struct {
	App   *scenario.App `json:"app,omitempty"`
	Name  string        `json:"name,omitempty"`
	Milli int           `json:"milli,omitempty"`
}

// scriptOp is one control-plane request of the client script.
type scriptOp struct {
	op   string
	body any
}

// serveScript returns, per step, the requests sent before it. Every
// block of serveBlock steps sends the same requests at the same steps,
// so the work is nearly the same for every seed: two admissions and one
// stop (the tenant set grows by one job a block), an intensity change
// on memcached undone one step later, two status reads and, below
// serveExplicitBefore, one explicit checkpoint (so recovery always
// replays the steps after the last rolling checkpoint). The seed picks
// the stopped job, the intensity and where the status reads, the
// intensity change and the checkpoint fall.
func serveScript(seed uint64) [][]scriptOp {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	script := make([][]scriptOp, serveSteps)
	var running []string // jobs admitted at an earlier step
	admitted := 0
	for base := 0; base+serveBlock <= serveSteps; base += serveBlock {
		at := func(k int, op scriptOp) { script[base+k] = append(script[base+k], op) }
		// Seed-placed requests go to steps 1..serveBlock-2 of the block:
		// memcached is admitted by the first epoch, and the intensity
		// reset needs the step after its set.
		free := rng.Perm(serveBlock - 2)
		set := 1 + free[0]
		at(set, scriptOp{"intensity", cmdBody{Name: "memcached", Milli: 500 + 250*rng.IntN(5)}})
		at(set+1, scriptOp{"intensity", cmdBody{Name: "memcached", Milli: 1000}})
		at(1+free[1], scriptOp{"status", nil})
		at(1+free[2], scriptOp{"status", nil})
		if base+serveBlock <= serveExplicitBefore {
			at(1+free[3], scriptOp{"checkpoint", nil})
		}
		for _, k := range []int{1, 5} {
			name := fmt.Sprintf("job%d", admitted)
			admitted++
			at(k, scriptOp{"admit", cmdBody{App: serveJob(name)}})
			running = append(running, name)
		}
		i := rng.IntN(len(running))
		at(8, scriptOp{"stop", cmdBody{Name: running[i]}})
		running = slices.Delete(running, i, i+1)
	}
	return script
}

// serveArtifacts hashes the files a session leaves, in a fixed order.
func serveArtifacts(o serve.Options) (string, error) {
	h := sha256.New()
	for _, path := range []string{o.Journal, o.TraceOut, o.MetricsOut} {
		b, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// serveUnit runs one scripted daemon session, suspends it, recovers it
// from its journal and newest rolling checkpoint, and requires the
// recovered session to reach the same report and artifact bytes.
func serveUnit(p *pass) {
	opts := serveOptions(p.seed)
	if !p.op(os.RemoveAll(serveDir)) || !p.op(os.MkdirAll(serveDir, 0o755)) {
		return
	}
	socket := filepath.Join(serveDir, "d.sock")
	var s *serve.Session
	var d *serve.Daemon
	var err error
	setup := p.timed("serve.new_session", func() {
		if s, err = serve.NewSession(opts); err == nil {
			d, err = serve.NewDaemon(s, socket, nil)
		}
	})
	p.setup = append(p.setup, setup.Seconds())
	if !p.op(err) {
		if s != nil {
			s.Suspend() // release the session's files; the failure is counted
		}
		return
	}
	done := make(chan error, 1)
	go func() { done <- d.Run() }()
	c := newClient(socket)
	defer c.tr.CloseIdleConnections()

	call := func(op, method, path string, body, out any) {
		p.api(op, "serve.api."+op, func() error { return c.do(method, path, body, out) })
	}
	var st serve.StatusReply
	for _, ops := range serveScript(p.seed) {
		for _, o := range ops {
			if o.op == "status" {
				call("status", http.MethodGet, "/v1/status", nil, &st)
			} else {
				call(o.op, http.MethodPost, "/v1/"+o.op, o.body, nil)
			}
		}
		p.epoch("serve.step", 1, func() error {
			return c.do(http.MethodPost, "/v1/step", map[string]int{"epochs": 1}, &st)
		})
	}
	p.check(len(st.Errs) == 0, "serve: rejected commands: %v", st.Errs)
	call("shutdown", http.MethodPost, "/v1/shutdown", nil, nil)
	select {
	case err = <-done:
		p.op(err)
	case <-time.After(60 * time.Second):
		p.op(fmt.Errorf("serve: daemon did not stop within 60s"))
		return
	}

	// The daemon has returned: the session is the caller's again.
	var liveRep bytes.Buffer
	p.timed("system.report", func() { err = s.WriteReport(&liveRep, true) })
	p.op(err)
	var a system.AuditReport
	p.timed("system.audit", func() { a = s.System().Audit() })
	p.check(a.Ok(), "serve: %s %v", a, a.Errors)
	addSimCounts(p.layer, s.System(), nil)
	p.layer["sim.cfi.vulcan"] = s.System().CFI().Index()
	arts, err := serveArtifacts(opts)
	p.op(err)

	var rs *serve.Session
	replayed := 0
	recov := p.timed("serve.recover", func() {
		if rs, err = serve.Recover(opts); err != nil {
			return
		}
		replayed = serveSteps - rs.Epoch()
		for rs.Epoch() < serveSteps && err == nil {
			err = rs.Step()
		}
	})
	p.recoverS = append(p.recoverS, recov.Seconds())
	if !p.op(err) {
		return
	}
	var again bytes.Buffer
	p.timed("system.report", func() { err = rs.WriteReport(&again, true) })
	p.op(err)
	p.check(bytes.Equal(again.Bytes(), liveRep.Bytes()), "serve: recovered report differs")
	p.op(rs.Suspend())
	arts2, err := serveArtifacts(opts)
	p.op(err)
	p.check(arts2 == arts, "serve: recovered artifacts differ")

	p.layer["serve.recover_replayed_epochs"] = float64(replayed)
	if replayed > 0 {
		p.layer["serve.recover_ms_per_replayed_epoch"] = ms(recov) / float64(replayed)
	}
	p.layer["serve.artifact_bytes"] = float64(dirBytes(serveDir))
	sum := sha256.Sum256(append(liveRep.Bytes(), arts...))
	p.checkDigest(hex.EncodeToString(sum[:]))
}

// dirBytes totals the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// serveLayers re-appends the last traced session's journal batches with
// fsync through the public Journal API, several rounds into fresh
// journals, and times each append.
func serveLayers(o options, tp *pass, out map[string]float64) ([]*pass, error) {
	out["workload.draw_ns_per_access"] = serveDrawNs(o.seed)
	opts := serveOptions(o.seed)
	jd, err := serve.ReadJournal(opts.Journal)
	if err != nil {
		return nil, fmt.Errorf("serve: reading journal: %w", err)
	}
	if len(jd.Batches) == 0 {
		return nil, fmt.Errorf("serve: the session journaled no batches")
	}
	var us []float64
	for round := 0; len(us) < 200; round++ {
		j, err := serve.CreateJournal(filepath.Join(serveDir, fmt.Sprintf("append%d.journal", round)), jd.Header)
		if err != nil {
			return nil, err
		}
		for _, b := range jd.Batches {
			t := time.Now()
			err := j.Append(b)
			us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
			if err != nil {
				j.Close()
				return nil, err
			}
		}
		if err := j.Close(); err != nil {
			return nil, err
		}
	}
	q := summarize(us, 0)
	out["serve.journal_append_us.p50"] = q.P50
	out["serve.journal_append_us.tail"] = q.Tail
	fmt.Printf("serve.journal_append_us: p50 %.4g, p%g %.4g over %d appends\n", q.P50, q.Pct, q.Tail, q.N)

	// The daemon's own journal appends, rolling checkpoints and HTTP
	// handling happen inside /v1/step and are not spanned: estimate their
	// share of the traced wall time from the medians measured on their own.
	wall := float64(tp.wall.Nanoseconds()) / 1e6
	units := float64(tp.units)
	share := func(n, eachMs float64) float64 { return 100 * n * eachMs / wall }
	fmt.Printf("serve share of traced wall (estimates): journal fsync %.1f%%, rolling checkpoints %.1f%%, HTTP round trips %.1f%%\n",
		share(units*float64(len(jd.Batches)), q.P50/1e3),
		share(units*float64(serveSteps/serveCheckpointEvery), median(tp.apiByOp["checkpoint"])),
		share(float64(len(tp.apiMs)+len(tp.epochMs)), median(tp.apiByOp["status"])))
	return nil, nil
}

// serveDrawNs replays the generators of the session's apps: the
// memcached preset and the admitted jobs' template.
func serveDrawNs(seed uint64) float64 {
	f := serveOptions(seed).Scenario
	mc, err := scenario.ResolveApp(f.Apps[0], serveScale)
	if err != nil {
		return 0
	}
	jobApp, err := scenario.ResolveApp(*serveJob("job"), serveScale)
	if err != nil {
		return 0
	}
	return drawNs([]workload.AppConfig{mc, jobApp}, seed, 400_000)
}
