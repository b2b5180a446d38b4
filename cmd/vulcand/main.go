// Command vulcand serves one tiered-memory scenario as a long-running
// daemon: the simulation advances epoch by epoch under an injected
// pacer while a unix-socket HTTP/JSON control API accepts admissions,
// departures and intensity changes between epochs. Every executed
// command is journaled; replaying the journal through the batch
// machinery (vulcansim -replay-journal) reproduces the run's report,
// trace and metrics byte for byte.
//
// Usage:
//
//	vulcand -config scen.json -socket /tmp/v.sock -journal run.journal
//	vulcand ... -speed 4                  # 4 epochs per wall second
//	vulcand ... -speed 0                  # manual mode: POST /v1/step
//	vulcand ... -checkpoint-base run.ckpt -checkpoint-every 30 -checkpoint-retain 3
//	vulcand -resume -config scen.json -journal run.journal -checkpoint-base run.ckpt
//
// Client mode posts one API call over the socket and prints the reply
// (no curl needed in scripts):
//
//	vulcand -socket /tmp/v.sock -post /v1/admit -data '{"app":{"preset":"memcached"},"depart":40}'
//	vulcand -socket /tmp/v.sock -post /v1/step -data '{"epochs":10}'
//	vulcand -socket /tmp/v.sock -get /v1/status
//	vulcand -socket /tmp/v.sock -post /v1/shutdown
//
// Control API (all under the unix socket):
//
//	POST /v1/admit      {"app":{...scenario app...},"name":"n","depart":E}
//	POST /v1/stop       {"name":"n"}
//	POST /v1/intensity  {"name":"n","milli":500}
//	POST /v1/step       {"epochs":N}     (manual mode only)
//	GET  /v1/status
//	POST /v1/checkpoint
//	POST /v1/shutdown                    (suspends resumably mid-run)
//
// Shutdown before the epoch target suspends the run resumably: the
// journal keeps no finish trailer and -resume continues it (from the
// newest rolling checkpoint when -checkpoint-base is armed, else by
// replaying the journal from the start — slower, same bytes). SIGINT
// and SIGTERM trigger the same resumable suspension.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vulcan/internal/scenario"
	"vulcan/internal/serve"
)

func main() {
	var (
		configPath = flag.String("config", "", "scenario JSON file (see internal/scenario); required to serve")
		socket     = flag.String("socket", "", "unix socket path for the control API (required)")
		journal    = flag.String("journal", "", "command journal path (required to serve; the run's reproducibility record)")
		traceOut   = flag.String("trace-out", "", "stream a Chrome trace-event JSON file as the run advances")
		metricsOut = flag.String("metrics-out", "", "stream per-epoch metric samples as CSV")
		reportOut  = flag.String("report-out", "", "write the final report to this file (default stdout)")
		jsonOut    = flag.Bool("json", false, "emit the final report as JSON")
		ckptBase   = flag.String("checkpoint-base", "", "rolling checkpoint base path (images land at base.tNNN.ext)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "write a rolling checkpoint every N epochs (needs -checkpoint-base)")
		ckptRetain = flag.Int("checkpoint-retain", 2, "keep the newest N rolling checkpoints (0 = all)")
		speed      = flag.Float64("speed", 1, "epochs per wall-clock second; 0 = manual stepping via POST /v1/step")
		rescore    = flag.Bool("rescore", false, "use the incremental rescore path")
		resume     = flag.Bool("resume", false, "recover a killed or suspended run from its journal and newest rolling checkpoint")
		postPath   = flag.String("post", "", "client mode: POST this API path over -socket and print the reply")
		getPath    = flag.String("get", "", "client mode: GET this API path over -socket and print the reply")
		data       = flag.String("data", "", "client mode: JSON request body for -post")
	)
	flag.Parse()

	if *socket == "" {
		log.Fatal("-socket is required")
	}
	if *postPath != "" || *getPath != "" {
		if *postPath != "" && *getPath != "" {
			log.Fatal("-post and -get are mutually exclusive")
		}
		os.Exit(client(*socket, *postPath, *getPath, *data))
	}

	if *journal == "" {
		log.Fatal("-journal is required: the journal is the run's reproducibility record")
	}
	if *ckptEvery < 0 || *ckptRetain < 0 {
		log.Fatal("-checkpoint-every and -checkpoint-retain must be >= 0")
	}
	if *ckptEvery > 0 && *ckptBase == "" {
		log.Fatal("-checkpoint-every needs -checkpoint-base")
	}
	if *speed < 0 {
		log.Fatal("-speed must be >= 0")
	}

	opts := serve.Options{
		TraceOut:         *traceOut,
		MetricsOut:       *metricsOut,
		Journal:          *journal,
		CheckpointBase:   *ckptBase,
		CheckpointEvery:  *ckptEvery,
		CheckpointRetain: *ckptRetain,
		Rescore:          *rescore,
	}

	var s *serve.Session
	var err error
	if *resume {
		// The journal header carries the scenario and simulation knobs; a
		// -config here would be ignored, which should not pass silently.
		if *configPath != "" {
			log.Fatal("-resume reads the scenario from the journal header; drop -config")
		}
		if s, err = serve.Recover(opts); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "recovered %s at epoch %d/%d\n", *journal, s.Epoch(), s.Target())
	} else {
		if *configPath == "" {
			log.Fatal("-config is required (or -resume to continue an existing journal)")
		}
		f, err := os.Open(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		file, err := scenario.LoadFile(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		opts.Scenario = file
		if s, err = serve.NewSession(opts); err != nil {
			log.Fatal(err)
		}
	}

	// The pace closure is the only wall-clock in the serving stack: the
	// simulation tree below internal/serve stays deterministic and
	// sleep-free, and tests inject channel-metered pacers instead.
	var pace func()
	if *speed > 0 {
		interval := time.Duration(float64(time.Second) / *speed)
		pace = func() { time.Sleep(interval) }
	}

	d, err := serve.NewDaemon(s, *socket, pace)
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(*socket)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "signal: suspending resumably")
		d.Stop()
	}()

	mode := "manual (POST /v1/step)"
	if pace != nil {
		mode = fmt.Sprintf("%g epochs/s", *speed)
	}
	fmt.Fprintf(os.Stderr, "vulcand serving on %s, epoch %d/%d, pacing %s\n",
		*socket, s.Epoch(), s.Target(), mode)
	if err := d.Run(); err != nil {
		log.Fatal(err)
	}

	if !s.Finished() || s.Epoch() < s.Target() {
		fmt.Fprintf(os.Stderr, "suspended at epoch %d/%d; resume with -resume\n", s.Epoch(), s.Target())
		return
	}
	out := os.Stdout
	if *reportOut != "" {
		f, err := os.Create(*reportOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := s.WriteReport(out, *jsonOut); err != nil {
		log.Fatal(err)
	}
}

// client performs one API call over the unix socket and prints the
// reply body; the exit code reflects the HTTP status.
func client(socket, postPath, getPath, data string) int {
	c := &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", socket)
			},
		},
	}
	var resp *http.Response
	var err error
	if getPath != "" {
		resp, err = c.Get("http://vulcand" + getPath)
	} else {
		resp, err = c.Post("http://vulcand"+postPath, "application/json", strings.NewReader(data))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer resp.Body.Close()
	io.Copy(os.Stdout, resp.Body)
	if resp.StatusCode >= 400 {
		return 1
	}
	return 0
}
