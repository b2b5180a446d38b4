package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"time"

	"vulcan/internal/figures"
	"vulcan/internal/obs/prof"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// colo is the paper's headline experiment (Table 2 apps, Fig 10): the
// three apps start together, cold, on one host, once under each policy
// in turn. It is where baseline EndEpoch ranking does most of its work.
const (
	coloScale           = 4  // capacity divisor on top of mem.Scale
	coloEpochs          = 30 // simulated seconds per policy run
	coloCheckpointEvery = 15 // the figure pipeline's interim checkpoints
)

var coloPolicies = []string{"tpp", "memtis", "nomad", "vulcan"}

// coloConfig builds one policy run's system config.
func coloConfig(p *pass, policy string) (system.Config, error) {
	cfg := system.Config{
		Machine:          figures.ColocationMachine(coloScale),
		Apps:             figures.Table2Apps(coloScale, false),
		Policy:           figures.NewPolicy(policy),
		Seed:             p.seed,
		SamplesPerThread: figures.SamplesForScale(coloScale),
	}
	if p.tr != nil {
		pol, err := wrapPolicy(cfg.Policy, p.lane)
		if err != nil {
			return cfg, err
		}
		cfg.Policy = pol
	}
	return cfg, nil
}

// coloUnit runs every policy once. Per policy: build, run with interim
// checkpoints, report (which audits frame ownership), then resume the
// end-state checkpoint and require the resumed report to match.
func coloUnit(p *pass) {
	h := sha256.New()
	var setup, recov time.Duration
	for _, pol := range coloPolicies {
		cfg, err := coloConfig(p, pol)
		if !p.op(err) {
			continue
		}
		var pr *prof.Profiler
		if p.prof {
			pr = prof.New()
			cfg.Prof = pr
		}
		var sys *system.System
		setup += p.timed("system.new", func() { sys = system.New(cfg) })

		var blob bytes.Buffer
		var encode time.Duration
		for e := 1; e <= coloEpochs; e++ {
			p.epoch("system.run_epoch", 1, func() error { sys.RunEpoch(); return nil })
			if e%coloCheckpointEvery == 0 {
				blob.Reset()
				t := time.Now()
				p.api("checkpoint", "checkpoint.encode", func() error { return sys.Checkpoint(&blob) })
				encode = time.Since(t)
			}
		}
		p.policyEpochs[pol] += coloEpochs
		var rep bytes.Buffer
		var report system.Report
		p.api("report", "system.report", func() error {
			report = sys.Report()
			return report.WriteJSON(&rep)
		})
		p.check(report.AuditOK, "colo %s: audit: %s", pol, strings.Join(report.AuditProblems, "; "))
		h.Write(rep.Bytes())

		rcfg, err := coloConfig(p, pol)
		p.op(err)
		var resumed *system.System
		d := p.timed("checkpoint.resume", func() {
			resumed, err = system.Resume(bytes.NewReader(blob.Bytes()), rcfg)
		})
		recov += d
		if p.op(err) {
			var again bytes.Buffer
			p.timed("system.report", func() { err = resumed.Report().WriteJSON(&again) })
			p.op(err)
			p.check(bytes.Equal(again.Bytes(), rep.Bytes()), "colo %s: resumed report differs", pol)
		}

		p.layer["checkpoint.encode_ms"] += ms(encode) / float64(len(coloPolicies))
		p.layer["checkpoint.resume_ms"] += ms(d) / float64(len(coloPolicies))
		p.layer["checkpoint.bytes"] += float64(blob.Len()) / float64(len(coloPolicies))
		p.layer["sim.cfi."+pol] = sys.CFI().Index()
		addSimCounts(p.layer, sys, pr)
	}
	p.setup = append(p.setup, setup.Seconds())
	p.recoverS = append(p.recoverS, recov.Seconds())
	p.checkDigest(hex.EncodeToString(h.Sum(nil)))
}

// tlbHits accumulates TLB hits for tlb.hit_rate; it is not reported.
const tlbHits = "_tlb_hits"

// profTops are the cost profiler's top-level paths that are reported
// (fault injection, the remaining one, is off in every workload).
var profTops = map[string]bool{"machine": true, "migrate": true, "profile": true, "system": true, "tlb": true}

// addSimCounts adds a finished system's exact simulated counts to out.
func addSimCounts(out map[string]float64, sys *system.System, pr *prof.Profiler) {
	var hits, misses float64
	for _, a := range sys.Apps() {
		ts := a.TLBStats()
		hits += float64(ts.Hits)
		misses += float64(ts.Misses)
		out["tlb.invalidations"] += float64(ts.Invalidations)
		if a.Async != nil {
			as := a.Async.Stats()
			out["migrate.async_moved"] += float64(as.Moved)
			out["migrate.async_aborted"] += float64(as.Aborted)
			out["migrate.async_retries"] += float64(as.Retries)
		}
	}
	out["tlb.misses"] += misses
	out[tlbHits] += hits
	out["sim.epochs"] += float64(sys.Epoch())
	if pr == nil {
		return
	}
	for _, acc := range pr.Accounts() {
		top, _, _ := strings.Cut(acc.Path(), "/")
		if profTops[top] {
			out["prof.cycles."+top] += acc.Cycles()
		}
		if acc.Path() == "system/compute" {
			out["sim.accesses"] += float64(acc.Count())
		}
	}
}

// coloLayers replays each app's access generator on its own.
func coloLayers(o options, _ *pass, out map[string]float64) ([]*pass, error) {
	out["workload.draw_ns_per_access"] = drawNs(figures.Table2Apps(coloScale, false), o.seed, 400_000)
	return nil, nil
}

// drawNs builds each app's generator from its public NewGen, seeded from
// the run's seed, and returns the mean host time of one draw.
func drawNs(apps []workload.AppConfig, seed uint64, draws int) float64 {
	var total time.Duration
	n := 0
	for i, a := range apps {
		g := a.NewGen(a.RSSPages, sim.NewRNG(seed+uint64(i)+1))
		t := time.Now()
		for k := 0; k < draws; k++ {
			sink += g.Next().Page
		}
		total += time.Since(t)
		n += draws
	}
	return float64(total.Nanoseconds()) / float64(n)
}

// sink keeps generator draws observable so the compiler keeps them.
var sink int
