package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"

	"vulcan/internal/cluster"
	"vulcan/internal/figures"
	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/obs/prof"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// fleet steps 32 micro-scale hosts (shaped like bench_fleet_test.go)
// under the vulcan policy and scheduler while jobs arrive, depart and
// are rebalanced. Zipf draws dominate its access path, baseline ranking
// is bypassed, and half the jobs are write-heavy, which sends the
// migrate layer down its sync-move and async-abort paths.
const (
	fleetHosts       = 32
	fleetJobs        = 96
	fleetEpochs      = 40
	fleetStatusEvery = 10 // a supervisor polling the fleet report
	fleetTraceUnits  = 2
)

// fleetConfig builds the seeded fleet. profs, when non-nil, arms one
// cost profiler per host; wrapErr receives a policy-wrapping failure.
func fleetConfig(p *pass, workers int, profs []*prof.Profiler, wrapErr *error) cluster.Config {
	rng := rand.New(rand.NewPCG(p.seed, 0xf1ee7))
	mcfg := machine.DefaultConfig()
	mcfg.Cores = 8
	mcfg.Tiers[mem.TierFast].CapacityPages = 256
	mcfg.Tiers[mem.TierSlow].CapacityPages = 4096

	// Arrivals, departures and thread counts are fixed, so every seed
	// offers the same load; the seed deals the footprints out to the
	// jobs and seeds the hosts.
	sizes := make([]int, fleetJobs)
	for i := range sizes {
		sizes[i] = 150 + 40*(i%4)
	}
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	jobs := make([]cluster.JobSpec, 0, fleetJobs)
	for i := 0; i < fleetJobs; i++ {
		class, writeFrac := workload.LC, 0.1
		if i%2 == 1 {
			class, writeFrac = workload.BE, 0.6
		}
		spec := cluster.JobSpec{App: workload.AppConfig{
			Name:           fmt.Sprintf("job%03d", i),
			Class:          class,
			Threads:        2,
			RSSPages:       sizes[i],
			SharedFraction: 0.5,
			ComputeNs:      100 * sim.Nanosecond,
			NewGen: func(pages int, r *sim.RNG) workload.Generator {
				return workload.NewZipfian(pages, 0.99, writeFrac, 0.1, r)
			},
		}}
		if early := 2 * fleetHosts; i < early {
			spec.Arrive = i % 4
		} else {
			spec.Arrive = 4 + (i-early)*(fleetEpochs-8)/(fleetJobs-early)
		}
		if i%4 == 3 {
			spec.Depart = spec.Arrive + 6 + (i/4)%12
		}
		jobs = append(jobs, spec)
	}
	cfg := cluster.Config{
		Hosts: fleetHosts,
		Host: cluster.HostTemplate{
			Machine:     mcfg,
			NewPolicy:   func() system.Tiering { return figures.NewPolicy("vulcan") },
			EpochLength: 10 * sim.Millisecond,
		},
		Scheduler:      "vulcan",
		Jobs:           jobs,
		RebalanceEvery: 3,
		MoveBudget:     2,
		Workers:        workers,
		Seed:           p.seed,
	}
	if p.tr != nil || profs != nil {
		cfg.HostOverride = func(h int, sc *system.Config) {
			if p.tr != nil {
				pol, err := wrapPolicy(sc.Policy, p.tr.lane(h+1))
				if err != nil {
					*wrapErr = err
					return
				}
				sc.Policy = pol
			}
			if profs != nil {
				sc.Prof = profs[h]
			}
		}
	}
	return cfg
}

// hostBase parents the spans host lanes record to the innermost open
// span of the main lane.
func (p *pass) hostBase() {
	if p.tr == nil {
		return
	}
	base := p.lane.current()
	for _, l := range p.tr.lanes[1:] {
		l.base = base
	}
}

// fleetUnit builds the fleet, steps it while polling its report, audits
// every host, and checkpoints and resumes the end state, whose report
// must match.
func fleetUnit(p *pass) {
	workers := p.workers
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	var profs []*prof.Profiler
	if p.prof {
		for h := 0; h < fleetHosts; h++ {
			profs = append(profs, prof.New())
		}
	}
	var wrapErr error
	cfg := fleetConfig(p, workers, profs, &wrapErr)
	var f *cluster.Fleet
	var err error
	setup := p.timed("cluster.new", func() { f, err = cluster.New(cfg) })
	p.setup = append(p.setup, setup.Seconds())
	if !p.op(err) || !p.op(wrapErr) {
		return
	}

	deferred := 0
	var rep bytes.Buffer
	var report cluster.FleetReport
	for e := 1; e <= fleetEpochs; e++ {
		p.epoch("cluster.run_epoch", fleetHosts, func() error {
			p.hostBase()
			return f.RunEpoch()
		})
		for _, j := range f.Jobs() {
			if !j.Done && !j.Placed() && j.Spec.Arrive < f.Epoch() {
				deferred++
			}
		}
		if e%fleetStatusEvery == 0 {
			rep.Reset()
			p.api("report", "cluster.report", func() error {
				report = f.Report()
				return report.WriteJSON(&rep)
			})
		}
	}
	p.policyEpochs["vulcan"] += fleetEpochs * fleetHosts
	var blob bytes.Buffer
	p.api("checkpoint", "cluster.checkpoint", func() error { return f.Checkpoint(&blob) })
	for h := 0; h < f.NumHosts(); h++ {
		sys := f.Host(h).Sys
		var a system.AuditReport
		p.timed("system.audit", func() { a = sys.Audit() })
		p.check(a.Ok(), "fleet host %d: %s %v", h, a, a.Errors)
		var pr *prof.Profiler
		if profs != nil {
			pr = profs[h]
		}
		addSimCounts(p.layer, sys, pr)
	}

	rcfg := fleetConfig(p, workers, nil, &wrapErr)
	var resumed *cluster.Fleet
	d := p.timed("cluster.resume", func() {
		p.hostBase()
		resumed, err = cluster.Resume(bytes.NewReader(blob.Bytes()), rcfg)
	})
	p.recoverS = append(p.recoverS, d.Seconds())
	if p.op(err) {
		var again bytes.Buffer
		p.timed("cluster.report", func() { err = resumed.Report().WriteJSON(&again) })
		p.op(err)
		p.check(bytes.Equal(again.Bytes(), rep.Bytes()), "fleet: resumed report differs")
	}

	p.layer["cluster.moves"] = float64(report.Moves)
	p.layer["cluster.deferred"] = float64(deferred)
	p.layer["cluster.fleet_cfi"] = report.FleetCFI
	sum := sha256.Sum256(rep.Bytes())
	p.checkDigest(hex.EncodeToString(sum[:]))
}

// fleetLayers replays the jobs' generators, and traces the same fleet
// at workers=1: the parallel speedup compares its Fleet.RunEpoch time
// with the traced pass's at nproc workers, and with one worker the
// epoch span's self time is the hosts' access path (plus the serial
// scheduling and rollup phases).
func fleetLayers(o options, tp *pass, out map[string]float64) ([]*pass, error) {
	var apps []workload.AppConfig
	for _, j := range fleetConfig(tp, 1, nil, new(error)).Jobs {
		apps = append(apps, j.App)
	}
	out["workload.draw_ns_per_access"] = drawNs(apps, o.seed, 20_000)

	serial := newPass(o.workload, o.seed)
	serial.workers = 1
	serial.traceWith(newTracer())
	measure(spec{unit: fleetUnit}, serial, 0, tp.units, tp.units)
	one := selfTimes(serial.tr.all())["cluster.run_epoch"]
	many := selfTimes(tp.tr.all())["cluster.run_epoch"]
	if many.Total > 0 {
		out["cluster.parallel_speedup"] = float64(one.Total) / float64(many.Total)
	}
	out["system.access_self_ms"] = ms(one.Self) / float64(serial.hostEpochs)
	return []*pass{serial}, nil
}
