package main

import "time"

// perLayer lists every per-layer metric of a traced run, in the order of
// BENCHMARK.json. A layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"workload.draw_ns_per_access", "ns"},
	{"system.access_self_ms", "ms"},
	{"system.host_ns_per_access", "ns"},
	{"system.new_ms", "ms"},
	{"cluster.new_ms", "ms"},
	{"serve.new_session_ms", "ms"},
	{"profile.end_epoch_ms.tpp", "ms"},
	{"profile.end_epoch_ms.memtis", "ms"},
	{"profile.end_epoch_ms.nomad", "ms"},
	{"profile.end_epoch_ms.vulcan", "ms"},
	{"policy.end_epoch_ms.tpp", "ms"},
	{"policy.end_epoch_ms.memtis", "ms"},
	{"policy.end_epoch_ms.nomad", "ms"},
	{"core.end_epoch_ms", "ms"},
	{"cluster.run_epoch_ms", "ms"},
	{"cluster.parallel_speedup", "x"},
	{"cluster.moves", "count"},
	{"cluster.deferred", "count"},
	{"serve.api_ms.admit.p50", "ms"},
	{"serve.api_ms.stop.p50", "ms"},
	{"serve.api_ms.intensity.p50", "ms"},
	{"serve.api_ms.status.p50", "ms"},
	{"serve.api_ms.checkpoint.p50", "ms"},
	{"serve.api_ms.shutdown.p50", "ms"},
	{"serve.journal_append_us.p50", "us"},
	{"serve.journal_append_us.tail", "us"},
	{"serve.artifact_bytes", "bytes"},
	{"serve.recover_ms_per_replayed_epoch", "ms"},
	{"serve.recover_replayed_epochs", "count"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.resume_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	{"runtime.alloc_mb_per_epoch", "MB"},
	{"runtime.gc_cycles", "count"},
	{"sim.accesses", "count"},
	{"sim.epochs", "count"},
	{"tlb.hit_rate", "frac"},
	{"tlb.misses", "count"},
	{"tlb.invalidations", "count"},
	{"migrate.async_moved", "count"},
	{"migrate.async_aborted", "count"},
	{"migrate.async_retries", "count"},
	{"prof.cycles.machine", "cycles"},
	{"prof.cycles.migrate", "cycles"},
	{"prof.cycles.profile", "cycles"},
	{"prof.cycles.system", "cycles"},
	{"prof.cycles.tlb", "cycles"},
	{"sim.cfi.tpp", "index"},
	{"sim.cfi.memtis", "index"},
	{"sim.cfi.nomad", "index"},
	{"sim.cfi.vulcan", "index"},
	{"cluster.fleet_cfi", "index"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.unattributed_frac", "frac"},
	{"bench.failed_frac", "frac"},
}

// layerMetrics fills the per-layer metrics the spans of the traced pass
// give; the rest start at 0 for the caller to fill.
func layerMetrics(st map[string]layerTime, tp *pass) map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	perCall := func(span string, total bool) float64 {
		lt := st[span]
		if lt.Count == 0 {
			return 0
		}
		if total {
			return ms(lt.Total) / float64(lt.Count)
		}
		return ms(lt.Self) / float64(lt.Count)
	}
	// perEpoch spreads a span's time over the host-epochs its policy ran.
	perEpoch := func(d time.Duration, policy string) float64 {
		if n := tp.policyEpochs[policy]; n > 0 {
			return ms(d) / float64(n)
		}
		return 0
	}
	set("system.access_self_ms", perCall("system.run_epoch", false))
	set("system.new_ms", perCall("system.new", true))
	set("cluster.new_ms", perCall("cluster.new", true))
	set("serve.new_session_ms", perCall("serve.new_session", true))
	set("cluster.run_epoch_ms", perCall("cluster.run_epoch", true))
	for _, pol := range []string{"tpp", "memtis", "nomad", "vulcan"} {
		set("profile.end_epoch_ms."+pol, perEpoch(st["profile.end_epoch."+pol].Total, pol))
		if pol != "vulcan" {
			set("policy.end_epoch_ms."+pol, perEpoch(st["policy.end_epoch."+pol].Self, pol))
		}
	}
	set("core.end_epoch_ms", perEpoch(st["core.end_epoch"].Self, "vulcan"))
	for _, op := range serveOps {
		if xs := tp.apiByOp[op]; len(xs) > 0 && st["serve.api."+op].Count > 0 {
			set("serve.api_ms."+op+".p50", median(xs))
		}
	}
	return m
}
