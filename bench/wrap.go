package main

import (
	"fmt"

	"vulcan/internal/checkpoint"
	"vulcan/internal/profile"
	"vulcan/internal/system"
)

// The wrappers below put spans around a policy's and its profilers'
// epoch hooks. The system discovers optional behaviour by type
// assertion, so a wrapper must have exactly the optional interfaces of
// the value it wraps: a missing one changes the simulation, an extra one
// (a checkpoint section, a placement hook) changes it too. Each
// supported combination is therefore its own struct type built from
// embedded forwarders.

// tracedPolicy forwards the system.Tiering methods, timing the hooks.
type tracedPolicy struct {
	inner  system.Tiering
	lane   *lane
	prefix string // "core" for Vulcan, "policy" for the baselines
	suffix string // "" for Vulcan, ".<name>" for the baselines
}

func (p *tracedPolicy) Name() string                  { return p.inner.Name() }
func (p *tracedPolicy) Mechanisms() system.Mechanisms { return p.inner.Mechanisms() }
func (p *tracedPolicy) span(hook string) int          { return p.lane.begin(p.prefix + "." + hook + p.suffix) }
func (p *tracedPolicy) AppStarted(s *system.System, a *system.App) {
	i := p.span("app_started")
	p.inner.AppStarted(s, a)
	p.lane.end(i)
}
func (p *tracedPolicy) EndEpoch(s *system.System) {
	i := p.span("end_epoch")
	p.inner.EndEpoch(s)
	p.lane.end(i)
}

type rescorerFwd struct{ p *tracedPolicy }

func (f rescorerFwd) Reevaluate(s *system.System, dirty []*system.App) {
	i := f.p.span("reevaluate")
	f.p.inner.(system.Rescorer).Reevaluate(s, dirty)
	f.p.lane.end(i)
}

type stopperFwd struct{ p *tracedPolicy }

func (f stopperFwd) AppStopped(s *system.System, a *system.App) {
	i := f.p.span("app_stopped")
	f.p.inner.(system.AppStopper).AppStopped(s, a)
	f.p.lane.end(i)
}

// factoryFwd wraps every profiler the policy builds.
type factoryFwd struct{ p *tracedPolicy }

func (f factoryFwd) NewProfiler(a *system.App) profile.Profiler {
	return wrapProfiler(f.p.inner.(system.ProfilerFactory).NewProfiler(a), f.p.lane,
		"profile.end_epoch."+f.p.inner.Name())
}

const (
	hasPlacer = 1 << iota
	hasRescorer
	hasStopper
	hasFactory
	hasSnapshotter
)

// wrapPolicy returns p with spans on lane l. It refuses an
// optional-interface set it has no wrapper type for rather than drop
// one silently.
func wrapPolicy(p system.Tiering, l *lane) (system.Tiering, error) {
	t := &tracedPolicy{inner: p, lane: l, prefix: "policy", suffix: "." + p.Name()}
	if p.Name() == "vulcan" {
		t.prefix, t.suffix = "core", ""
	}
	mask := 0
	pl, ok := p.(system.Placer)
	if ok {
		mask |= hasPlacer
	}
	if _, ok := p.(system.Rescorer); ok {
		mask |= hasRescorer
	}
	if _, ok := p.(system.AppStopper); ok {
		mask |= hasStopper
	}
	if _, ok := p.(system.ProfilerFactory); ok {
		mask |= hasFactory
	}
	sn, ok := p.(checkpoint.Snapshotter)
	if ok {
		mask |= hasSnapshotter
	}
	switch mask {
	case 0:
		return t, nil
	case hasFactory:
		return struct {
			*tracedPolicy
			factoryFwd
		}{t, factoryFwd{t}}, nil
	case hasPlacer | hasFactory:
		return struct {
			*tracedPolicy
			system.Placer
			factoryFwd
		}{t, pl, factoryFwd{t}}, nil
	case hasPlacer | hasRescorer | hasStopper | hasFactory | hasSnapshotter:
		return struct {
			*tracedPolicy
			system.Placer
			rescorerFwd
			stopperFwd
			factoryFwd
			checkpoint.Snapshotter
		}{t, pl, rescorerFwd{t}, stopperFwd{t}, factoryFwd{t}, sn}, nil
	}
	return nil, fmt.Errorf("bench: no traced wrapper for policy %q (optional interfaces %05b)", p.Name(), mask)
}

// tracedProfiler times EndEpoch (the harvest) and forwards the rest;
// Record is the per-access hot path and gets no span.
type tracedProfiler struct {
	profile.Profiler
	lane *lane
	name string
}

func (p *tracedProfiler) EndEpoch() profile.EpochReport {
	i := p.lane.begin(p.name)
	r := p.Profiler.EndEpoch()
	p.lane.end(i)
	return r
}

func wrapProfiler(p profile.Profiler, l *lane, name string) profile.Profiler {
	t := &tracedProfiler{Profiler: p, lane: l, name: name}
	if sn, ok := p.(checkpoint.Snapshotter); ok {
		return struct {
			*tracedProfiler
			checkpoint.Snapshotter
		}{t, sn}
	}
	return t
}
