package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
)

// Plane B: self-profiling of the simulator process itself, as opposed
// to the simulated cost accounting above. These are thin, path-based
// wrappers around runtime/pprof and runtime/metrics so cmd/vulcansim,
// cmd/figures and the benchmarks share one implementation. Wall-clock
// CPU and heap profiles are inherently nondeterministic and are never
// part of the replay contract.

// StartCPUProfile begins a CPU profile to path and returns the stop
// function that ends the profile and closes the file.
func StartCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("prof: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("prof: cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile forces a GC (so the allocation picture is current)
// and writes a heap profile to path.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("prof: heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("prof: heap profile: %w", err)
	}
	return f.Close()
}

// SelfStats is a snapshot of the process's GC and allocation counters,
// read from runtime/metrics.
type SelfStats struct {
	GCCycles     uint64 // completed GC cycles
	AllocBytes   uint64 // cumulative heap bytes allocated
	AllocObjects uint64 // cumulative heap objects allocated
}

// ReadSelfStats samples the runtime's GC/allocation counters.
//
//vulcan:keep the root package's figure benchmarks report GC and allocation deltas through it
func ReadSelfStats() SelfStats {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(samples)
	var s SelfStats
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.GCCycles = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.AllocBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		s.AllocObjects = samples[2].Value.Uint64()
	}
	return s
}

// Sub returns the counter deltas since an earlier snapshot.
func (s SelfStats) Sub(since SelfStats) SelfStats {
	return SelfStats{
		GCCycles:     s.GCCycles - since.GCCycles,
		AllocBytes:   s.AllocBytes - since.AllocBytes,
		AllocObjects: s.AllocObjects - since.AllocObjects,
	}
}
