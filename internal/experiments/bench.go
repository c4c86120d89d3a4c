package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"critload/internal/gpu"
	"critload/internal/workloads"
)

// BenchCase is one workload/size pair of the tracked performance baseline
// (BENCH_sim.json). The base sizes are chosen so the naive serial engine
// finishes each case in seconds — the baseline is re-measured on every
// change, and the same cases back BenchmarkEngine in bench_test.go. The 4x
// and 8x variants of the memory-bound pair deliberately run minutes on the
// serial engine: they are the long-run targets where engine overheads
// amortize and where checkpoint reuse has real prefixes to skip; cmd/bench
// measures anything past its long-run cutoff once instead of best-of-N.
type BenchCase struct {
	Name string
	Size int
	// MemoryBound marks the cases the fast-forward acceptance criterion is
	// judged on: long DRAM stalls are where event-horizon skipping pays.
	MemoryBound bool
}

// BenchCases returns the baseline workload set: compute-bound controls where
// skipping cannot pay, one throughput-bound graph traversal whose per-cycle
// L1 retries are irreducible under byte-identity (every attempt mutates the
// Figure 3 outcome counters, pinning the horizon), and memory-latency-bound
// cases where most cycles are pure memory waits and event-horizon skipping
// dominates. The MemoryBound rows carry the ≥2x acceptance criterion.
func BenchCases() []BenchCase {
	return []BenchCase{
		{Name: "2mm", Size: 32, MemoryBound: false},
		{Name: "srad", Size: 32, MemoryBound: false},
		{Name: "bfs", Size: 256, MemoryBound: false},
		{Name: "spmv", Size: 64, MemoryBound: true},
		// At 4x/8x, spmv stops being latency-bound: enough rows keep the
		// LD/ST and partition queues busy that most cycles retry a head
		// access and pin the horizon (skipped fraction falls from ~69% to
		// ~17%), so these rows are long-run targets, not part of the
		// fast-forward acceptance geomean.
		{Name: "spmv", Size: 256, MemoryBound: false},
		{Name: "spmv", Size: 512, MemoryBound: false},
		{Name: "grm", Size: 48, MemoryBound: true},
		{Name: "grm", Size: 64, MemoryBound: true},
		{Name: "grm", Size: 192, MemoryBound: true},
		// grm crosses over later than spmv — 4x is still latency-bound
		// (63% skipped) — but at 8x occupancy is high enough that retry
		// traffic pins the horizon too (44.9% skipped).
		{Name: "grm", Size: 384, MemoryBound: false},
	}
}

// EngineMeasurement is one engine's cost running one BenchCase.
type EngineMeasurement struct {
	WallSeconds float64 `json:"wall_seconds"`
	Cycles      int64   `json:"cycles"`
	// SkippedCycles is how many of Cycles the engine fast-forwarded over
	// (0 for the naive engine by construction).
	SkippedCycles   int64   `json:"skipped_cycles"`
	WarpInsts       uint64  `json:"warp_insts"`
	CyclesPerSec    float64 `json:"cycles_per_sec"`
	WarpInstsPerSec float64 `json:"warp_insts_per_sec"`
	// Heap traffic for the whole run (input generation included, identical
	// for both engines), from runtime.MemStats deltas.
	Mallocs          uint64  `json:"mallocs"`
	AllocBytes       uint64  `json:"alloc_bytes"`
	MallocsPerKCycle float64 `json:"mallocs_per_kcycle"`
}

// MeasureEngine runs one baseline case on the chosen engine and reports wall
// time, simulation throughput and heap traffic for the simulation alone:
// workload input generation happens outside the measured window. Each call
// builds a fresh GPU and workload instance, so successive measurements are
// independent.
func MeasureEngine(c BenchCase, seed int64, fastForward bool) (EngineMeasurement, error) {
	cfg := gpu.DefaultConfig()
	cfg.FastForward = fastForward
	opts := Options{Size: c.Size, Seed: seed, GPU: &cfg}

	w, ok := workloads.Get(c.Name)
	if !ok {
		return EngineMeasurement{}, fmt.Errorf("bench: unknown workload %q", c.Name)
	}
	inst, err := w.Setup(workloads.Params{Size: c.Size, Seed: seed})
	if err != nil {
		return EngineMeasurement{}, fmt.Errorf("bench %s setup: %w", c.Name, err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	run, err := runTimingInst(context.Background(), w, inst, opts)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return EngineMeasurement{}, fmt.Errorf("bench %s (fastforward=%v): %w", c.Name, fastForward, err)
	}

	m := EngineMeasurement{
		WallSeconds:   wall,
		Cycles:        run.Cycles,
		SkippedCycles: run.SkippedCycles,
		WarpInsts:     run.Col.WarpInsts,
		Mallocs:       after.Mallocs - before.Mallocs,
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
	}
	if wall > 0 {
		m.CyclesPerSec = float64(run.Cycles) / wall
		m.WarpInstsPerSec = float64(run.Col.WarpInsts) / wall
	}
	if run.Cycles > 0 {
		m.MallocsPerKCycle = 1000 * float64(m.Mallocs) / float64(run.Cycles)
	}
	return m, nil
}
