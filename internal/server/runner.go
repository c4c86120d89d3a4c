// Package server exposes the paper's pipeline — PTX load classification and
// functional/timing simulation — as an HTTP service backed by the jobs
// manager: classification is synchronous, simulations are submitted as jobs
// and polled, and results arrive as the Table III profiler counters plus a
// statistics summary.
package server

import (
	"context"
	"fmt"

	"critload/internal/experiments"
	"critload/internal/jobs"
	"critload/internal/profiler"
	"critload/internal/stats"
)

// CategoryCounts splits a counter over the paper's two load classes.
type CategoryCounts struct {
	Deterministic    uint64 `json:"deterministic"`
	NonDeterministic uint64 `json:"non_deterministic"`
}

func splitCats(v [stats.NumCats]uint64) CategoryCounts {
	return CategoryCounts{Deterministic: v[stats.Det], NonDeterministic: v[stats.NonDet]}
}

// Summary condenses a run's stats.Collector into the whole-application
// numbers clients typically chart: instruction and load volumes, coalesced
// request counts, and cache behaviour per load class.
type Summary struct {
	WarpInsts        uint64         `json:"warp_insts"`
	ThreadInsts      uint64         `json:"thread_insts"`
	GlobalLoadWarps  CategoryCounts `json:"global_load_warps"`
	GlobalStoreWarps uint64         `json:"global_store_warps"`
	SharedLoadWarps  uint64         `json:"shared_load_warps"`
	Requests         CategoryCounts `json:"requests"`
	L1Accesses       CategoryCounts `json:"l1_accesses"`
	L1Misses         CategoryCounts `json:"l1_misses"`
	L2Accesses       CategoryCounts `json:"l2_accesses"`
	L2Misses         CategoryCounts `json:"l2_misses"`
}

// RunResult is the JSON payload of one completed simulation job.
type RunResult struct {
	Workload string    `json:"workload"`
	Mode     jobs.Mode `json:"mode"`
	// Cycles is the timing run's wall-clock cycle count (0 for
	// functional runs, which have no clock).
	Cycles int64 `json:"cycles,omitempty"`
	// Counters are the Table III profiler counters.
	Counters profiler.Counters `json:"counters"`
	Summary  Summary           `json:"summary"`
}

func resultFromRun(spec jobs.Spec, r *experiments.Run) *RunResult {
	col := r.Col
	return &RunResult{
		Workload: spec.Workload,
		Mode:     spec.Mode,
		Cycles:   r.Cycles,
		Counters: profiler.Read(col),
		Summary: Summary{
			WarpInsts:        col.WarpInsts,
			ThreadInsts:      col.ThreadInsts,
			GlobalLoadWarps:  splitCats(col.GLoadWarps),
			GlobalStoreWarps: col.GStoreWarps,
			SharedLoadWarps:  col.SLoadWarps,
			Requests:         splitCats(col.Requests),
			L1Accesses:       splitCats(col.L1Acc),
			L1Misses:         splitCats(col.L1Miss),
			L2Accesses:       splitCats(col.L2Acc),
			L2Misses:         splitCats(col.L2Miss),
		},
	}
}

// SimRunner adapts the experiments engines to the jobs.Runner contract:
// functional specs run on the emulator, timing specs on the cycle-level
// simulator, both stopping at the next kernel-launch boundary once ctx is
// cancelled. Kernel-launch boundaries also emit a progress heartbeat
// (cycles, warp instructions) onto the job's API snapshot.
// Every run simulates cold: ReuseCheckpoints is accepted and ignored.
func SimRunner() jobs.Runner {
	return func(ctx context.Context, spec jobs.Spec) (any, error) {
		opts := experiments.Options{
			Size:         spec.Size,
			Seed:         spec.Seed,
			MaxWarpInsts: spec.MaxWarpInsts,
			MaxCycles:    spec.MaxCycles,
			Progress: func(cycles int64, warpInsts uint64) {
				jobs.ReportProgress(ctx, cycles, warpInsts)
			},
		}
		var (
			r   *experiments.Run
			err error
		)
		switch spec.Mode {
		case jobs.ModeFunctional:
			r, err = experiments.RunFunctionalCtx(ctx, spec.Workload, opts)
		case jobs.ModeTiming:
			r, err = experiments.RunTimingCtx(ctx, spec.Workload, opts)
		default:
			return nil, fmt.Errorf("server: unknown mode %q", spec.Mode)
		}
		if err != nil {
			return nil, err
		}
		return resultFromRun(spec, r), nil
	}
}
