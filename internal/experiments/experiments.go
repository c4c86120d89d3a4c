// Package experiments reproduces every table and figure of the paper's
// evaluation: it runs the fifteen workloads on the functional emulator
// (whole-application statistics: Table I, Fig 1, 2, 9, 10, 11, 12) and on
// the timing simulator (microarchitectural statistics: Fig 3, 4, 5, 6, 7, 8),
// and exposes one generator per artifact.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"critload/internal/checkpoint"
	"critload/internal/dataflow"
	"critload/internal/emu"
	_ "critload/internal/families" // register family: workload names

	"critload/internal/gpu"
	"critload/internal/sm"
	"critload/internal/stats"
	"critload/internal/workloads"
)

// Options configures an experiment sweep.
type Options struct {
	// Workloads to run; empty = all fifteen.
	Workloads []string
	// Size overrides each workload's default problem size (0 = default).
	Size int
	// Seed drives input generation.
	Seed int64
	// MaxWarpInsts bounds each timing run, mirroring the paper's
	// first-billion-instructions simulation window (0 = run to completion).
	MaxWarpInsts uint64
	// MaxCycles bounds each timing run's cycle count
	// (0 = DefaultMaxCycles), so service jobs can tighten the livelock
	// safety net.
	MaxCycles int64
	// GPU is the device configuration for timing runs; zero value = Table II.
	GPU *gpu.Config
	// Tracer, when non-nil, receives every completed memory request of
	// timing runs (see the trace package).
	Tracer sm.Tracer
	// Checkpoints, when non-nil, enables incremental simulation for timing
	// runs: each run resumes from the deepest valid checkpoint sharing its
	// prefix key and saves a checkpoint at every kernel-launch boundary it
	// simulates. Results are byte-identical to cold runs (the difftest
	// checkpoint oracle enforces it); any checkpoint problem falls back to a
	// cold run.
	// Ignored while a Tracer is installed — a warm start would skip the
	// prefix's trace entries.
	Checkpoints *checkpoint.Store
	// Progress, when non-nil, receives a heartbeat at every kernel-launch
	// boundary: the simulated cycle count so far (always 0 for functional
	// runs, which have no clock) and warp instructions executed. The
	// service layer forwards it to jobs.ReportProgress so a long run's
	// position is visible on its API snapshot.
	Progress func(cycles int64, warpInsts uint64)
}

func (o Options) names() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workloads.Names()
}

// DefaultMaxCycles is the timing-run cycle bound applied when Options
// leaves MaxCycles zero: generous enough for complete paper-scale runs,
// finite so a livelocked simulation cannot hang a sweep.
const DefaultMaxCycles = 500_000_000

func (o Options) gpuConfig() gpu.Config {
	cfg := gpu.DefaultConfig()
	if o.GPU != nil {
		cfg = *o.GPU
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = DefaultMaxCycles
	}
	if o.MaxCycles > 0 {
		cfg.MaxCycles = o.MaxCycles
	}
	return cfg
}

// Run bundles the statistics of one workload execution.
type Run struct {
	Workload *workloads.Workload
	Instance *workloads.Instance
	Col      *stats.Collector
	Cycles   int64
	// SkippedCycles is the portion of Cycles the fast-forward engine jumped
	// over instead of stepping (always 0 for functional and serial runs).
	SkippedCycles int64
	// WarmStartIndex is the kernel-launch boundary this run resumed from
	// (0 = cold start); set only when Options.Checkpoints is enabled.
	WarmStartIndex int
	// WarmStartCycles is the number of simulated cycles inherited from the
	// checkpoint instead of re-simulated (0 for cold starts).
	WarmStartCycles int64
}

// suiteCall is one singleflight execution slot: the first caller runs the
// workload, every concurrent caller blocks on done and shares the result.
type suiteCall struct {
	done chan struct{}
	r    *Run
	err  error
}

// Suite caches one functional and one timing run per workload so that the
// table/figure generators sharing it run each application once, the way one
// profiling session feeds many plots in the paper. It is safe for concurrent
// use: simultaneous requests for the same workload are deduplicated, so a
// parallel sweep never simulates an application twice.
type Suite struct {
	Opts Options

	mu sync.Mutex
	fn map[string]*suiteCall
	tm map[string]*suiteCall
}

// NewSuite builds an empty suite over the given options.
func NewSuite(opts Options) *Suite {
	return &Suite{Opts: opts, fn: map[string]*suiteCall{}, tm: map[string]*suiteCall{}}
}

// share runs exec(name) at most once per key concurrently: the first caller
// executes, later callers wait and share. A failed call is forgotten so a
// later retry is possible, but concurrent waiters observe the same error.
func (s *Suite) share(ctx context.Context, m map[string]*suiteCall, name string,
	exec func(context.Context, string, Options) (*Run, error)) (*Run, error) {
	s.mu.Lock()
	if c, ok := m[name]; ok {
		s.mu.Unlock()
		select {
		case <-c.done:
			return c.r, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := &suiteCall{done: make(chan struct{})}
	m[name] = c
	s.mu.Unlock()

	c.r, c.err = exec(ctx, name, s.Opts)
	if c.err != nil {
		s.mu.Lock()
		delete(m, name)
		s.mu.Unlock()
	}
	close(c.done)
	return c.r, c.err
}

// Functional returns the cached functional run of a workload, executing it
// on first use.
func (s *Suite) Functional(name string) (*Run, error) {
	return s.FunctionalCtx(context.Background(), name)
}

// FunctionalCtx is Functional with cancellation between kernel launches.
func (s *Suite) FunctionalCtx(ctx context.Context, name string) (*Run, error) {
	return s.share(ctx, s.fn, name, RunFunctionalCtx)
}

// Timing returns the cached timing run of a workload, executing it on first
// use.
func (s *Suite) Timing(name string) (*Run, error) {
	return s.TimingCtx(context.Background(), name)
}

// TimingCtx is Timing with cancellation between kernel launches.
func (s *Suite) TimingCtx(ctx context.Context, name string) (*Run, error) {
	return s.share(ctx, s.tm, name, RunTimingCtx)
}

// classifiers builds a per-kernel classifier map for an instance.
func classifiers(inst *workloads.Instance) map[string]stats.Classifier {
	out := make(map[string]stats.Classifier, len(inst.Prog.Kernels))
	for _, k := range inst.Prog.Kernels {
		out[k.Name] = dataflow.Classify(k).NonDetAt
	}
	return out
}

// RunFunctional executes a workload on the functional emulator, collecting
// whole-application statistics. MaxWarpInsts is deliberately ignored here:
// the paper's profiler-based measurements cover complete runs, and the
// functional figures (Table I, Fig 1-2, 9-12) depend on full coverage.
func RunFunctional(name string, opts Options) (*Run, error) {
	return RunFunctionalCtx(context.Background(), name, opts)
}

// RunFunctionalCtx is RunFunctional with cooperative cancellation: the run
// stops with ctx's error at the next kernel-launch boundary once ctx is
// cancelled or past its deadline.
func RunFunctionalCtx(ctx context.Context, name string, opts Options) (*Run, error) {
	w, ok := workloads.Get(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	inst, err := w.Setup(workloads.Params{Size: opts.Size, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s setup: %w", name, err)
	}
	col := stats.New()
	class := classifiers(inst)
	var current stats.Classifier
	listener := func(ctaID int, warp *emu.Warp, s *emu.Step) {
		col.ObserveStep(ctaID, s, current)
	}
	inner := workloads.FunctionalExecutor(inst.Mem, listener, 0)
	exec := func(l *emu.Launch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if opts.Progress != nil {
			opts.Progress(0, col.WarpInsts)
		}
		current = class[l.Kernel.Name]
		return inner(l)
	}
	if err := inst.Run(exec); err != nil {
		return nil, fmt.Errorf("experiments: %s run: %w", name, err)
	}
	if opts.Progress != nil {
		opts.Progress(0, col.WarpInsts)
	}
	return &Run{Workload: w, Instance: inst, Col: col}, nil
}

// RunTiming executes a workload on the cycle-level GPU simulator. When the
// warp-instruction budget is exhausted, remaining launches are skipped (the
// statistics window closes, exactly like the paper's bounded GPGPU-Sim runs).
func RunTiming(name string, opts Options) (*Run, error) {
	return RunTimingCtx(context.Background(), name, opts)
}

// RunTimingCtx is RunTiming with cooperative cancellation at kernel-launch
// boundaries, mirroring RunFunctionalCtx. With a checkpoint store configured
// the run is incremental (see runTiming); any warm-start failure (corrupt
// blob, diverged launch sequence) is recovered by re-running cold from a fresh
// instance, so checkpoints can cost time but never poison a result.
func RunTimingCtx(ctx context.Context, name string, opts Options) (*Run, error) {
	w, ok := workloads.Get(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	inst, err := w.Setup(workloads.Params{Size: opts.Size, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s setup: %w", name, err)
	}
	store := opts.Checkpoints
	if opts.Tracer != nil {
		store = nil // a warm start would skip the prefix's trace entries
	}
	run, err := runTiming(ctx, w, inst, opts, store)
	var ws *warmStartError
	if !errors.As(err, &ws) {
		return run, err
	}
	inst, err = w.Setup(workloads.Params{Size: opts.Size, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s re-setup after failed warm start: %w", name, err)
	}
	return runTiming(ctx, w, inst, opts, nil)
}
