// Package critload is the public entry point of the reproduction of
// "Revealing Critical Loads and Hidden Data Locality in GPGPU Applications"
// (Koo, Jeon, Annavaram — IISWC 2015).
//
// It exposes three capabilities:
//
//   - Load classification: parse a PTX-subset kernel and label every global
//     load deterministic or non-deterministic by backward dataflow analysis
//     (the paper's core contribution). See Classify.
//
//   - Simulation: run any of the fifteen Table I workloads on the functional
//     emulator or on the cycle-level GPU timing model with the Tesla C2050
//     configuration of Table II. See RunWorkload.
//
//   - Experiments: regenerate every table and figure of the paper's
//     evaluation. See NewSuite and the experiments package's generators.
package critload

import (
	"fmt"

	"critload/internal/dataflow"
	"critload/internal/emu"
	"critload/internal/experiments"
	"critload/internal/gpu"
	"critload/internal/mem"
	"critload/internal/profiler"
	"critload/internal/ptx"
	"critload/internal/sm"
	"critload/internal/stats"
	"critload/internal/workloads"
)

// Re-exported classification types.
type (
	// Class is the paper's two-way load classification.
	Class = dataflow.Class
	// LoadInfo is one global load's classification with its address roots.
	LoadInfo = dataflow.LoadInfo
	// ClassificationResult holds the classification of one kernel.
	ClassificationResult = dataflow.Result
)

// Classification outcomes.
const (
	Deterministic    = dataflow.Deterministic
	NonDeterministic = dataflow.NonDeterministic
)

// Re-exported experiment types.
type (
	// ExperimentOptions configures experiment sweeps.
	ExperimentOptions = experiments.Options
	// Suite caches one run per workload across table/figure generators.
	Suite = experiments.Suite
	// Run bundles one workload execution's statistics.
	Run = experiments.Run
	// Collector is the statistics collector underlying every figure.
	Collector = stats.Collector
	// GPUConfig is the timing simulator's device configuration.
	GPUConfig = gpu.Config
	// ProfilerCounters are the Table III hardware-profiler counters.
	ProfilerCounters = profiler.Counters
)

// DefaultGPUConfig returns the Table II (Tesla C2050) configuration.
func DefaultGPUConfig() GPUConfig { return gpu.DefaultConfig() }

// NewSuite builds an experiment suite; see the experiments package for the
// per-table and per-figure generators available on it.
func NewSuite(opts ExperimentOptions) *Suite { return experiments.NewSuite(opts) }

// Classify parses PTX-subset source and classifies every global load of
// every kernel in it.
func Classify(src string) (map[string]*ClassificationResult, error) {
	prog, err := ptx.Parse(src)
	if err != nil {
		return nil, err
	}
	return dataflow.ClassifyProgram(prog), nil
}

// ClassifyKernel parses source containing a single kernel and classifies it.
func ClassifyKernel(src string) (*ClassificationResult, error) {
	prog, err := ptx.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Kernels) != 1 {
		return nil, fmt.Errorf("critload: source has %d kernels, want 1", len(prog.Kernels))
	}
	return dataflow.Classify(prog.Kernels[0]), nil
}

// Workloads returns the fifteen benchmark names in Table I order.
func Workloads() []string { return workloads.Names() }

// ClassifyWorkload classifies every kernel of a built-in workload.
func ClassifyWorkload(name string) (map[string]*ClassificationResult, error) {
	w, ok := workloads.Get(name)
	if !ok {
		return nil, fmt.Errorf("critload: unknown workload %q", name)
	}
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	return dataflow.ClassifyProgram(prog), nil
}

// WorkloadInfo describes one registered benchmark.
type WorkloadInfo struct {
	Name        string
	Category    string
	Description string
	DataSet     string
}

// WorkloadCatalog returns metadata for every registered benchmark.
func WorkloadCatalog() []WorkloadInfo {
	var out []WorkloadInfo
	for _, w := range workloads.All() {
		out = append(out, WorkloadInfo{
			Name:        w.Name,
			Category:    w.Category.String(),
			Description: w.Description,
			DataSet:     w.DataSet,
		})
	}
	return out
}

// RunMode selects the execution engine for RunWorkload.
type RunMode int

// Run modes.
const (
	// Functional runs on the emulator only: fast, exact results, no timing.
	Functional RunMode = iota
	// Timing runs on the cycle-level GPU model (Table II configuration).
	Timing
)

// RunOptions configures RunWorkload.
type RunOptions struct {
	Mode RunMode
	// Size overrides the workload's default problem size (0 = default).
	Size int
	Seed int64
	// MaxWarpInsts bounds timing runs like the paper's simulation window
	// (0 = run to completion).
	MaxWarpInsts uint64
	// GPU overrides the timing configuration (nil = Table II defaults).
	GPU *GPUConfig
	// Verify checks device results against the CPU reference after the run
	// (functional mode only: truncated timing runs leave partial state).
	Verify bool
}

// RunWorkload executes one of the Table I benchmarks and returns its
// statistics.
func RunWorkload(name string, opts RunOptions) (*Run, error) {
	eopts := experiments.Options{
		Size: opts.Size, Seed: opts.Seed,
		MaxWarpInsts: opts.MaxWarpInsts, GPU: opts.GPU,
	}
	var run *Run
	var err error
	if opts.Mode == Timing {
		run, err = experiments.RunTiming(name, eopts)
	} else {
		run, err = experiments.RunFunctional(name, eopts)
	}
	if err != nil {
		return nil, err
	}
	if opts.Verify {
		if opts.Mode == Timing && opts.MaxWarpInsts > 0 {
			return nil, fmt.Errorf("critload: cannot verify a truncated timing run")
		}
		if err := run.Instance.Verify(); err != nil {
			return nil, fmt.Errorf("critload: %s verification failed: %w", name, err)
		}
	}
	return run, nil
}

// ReadProfiler extracts the Table III profiler counters from a run.
func ReadProfiler(r *Run) ProfilerCounters { return profiler.Read(r.Col) }

// Memory is the simulated global-memory space used to stage kernel inputs.
type Memory = mem.Memory

// Simulate assembles the given PTX-subset source and launches the single
// kernel it contains on the timing simulator (Table II configuration). The
// setup callback allocates and initializes device buffers and returns the
// kernel parameter words (typically the buffer base addresses). It returns
// the device memory (for reading results) and the collected statistics.
func Simulate(src string, gridX, blockX int, setup func(m *Memory) []uint32) (*Memory, *Collector, error) {
	prog, err := ptx.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	if len(prog.Kernels) != 1 {
		return nil, nil, fmt.Errorf("critload: source has %d kernels, want 1", len(prog.Kernels))
	}
	col := stats.New()
	cfg := gpu.DefaultConfig()
	cfg.MaxCycles = 200_000_000
	g, err := gpu.New(cfg, nil, col)
	if err != nil {
		return nil, nil, err
	}
	var params []uint32
	if setup != nil {
		params = setup(g.Mem)
	}
	l := &emu.Launch{
		Kernel: prog.Kernels[0],
		Grid:   emu.Dim1(gridX),
		Block:  emu.Dim1(blockX),
		Params: params,
	}
	if err := g.LaunchKernel(l); err != nil {
		return nil, nil, err
	}
	return g.Mem, col, nil
}

// SMDefaultConfig returns the per-SM configuration of Table II, exposed for
// ablations that vary scheduler policy or cache geometry.
func SMDefaultConfig() sm.Config { return sm.DefaultConfig() }
