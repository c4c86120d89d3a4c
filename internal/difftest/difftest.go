// Package difftest is the differential-testing harness over generated
// kernels (internal/kgen). Every case runs through four independent
// oracles:
//
//  1. classification — dataflow.Classify must reproduce the generator's
//     ground-truth D/N label for every global load;
//  2. functional — the emulator must produce identical final memory across
//     repeated runs, and all timing engines must leave memory in the same
//     state the emulator does;
//  3. timing — the fast-forward and serial cycle engines must produce
//     byte-identical statistics collectors and cycle counts (the PR 3
//     comparator, via experiments.DiffRuns);
//  4. checkpoint — snapshotting the device at a kernel-launch boundary,
//     restoring into a fresh device, and resuming must be byte-identical
//     (collector, cycle counts, final memory) to simulating straight
//     through, so every fuzzed kernel also exercises the serialization
//     contract of internal/checkpoint.
//
// A clean Check means all four agree; any Divergence is a bug in exactly
// one of the generator, the classifier, the emulator, a cycle engine, or
// the checkpoint codec — which is the point.
package difftest

import (
	"fmt"
	"sort"

	"critload/internal/dataflow"
	"critload/internal/emu"
	"critload/internal/experiments"
	"critload/internal/gpu"
	"critload/internal/kgen"
	"critload/internal/stats"
)

// DefaultMaxCycles bounds each timing run; generated kernels finish in a few
// thousand cycles, so hitting this is itself a livelock bug.
const DefaultMaxCycles = 2_000_000

// DefaultMaxWarpInsts bounds each functional run the same way.
const DefaultMaxWarpInsts = 4_000_000

// Options configures a differential check.
type Options struct {
	// GPUA and GPUB build the two timing configurations to compare.
	// Defaults: A = serial loop, B = fast-forward, both Table II.
	GPUA, GPUB func() gpu.Config
	// SkipCheckpoint drops the fourth oracle (snapshot/restore byte-identity),
	// for callers that only study the live engines.
	SkipCheckpoint bool
	// MaxCycles overrides DefaultMaxCycles (0 = default).
	MaxCycles int64
	// MaxWarpInsts overrides DefaultMaxWarpInsts for emulator runs.
	MaxWarpInsts uint64
}

func (o Options) gpuA() gpu.Config {
	if o.GPUA != nil {
		return o.GPUA()
	}
	cfg := gpu.DefaultConfig()
	cfg.FastForward = false
	return cfg
}

func (o Options) gpuB() gpu.Config {
	if o.GPUB != nil {
		return o.GPUB()
	}
	return gpu.DefaultConfig()
}

func (o Options) maxCycles() int64 {
	if o.MaxCycles > 0 {
		return o.MaxCycles
	}
	return DefaultMaxCycles
}

func (o Options) maxWarpInsts() uint64 {
	if o.MaxWarpInsts > 0 {
		return o.MaxWarpInsts
	}
	return DefaultMaxWarpInsts
}

// Divergence is one oracle disagreement.
type Divergence struct {
	Oracle string // "classify", "functional", "timing" or "checkpoint"
	Detail string
}

func (d Divergence) String() string { return d.Oracle + ": " + d.Detail }

// Report is the outcome of one differential check.
type Report struct {
	Case        *kgen.Case
	Divergences []Divergence
	// Det and NonDet count the ground-truth classes of the case.
	Det, NonDet int
}

// Failed reports whether any oracle disagreed.
func (r *Report) Failed() bool { return len(r.Divergences) > 0 }

func (r *Report) add(oracle, format string, args ...any) {
	r.Divergences = append(r.Divergences, Divergence{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
}

// Check runs a case through all four oracles.
func Check(c *kgen.Case, opts Options) *Report {
	rep := &Report{Case: c}
	for _, cls := range c.Want {
		if cls == dataflow.Deterministic {
			rep.Det++
		} else {
			rep.NonDet++
		}
	}

	// Oracle 1: classification.
	got := map[int]dataflow.Class{}
	for _, li := range dataflow.Classify(c.Kernel).Loads {
		got[li.InstIndex] = li.Class
	}
	idxs := map[int]bool{}
	for i := range got {
		idxs[i] = true
	}
	for i := range c.Want {
		idxs[i] = true
	}
	ordered := make([]int, 0, len(idxs))
	for i := range idxs {
		ordered = append(ordered, i)
	}
	sort.Ints(ordered)
	for _, i := range ordered {
		w, wok := c.Want[i]
		g, gok := got[i]
		switch {
		case !wok:
			rep.add("classify", "inst %d: classifier found a load the generator did not label", i)
		case !gok:
			rep.add("classify", "inst %d: generator labeled a load the classifier did not find", i)
		case w != g:
			rep.add("classify", "inst %d (%s): generator built %v, classifier says %v",
				i, c.Kernel.Insts[i], w, g)
		}
	}

	// Oracle 2a: functional determinism of the emulator itself.
	snapRef, err := runEmu(c, opts)
	if err != nil {
		rep.add("functional", "emulator run: %v", err)
		return rep
	}
	snap2, err := runEmu(c, opts)
	if err != nil {
		rep.add("functional", "emulator rerun: %v", err)
		return rep
	}
	if d := diffSnapshots(snapRef, snap2); d != "" {
		rep.add("functional", "emulator disagrees with itself across runs: %s", d)
	}

	// Oracle 3 (+2b): the two timing engines against each other and —
	// functionally — against the emulator.
	runA, snapA, errA := runTiming(c, opts.gpuA(), opts.maxCycles())
	runB, snapB, errB := runTiming(c, opts.gpuB(), opts.maxCycles())
	if errA != nil || errB != nil {
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			rep.add("timing", "engines disagree on errors: A=%v B=%v", errA, errB)
		} else {
			rep.add("timing", "both engines failed: %v", errA)
		}
		return rep
	}
	for _, d := range experiments.DiffRuns(runA, runB) {
		rep.add("timing", "%s", d)
	}
	if d := diffSnapshots(snapRef, snapA); d != "" {
		rep.add("functional", "engine A memory differs from emulator: %s", d)
	}
	if d := diffSnapshots(snapRef, snapB); d != "" {
		rep.add("functional", "engine B memory differs from emulator: %s", d)
	}

	// Oracle 4: checkpoint/restore. Launch the kernel twice so the second
	// launch starts from non-trivial persistent state (warm caches, open DRAM
	// rows, accumulated statistics). The resumed variant snapshots the device
	// after launch one, restores into a brand-new device over a fresh
	// environment, and runs launch two there; it must be byte-identical —
	// collector, cycle counts, final memory — to running both launches
	// straight through.
	if !opts.SkipCheckpoint {
		runS, snapS, errS := runTimingResumed(c, opts.gpuB(), opts.maxCycles(), false)
		runR, snapR, errR := runTimingResumed(c, opts.gpuB(), opts.maxCycles(), true)
		if errS != nil || errR != nil {
			if fmt.Sprint(errS) != fmt.Sprint(errR) {
				rep.add("checkpoint", "straight-through and resumed runs disagree on errors: %v vs %v", errS, errR)
			}
			// Identical errors mean the double launch hit a shared limit the
			// same way on both paths — not a checkpoint divergence.
			return rep
		}
		for _, d := range experiments.DiffRuns(runS, runR) {
			rep.add("checkpoint", "%s", d)
		}
		if d := diffSnapshots(snapS, snapR); d != "" {
			rep.add("checkpoint", "resumed-run memory differs from straight-through: %s", d)
		}
	}
	return rep
}

// runEmu executes the case on the functional emulator and returns the
// mutable-memory snapshot.
func runEmu(c *kgen.Case, opts Options) ([]uint32, error) {
	env := c.NewEnv()
	res, err := emu.Run(&emu.Env{Mem: env.Mem, Launch: env.Launch},
		emu.RunOptions{MaxWarpInsts: opts.maxWarpInsts()})
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		return nil, fmt.Errorf("run exceeded %d warp instructions", opts.maxWarpInsts())
	}
	return env.Snapshot(), nil
}

// runTiming executes the case on one cycle engine.
func runTiming(c *kgen.Case, cfg gpu.Config, maxCycles int64) (*experiments.Run, []uint32, error) {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = maxCycles
	}
	env := c.NewEnv()
	col := stats.New()
	g, err := gpu.New(cfg, env.Mem, col)
	if err != nil {
		return nil, nil, err
	}
	if err := g.LaunchKernel(env.Launch); err != nil {
		return nil, nil, err
	}
	r := &experiments.Run{Col: col, Cycles: g.Cycle(), SkippedCycles: g.SkippedCycles}
	return r, env.Snapshot(), nil
}

// runTimingResumed executes the case's kernel twice on one logical device.
// With resume=false both launches run on the same GPU; with resume=true the
// device state is serialized after the first launch and restored into a fresh
// GPU over a fresh environment before the second. Both variants get doubled
// cycle headroom since two launches share one cycle counter.
func runTimingResumed(c *kgen.Case, cfg gpu.Config, maxCycles int64, resume bool) (*experiments.Run, []uint32, error) {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 2 * maxCycles
	}
	env := c.NewEnv()
	col := stats.New()
	g, err := gpu.New(cfg, env.Mem, col)
	if err != nil {
		return nil, nil, err
	}
	if err := g.LaunchKernel(env.Launch); err != nil {
		return nil, nil, err
	}
	if resume {
		blob, err := g.Snapshot()
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: %w", err)
		}
		env2 := c.NewEnv()
		col2 := stats.New()
		g2, err := gpu.New(cfg, env2.Mem, col2)
		if err != nil {
			return nil, nil, err
		}
		if err := g2.Restore(blob); err != nil {
			return nil, nil, fmt.Errorf("restore: %w", err)
		}
		env, col, g = env2, col2, g2
	}
	if err := g.LaunchKernel(env.Launch); err != nil {
		return nil, nil, err
	}
	r := &experiments.Run{Col: col, Cycles: g.Cycle(), SkippedCycles: g.SkippedCycles}
	return r, env.Snapshot(), nil
}

// diffSnapshots compares two mutable-memory snapshots, reporting the first
// few differing words.
func diffSnapshots(a, b []uint32) string {
	if len(a) != len(b) {
		return fmt.Sprintf("snapshot sizes differ: %d vs %d words", len(a), len(b))
	}
	var diffs []string
	for i := range a {
		if a[i] != b[i] {
			diffs = append(diffs, fmt.Sprintf("word %d: %#x vs %#x", i, a[i], b[i]))
			if len(diffs) == 4 {
				diffs = append(diffs, "...")
				break
			}
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	s := diffs[0]
	for _, d := range diffs[1:] {
		s += ", " + d
	}
	return s
}
