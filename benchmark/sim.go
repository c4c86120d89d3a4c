package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// inProcess is the state of one sim-* or emu-functional run.
type inProcess struct {
	cfg        runConfig
	specs      []simSpec
	functional bool
	checker    *simChecker
	speed      *speedometer
	out        *outcome
	work       workDone // simulated work of the ops made so far
}

// runInProcess runs a sim-* or emu-functional workload: an op is one pass
// over the spec list on the engine the daemon uses. One untimed warm-up pass
// is part of set-up; digests, golden checks and Instance.Verify run between
// ops, outside the timed window.
func runInProcess(ctx context.Context, cfg runConfig) (*outcome, error) {
	p := &inProcess{cfg: cfg, specs: cfg.W.specsFor(cfg.Smoke), functional: cfg.W.Kind == kindFunctional,
		speed: newSpeedometer(1, cfg.Smoke), out: newOutcome()}
	var err error
	if p.checker, err = newSimChecker(cfg.Seed, p.functional); err != nil {
		return nil, err
	}
	calib := p.speed.sample()
	warm, err := simPass(ctx, p.specs, cfg.Seed, p.functional)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	setup := time.Since(cfg.Start).Seconds() * toReference(calib, p.speed.sample())
	if bad := p.checker.check(warm, entriesOf(warm)); len(bad) > 0 {
		return nil, fmt.Errorf("warm-up pass is wrong: %v", bad)
	}
	window := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		return p.traced(ctx, window, warm)
	}
	costs, err := p.plainOps(ctx, window, cfg.minOps())
	if err != nil {
		return nil, err
	}
	out := p.out
	latencyMetrics(out, cfg.W, costs.ms(), costs.wall())
	out.notef("calibration loop %.1f ms (reference %.0f ms); unscaled op_p50_ms %.6g", p.speed.mean(), calibRefMS, median(costs.rawMS()))
	out.Values["setup_s"] = setup
	out.Values["cpu_s_per_op"] = costs.mean(func(c opCost) float64 { return c.CPU })
	out.Values["alloc_mb_per_op"] = costs.mean(func(c opCost) float64 { return c.AllocMB })
	out.Values["peak_rss_mb"] = selfPeakRSSMB()
	return out, nil
}

// plainOps runs untraced, checked ops until the window is used up, least of
// them at least.
func (p *inProcess) plainOps(ctx context.Context, window time.Duration, least int) (opCosts, error) {
	var costs opCosts
	begin := time.Now()
	for len(costs) < least || time.Since(begin) < window {
		var runs []*simRun
		cost, err := meter(p.speed, func() (err error) {
			runs, err = simPass(ctx, p.specs, p.cfg.Seed, p.functional)
			return err
		})
		if err != nil {
			return nil, err
		}
		costs = append(costs, cost)
		p.judge(runs, entriesOf(runs))
	}
	return costs, nil
}

// judge counts one op and checks it.
func (p *inProcess) judge(runs []*simRun, entries []goldenEntry) {
	p.out.Attempted++
	if bad := p.checker.check(runs, entries); len(bad) > 0 {
		p.out.fail("op %d: %v", p.out.Attempted, bad)
	}
	p.work.add(runs)
}

// traced is the traced run: one untraced reference op, then traced ops —
// spans on, a CPU profile around each — for the rest of the window, then the
// checkpoint probe where the workload carries it. warm is the warm-up pass.
func (p *inProcess) traced(ctx context.Context, window time.Duration, warm []*simRun) (*outcome, error) {
	ref, err := p.plainOps(ctx, 0, 1)
	if err != nil {
		return nil, err
	}
	p.work = workDone{}
	rec := newRecorder()
	var (
		costs   opCosts
		samples []stackSample
	)
	begin := time.Now()
	least := max(1, p.cfg.minOps()-1)
	for len(costs) < least || time.Since(begin) < window-time.Duration(ref[0].RawMS*float64(time.Millisecond)) {
		op := len(costs) + 1
		var runs []*simRun
		var prof []stackSample
		cost, err := meter(p.speed, func() (err error) {
			prof, err = profileOp(func() (err error) {
				runs, err = simPassTraced(ctx, rec, op, p.specs, p.cfg.Seed, p.functional)
				return err
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		costs, samples = append(costs, cost), append(samples, prof...)
		entries := make([]goldenEntry, len(runs))
		for i, r := range runs {
			rec.time("stats.snapshot", 0, op, func() { entries[i] = entryOf(r) })
			rec.time("profiler.read", 0, op, r.profilerRead)
			if !p.functional {
				// In a timing run classification happens inside the first
				// LaunchKernel of each kernel; this probe repeats it outside.
				rec.time("dataflow.classify", 0, op, r.classifyProgram)
			}
		}
		p.judge(runs, entries)
	}

	// The layer metrics are host times as measured; only the metrics demoted
	// from the end-to-end list are scaled to the reference speed as those are.
	out := p.out
	x := indexSpans(rec.snapshot())
	simLedger(out, x, p.work, len(costs), p.functional)
	tailMetrics(out, costs.ms())
	hostCPUMetrics(out, samples)
	out.Values["sim_kwarpinsts_per_s"] = ratio(p.work.model.WarpInsts/1e3, costs.wall().Seconds())
	out.Values["error_rate"] = ratio(float64(out.Failed), float64(out.Attempted))
	out.Values["heap.mallocs_per_op"] = costs.mean(func(c opCost) float64 { return c.Mallocs })
	out.Values["heap.gc_cycles_per_op"] = costs.mean(func(c opCost) float64 { return c.GCs })
	out.Values["heap.gc_pause_ms_per_op"] = costs.mean(func(c opCost) float64 { return c.PauseMS })
	out.Values["trace.overhead_x"] = ratio(median(costs.ms()), ref[0].MS)
	if p.cfg.W.CheckpointProbe {
		spec := p.specs[len(p.specs)-1]
		dir, err := os.MkdirTemp(p.cfg.OutDir, "ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		probe, err := probeCheckpoint(ctx, dir, spec, p.cfg.Seed, warm[len(warm)-1])
		if err != nil {
			return nil, fmt.Errorf("checkpoint probe: %w", err)
		}
		out.Values["checkpoint.save_overhead_ms"] = probe.SaveMS - median(x.durations(spec.String()))
		out.Values["checkpoint.warm_ms"] = probe.WarmMS
		out.Values["checkpoint.disk_mb"] = probe.DiskMB
	}
	out.Values["env.calib_ms"] = p.speed.mean()
	return out, rec.write(tracePath(p.cfg))
}

// simPass is one untraced op: every spec, through the same entry points the
// daemon's runner uses.
func simPass(ctx context.Context, specs []simSpec, seed int64, functional bool) ([]*simRun, error) {
	runs := make([]*simRun, 0, len(specs))
	for _, spec := range specs {
		run := runTiming
		if functional {
			run = runFunctional
		}
		r, err := run(ctx, spec, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// simPassTraced is one traced op: an "op" span, a span per spec named after
// it, and the layer spans below.
func simPassTraced(ctx context.Context, rec *recorder, op int, specs []simSpec, seed int64, functional bool) ([]*simRun, error) {
	root := rec.begin("op", 0, op)
	defer rec.end(root)
	runs := make([]*simRun, 0, len(specs))
	for _, spec := range specs {
		run := runTimingTraced
		if functional {
			run = runFunctionalTraced
		}
		id := rec.begin(spec.String(), root, op)
		r, err := run(ctx, rec, id, op, spec, seed)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func entriesOf(runs []*simRun) []goldenEntry {
	out := make([]goldenEntry, len(runs))
	for i, r := range runs {
		out[i] = entryOf(r)
	}
	return out
}

// workDone sums the simulated work of the ops made so far.
type workDone struct {
	model   modelCounts
	skipped float64
	kernels float64
}

func (w *workDone) add(runs []*simRun) {
	for _, r := range runs {
		w.model.add(r)
		w.skipped += float64(r.Skipped)
		w.kernels += float64(r.Kernels)
	}
}
