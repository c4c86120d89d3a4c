package emu

import "fmt"

// StepListener observes every executed warp instruction. The Step value is
// only valid for the duration of the call.
type StepListener func(ctaID int, w *Warp, s *Step)

// RunOptions controls a functional kernel run.
type RunOptions struct {
	// Listener, when non-nil, receives every executed step.
	Listener StepListener
	// MaxWarpInsts aborts the run after this many warp instructions
	// (0 = unlimited). Used to bound simulation the way the paper bounds
	// GPGPU-Sim runs to the first billion instructions.
	MaxWarpInsts uint64
}

// RunResult summarizes a functional run. A Listener, such as a
// stats.Collector's, counts everything else.
type RunResult struct {
	WarpInsts uint64 // warp-level instructions executed
	Truncated bool   // true when MaxWarpInsts stopped the run early
}

// Run functionally executes the launch to completion: CTAs run sequentially,
// warps within a CTA are interleaved in round-robin slices so that barrier
// semantics hold.
func Run(env *Env, opts RunOptions) (RunResult, error) {
	return RunIn(env, new(CTA), opts)
}

// RunIn is Run over caller-owned CTA storage: every CTA of the launch runs
// through cta, reset for each, so a caller that keeps one CTA across
// launches allocates CTA storage only when a launch needs more than any
// before it.
func RunIn(env *Env, cta *CTA, opts RunOptions) (RunResult, error) {
	var res RunResult
	l := env.Launch
	if err := l.Validate(); err != nil {
		return res, err
	}
	var step Step
	nCTA := l.Grid.Count()
	for id := 0; id < nCTA; id++ {
		cta.Reset(l, id)
		if err := runCTA(env, cta, &step, opts, &res); err != nil {
			return res, fmt.Errorf("emu: CTA %d: %w", id, err)
		}
		if res.Truncated {
			return res, nil
		}
	}
	return res, nil
}

// warpSlice is the number of instructions a warp may run before the driver
// rotates to the next warp; small enough to interleave warps realistically,
// large enough to keep driver overhead low.
const warpSlice = 64

func runCTA(env *Env, cta *CTA, step *Step, opts RunOptions, res *RunResult) error {
	for {
		progressed := false
		for _, w := range cta.Warps {
			if w.Done() || w.AtBarrier {
				continue
			}
			for i := 0; i < warpSlice; i++ {
				if w.Done() || w.AtBarrier {
					break
				}
				if err := w.Execute(env, step); err != nil {
					return err
				}
				progressed = true
				record(cta, w, step, opts, res)
				if opts.MaxWarpInsts > 0 && res.WarpInsts >= opts.MaxWarpInsts {
					res.Truncated = true
					return nil
				}
			}
		}
		if cta.Done() {
			return nil
		}
		if cta.barrierReady() {
			cta.ReleaseBarrier()
			continue
		}
		if !progressed {
			return fmt.Errorf("deadlock: no warp can progress")
		}
	}
}

func record(cta *CTA, w *Warp, step *Step, opts RunOptions, res *RunResult) {
	res.WarpInsts++
	if opts.Listener != nil {
		opts.Listener(cta.ID, w, step)
	}
}
