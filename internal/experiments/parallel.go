package experiments

import (
	"context"
	"errors"

	"critload/internal/jobs"
)

// plan lists, without repeats, the runs the given artifacts declare over the
// suite's selected workloads.
func (s *Suite) plan(arts []Artifact) []runKey {
	seen := map[runKey]bool{}
	var keys []runKey
	add := func(k runKey) {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, name := range s.Opts.names() {
		for _, a := range arts {
			if a.Functional {
				add(runKey{workload: name})
			}
			if a.Timing {
				add(s.timingKey(name, nil))
			}
			for _, v := range a.Variants {
				add(s.timingKey(name, v.Apply))
			}
		}
	}
	return keys
}

// Warm pre-executes every run the given artifacts declare concurrently on a
// bounded worker pool, each distinct run once. Renderers called afterwards
// find every run already cached and emit in their usual serial order, so a
// parallel sweep's output is byte-identical to a serial one — completion
// order never leaks into the artifacts.
//
// workers <= 0 selects one worker per CPU. Errors from all runs are joined
// in plan order; the remaining runs still execute (a broken workload should
// not abort a 15-application sweep). Cancellation via ctx stops each run at
// its next kernel-launch boundary.
func (s *Suite) Warm(ctx context.Context, workers int, arts []Artifact) error {
	keys := s.plan(arts)
	errs := make([]error, len(keys))
	pool := jobs.NewPool(workers, len(keys))
	for i, k := range keys {
		pool.Submit(func() { errs[i] = s.run(ctx, k).err })
	}
	pool.Close()
	return errors.Join(errs...)
}
