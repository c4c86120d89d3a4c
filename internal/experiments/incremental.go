package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"critload/internal/checkpoint"
	"critload/internal/emu"
	"critload/internal/gpu"
	"critload/internal/stats"
	"critload/internal/workloads"
)

// prefixKey derives the checkpoint store key for one run prefix: a SHA-256
// over canonical JSON of everything that determines simulated state at a
// kernel-launch boundary — workload identity, problem size, input seed, and
// the architectural configuration. Engine selection and run-length budgets
// are deliberately excluded via Config.Arch(): both engines are byte-identical
// by the differential-testing contract, and budget validity is checked at
// load time (Store.Best), so a sweep varying only those fields shares one
// prefix.
//
// The material embeds the whole gpu.Config, so adding or removing a Config
// field re-keys every stored checkpoint. Bump the schema string whenever that
// happens so the re-key is a visible decision; files under an old schema
// simply miss and age out of the store's LRU.
func prefixKey(workload string, size int, seed int64, cfg gpu.Config) checkpoint.Key {
	material, err := json.Marshal(struct {
		Schema   string     `json:"schema"`
		Workload string     `json:"workload"`
		Size     int        `json:"size"`
		Seed     int64      `json:"seed"`
		GPU      gpu.Config `json:"gpu"`
	}{
		Schema:   "critload/checkpoint-prefix/v2",
		Workload: workload,
		Size:     size,
		Seed:     seed,
		GPU:      cfg.Arch(),
	})
	if err != nil {
		// The config is plain data; a marshal failure is a programming error.
		panic(fmt.Sprintf("experiments: prefix key material: %v", err))
	}
	return checkpoint.KeyOf(material)
}

// warmStartError marks a failure attributable to the warm-start machinery
// (restore, functional replay, or a checkpoint deeper than the actual launch
// sequence). RunTimingCtx catches it and re-runs cold from a fresh instance,
// so a bad checkpoint can cost time but never poison a result.
type warmStartError struct {
	stage string
	err   error
}

func (e *warmStartError) Error() string {
	return fmt.Sprintf("warm start %s: %v", e.stage, e.err)
}

func (e *warmStartError) Unwrap() error { return e.err }

// runTiming is the one timing executor behind RunTimingCtx. With a nil store
// it is the straight-through run. With a store it is incremental: it resumes
// from the deepest valid checkpoint of this run's prefix key (if any) and
// saves a checkpoint at every kernel-launch boundary it simulates.
//
// The warm-start protocol rests on the boundary invariant (the GPU drains
// completely between launches, so a snapshot captures all persistent state)
// plus one wrinkle: workload host logic may read device memory between
// launches (the graph workloads' convergence flags), so skipped boundaries
// must still present faithful memory to the host. Each skipped launch is
// covered by restoring the checkpoint of the boundary it produces — exact
// timing-engine memory, so host control flow stays faithful even where
// concurrent atomics make memory scheduling-sensitive (mst's winner-takes-all
// merges differ between the functional emulator and the cycle engines). Only
// when an intermediate checkpoint is missing (evicted) does the launch fall
// back to a functional replay; should that replay steer the host off the
// recorded launch sequence, the run degrades to a cold start rather than
// resuming into a mismatched prefix.
func runTiming(ctx context.Context, w *workloads.Workload, inst *workloads.Instance, opts Options, store *checkpoint.Store) (*Run, error) {
	col := stats.New()
	cfg := opts.gpuConfig()
	cfg.MaxWarpInsts = opts.MaxWarpInsts
	g := gpu.MustNew(cfg, inst.Mem, col)
	if opts.Tracer != nil {
		g.SetTracer(opts.Tracer)
	}
	var (
		key    checkpoint.Key
		target checkpoint.Meta
		blob   []byte
		warm   bool
	)
	if store != nil {
		key = prefixKey(w.Name, opts.Size, opts.Seed, cfg)
		target, blob, warm = store.Best(key, opts.MaxWarpInsts, cfg.MaxCycles)
	}
	idx := 0 // kernel-launch boundary index: launches completed so far
	restored := false
	exec := func(l *emu.Launch) error {
		i := idx
		idx++
		if err := ctx.Err(); err != nil {
			return err
		}
		if warm && !restored {
			if i < target.Index {
				// Skip phase: restore the boundary this launch would produce,
				// so the host sees exact timing-engine memory between
				// launches. Bridge eviction holes with a functional replay
				// (no listener, no statistics) — memory stays correct for
				// every workload whose inter-launch reads are
				// schedule-insensitive, and the resume guard below catches
				// the rest.
				if _, b, err := store.Load(key, i+1); err == nil {
					if err := g.Restore(b); err != nil {
						return &warmStartError{stage: "restore", err: err}
					}
					return nil
				}
				if _, err := emu.Run(&emu.Env{Mem: inst.Mem, Launch: l}, emu.RunOptions{}); err != nil {
					return &warmStartError{stage: "replay", err: err}
				}
				return nil
			}
			if err := g.Restore(blob); err != nil {
				return &warmStartError{stage: "restore", err: err}
			}
			restored = true
			store.NoteWarmStart(target.Cycle)
		}
		if opts.Progress != nil {
			opts.Progress(g.Cycle(), col.WarpInsts)
		}
		if opts.MaxWarpInsts > 0 && col.WarpInsts >= opts.MaxWarpInsts {
			return nil // budget exhausted: close the measurement window
		}
		if err := g.LaunchKernel(l); err != nil {
			return err
		}
		// Save the boundary just reached. AtBoundary is false after a
		// budget hard stop (in-flight work frozen, not drained): such state
		// is engine-dependent and must never be checkpointed.
		if store != nil && g.AtBoundary() && !store.Has(key, i+1) {
			if payload, err := g.Snapshot(); err == nil {
				_ = store.Save(key, checkpoint.Meta{
					Index:         i + 1,
					Cycle:         g.Cycle(),
					SkippedCycles: g.SkippedCycles,
					WarpInsts:     col.WarpInsts,
				}, payload)
			}
		}
		return nil
	}
	if err := inst.Run(exec); err != nil {
		var ws *warmStartError
		if errors.As(err, &ws) {
			return nil, err // pass through unwrapped for the cold fallback
		}
		return nil, fmt.Errorf("experiments: %s timing run: %w", w.Name, err)
	}
	if warm && !restored {
		// The checkpoint sits at the run's final boundary: every launch was
		// replayed functionally and the restore now yields the complete
		// result (collector, cycle counts, and memory all at end-of-run).
		if idx != target.Index {
			return nil, &warmStartError{stage: "resume", err: fmt.Errorf(
				"launch sequence ended at boundary %d before checkpoint %d", idx, target.Index)}
		}
		if err := g.Restore(blob); err != nil {
			return nil, &warmStartError{stage: "restore", err: err}
		}
		restored = true
		store.NoteWarmStart(target.Cycle)
	}
	if opts.Progress != nil {
		opts.Progress(g.Cycle(), col.WarpInsts)
	}
	run := &Run{Workload: w, Instance: inst, Col: col, Cycles: g.Cycle(),
		SkippedCycles: g.SkippedCycles}
	if restored {
		run.WarmStartIndex = target.Index
		run.WarmStartCycles = target.Cycle
	}
	return run, nil
}
