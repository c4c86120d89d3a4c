package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"critload/internal/checkpoint"
	"critload/internal/gpu"
	"critload/internal/sm"
	"critload/internal/stats"
)

// enginePair returns the fast-forward and the naive configuration of one
// warp-scheduling policy. Both policies are compared across engines because
// each has its own pick path in each engine (scan vs ready sets).
func enginePair(pol sm.Policy) (fast, serial *gpu.Config) {
	f, s := gpu.DefaultConfig(), gpu.DefaultConfig()
	f.SM.Policy, s.SM.Policy = pol, pol
	s.FastForward = false
	return &f, &s
}

// TestFastForwardMatchesSerialLoop is the fast-forward engine's core
// contract: for every workload, event-horizon skipping must produce a
// byte-identical statistics collector, the same cycle count and the same
// device memory as the naive one-cycle-at-a-time loop it replaces, under
// either warp scheduler.
//
// It is also the oracle for device reuse: fast-forward runs take the devices
// earlier runs released, and the naive engine builds every device fresh. So
// the fast-forward side runs twice. The second pass goes in reverse workload
// order on two goroutines (concurrent New and Release for the race
// detector), and before each workload runs the three kinds of run whose
// devices must never reach a default-configuration run: a budget-stopped
// one, a cancelled one and one under an ablation configuration.
func TestFastForwardMatchesSerialLoop(t *testing.T) {
	var names []string
	for name := range timingSmokeSizes {
		names = append(names, name)
	}
	slices.Sort(names)
	policies := []sm.Policy{sm.LRR, sm.GTO}
	var mu sync.Mutex
	serial := map[string][]*Run{}
	fastRun := func(name string, pol sm.Policy) (*Run, error) {
		fastCfg, _ := enginePair(pol)
		return RunTiming(name, Options{Size: timingSmokeSizes[name], Seed: 7, GPU: fastCfg})
	}
	// The second pass needs every first-pass result, and a test's cleanup
	// runs once its parallel subtests have finished.
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		slices.Reverse(names)
		var next atomic.Int64
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(names); i = int(next.Add(1)) - 1 {
					name := names[i]
					if err := runDroppedDevices(); err != nil {
						t.Errorf("before %s: %v", name, err)
					}
					for j, pol := range policies {
						fast, err := fastRun(name, pol)
						if err != nil {
							t.Errorf("second pass %s %v: fast-forward run: %v", name, pol, err)
							continue
						}
						for _, d := range diffEngines(fast, serial[name][j]) {
							t.Errorf("second pass %s %v: fast-forward vs serial: %s", name, pol, d)
						}
					}
				}
			}()
		}
		wg.Wait()
	})
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runs := make([]*Run, len(policies))
			for i, pol := range policies {
				fast, err := fastRun(name, pol)
				if err != nil {
					t.Fatalf("%v: fast-forward run: %v", pol, err)
				}
				_, serialCfg := enginePair(pol)
				runs[i], err = RunTiming(name, Options{Size: timingSmokeSizes[name], Seed: 7, GPU: serialCfg})
				if err != nil {
					t.Fatalf("%v: serial run: %v", pol, err)
				}
				for _, d := range diffEngines(fast, runs[i]) {
					t.Errorf("%v: fast-forward vs serial: %s", pol, d)
				}
			}
			mu.Lock()
			serial[name] = runs
			mu.Unlock()
		})
	}
}

// runDroppedDevices runs, on the fast-forward engine, the three kinds of run
// whose devices Release must keep from default-configuration runs: one
// hard-stopped by its warp-instruction budget, one cancelled between
// launches, and one under an ablation (a different architecture, so a
// different pool).
func runDroppedDevices() error {
	fastCfg, _ := enginePair(sm.LRR)
	opts := Options{Size: timingSmokeSizes["bfs"], Seed: 9, MaxWarpInsts: 5000, GPU: fastCfg}
	if _, err := RunTiming("bfs", opts); err != nil {
		return fmt.Errorf("budget-stopped run: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts = Options{Size: timingSmokeSizes["bfs"], Seed: 9, GPU: fastCfg,
		Progress: func(int64, uint64) { cancel() }}
	if _, err := RunTimingCtx(ctx, "bfs", opts); !errors.Is(err, context.Canceled) {
		return fmt.Errorf("cancelled run: err = %v, want context.Canceled", err)
	}
	variant := *fastCfg
	Ablations[0].Apply(&variant)
	if _, err := RunTiming("srad", Options{Size: 32, Seed: 9, GPU: &variant}); err != nil {
		return fmt.Errorf("%s ablation run: %w", Ablations[0].Name, err)
	}
	return nil
}

// diffEngines is DiffRuns plus the device memory the runs left behind.
func diffEngines(a, b *Run) []string {
	diffs := DiffRuns(a, b)
	wa, wb := checkpoint.NewWriter(), checkpoint.NewWriter()
	a.Instance.Mem.Snapshot(wa)
	b.Instance.Mem.Snapshot(wb)
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		diffs = append(diffs, "device memory diverges")
	}
	return diffs
}

// TestTimingRunsAreDeterministic re-runs a compute-bound, a memory-bound and
// an irregular workload and requires identical statistics: the simulator has
// no hidden nondeterminism (map iteration, pooling artifacts, timers).
func TestTimingRunsAreDeterministic(t *testing.T) {
	for _, name := range []string{"2mm", "spmv", "bfs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts := Options{Size: timingSmokeSizes[name], Seed: 11}
			first, err := RunTiming(name, opts)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			second, err := RunTiming(name, opts)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			for _, d := range DiffRuns(first, second) {
				t.Errorf("repeat run: %s", d)
			}
			if first.Col.Turnaround[stats.Det].Ops+first.Col.Turnaround[stats.NonDet].Ops == 0 {
				t.Errorf("no turnarounds recorded; determinism check is vacuous")
			}
		})
	}
}

// TestBudgetWindowMatchesSerialLoop pins the bounded-window behaviour: the
// warp-instruction hard stop must freeze the statistics at the same cycle
// under both engines, with in-flight work left undrained.
func TestBudgetWindowMatchesSerialLoop(t *testing.T) {
	for _, pol := range []sm.Policy{sm.LRR, sm.GTO} {
		t.Run(pol.String(), func(t *testing.T) {
			fastCfg, serialCfg := enginePair(pol)
			opts := Options{Size: timingSmokeSizes["bfs"], Seed: 7, MaxWarpInsts: 5000, GPU: fastCfg}
			fast, err := RunTiming("bfs", opts)
			if err != nil {
				t.Fatalf("fast-forward run: %v", err)
			}
			opts.GPU = serialCfg
			serial, err := RunTiming("bfs", opts)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			for _, d := range DiffRuns(fast, serial) {
				t.Errorf("fast-forward vs serial: %s", d)
			}
			if fast.Col.WarpInsts < 5000 {
				t.Fatalf("budget window did not fill: %d warp insts", fast.Col.WarpInsts)
			}
		})
	}
}

// TestFastForwardMatchesSerialLoopUnderAblations runs the engine oracle
// under each Section X hardware variant. The bypass, the prefetcher,
// clustered CTA placement and the semi-global L2 each change the L1 and
// injection paths that the fast-forward engine's stall and park logic
// reasons about, and the default configuration exercises none of them. The
// warp ablation is GTO, which TestFastForwardMatchesSerialLoop covers.
func TestFastForwardMatchesSerialLoopUnderAblations(t *testing.T) {
	names := []string{"bfs", "sssp", "spmv", "2mm", "mis", "srad"}
	for _, a := range Ablations {
		if a.Name == "warp" {
			continue
		}
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			fastCfg, serialCfg := enginePair(sm.LRR)
			a.Apply(fastCfg)
			a.Apply(serialCfg)
			for _, name := range names {
				opts := Options{Size: timingSmokeSizes[name], Seed: 7, GPU: fastCfg}
				fast, err := RunTiming(name, opts)
				if err != nil {
					t.Fatalf("%s: fast-forward run: %v", name, err)
				}
				opts.GPU = serialCfg
				serial, err := RunTiming(name, opts)
				if err != nil {
					t.Fatalf("%s: serial run: %v", name, err)
				}
				for _, d := range DiffRuns(fast, serial) {
					t.Errorf("%s: fast-forward vs serial: %s", name, d)
				}
			}
		})
	}
}
