package experiments

import (
	"testing"

	"critload/internal/gpu"
	"critload/internal/stats"
)

// TestFastForwardMatchesSerialLoop is the fast-forward engine's core
// contract: for every workload, event-horizon skipping must produce a
// byte-identical statistics collector and the same cycle count as the
// naive one-cycle-at-a-time loop it replaces.
func TestFastForwardMatchesSerialLoop(t *testing.T) {
	for name, size := range timingSmokeSizes {
		name, size := name, size
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			serialCfg := gpu.DefaultConfig()
			serialCfg.FastForward = false

			fast, err := RunTiming(name, Options{Size: size, Seed: 7})
			if err != nil {
				t.Fatalf("fast-forward run: %v", err)
			}
			serial, err := RunTiming(name, Options{Size: size, Seed: 7, GPU: &serialCfg})
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			for _, d := range DiffRuns(fast, serial) {
				t.Errorf("fast-forward vs serial: %s", d)
			}
		})
	}
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
	serialCfg := gpu.DefaultConfig()
	serialCfg.FastForward = false
	opts := Options{Size: timingSmokeSizes["bfs"], Seed: 7, MaxWarpInsts: 5000}
	fast, err := RunTiming("bfs", opts)
	if err != nil {
		t.Fatalf("fast-forward run: %v", err)
	}
	opts.GPU = &serialCfg
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
}
