package experiments

import (
	"testing"

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
// byte-identical statistics collector and the same cycle count as the
// naive one-cycle-at-a-time loop it replaces, under either warp scheduler.
func TestFastForwardMatchesSerialLoop(t *testing.T) {
	for name, size := range timingSmokeSizes {
		name, size := name, size
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, pol := range []sm.Policy{sm.LRR, sm.GTO} {
				fastCfg, serialCfg := enginePair(pol)
				fast, err := RunTiming(name, Options{Size: size, Seed: 7, GPU: fastCfg})
				if err != nil {
					t.Fatalf("%v: fast-forward run: %v", pol, err)
				}
				serial, err := RunTiming(name, Options{Size: size, Seed: 7, GPU: serialCfg})
				if err != nil {
					t.Fatalf("%v: serial run: %v", pol, err)
				}
				for _, d := range DiffRuns(fast, serial) {
					t.Errorf("%v: fast-forward vs serial: %s", pol, d)
				}
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
