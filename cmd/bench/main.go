// Command bench regenerates BENCH_sim.json, the tracked simulator
// performance baseline: for every baseline case it runs the timing model
// under both cycle engines — event-horizon fast-forwarding and the naive
// serial loop — and records wall time, simulated cycles per second, warp
// instructions per second and heap traffic, with the host's GOMAXPROCS and
// CPU count alongside. It refuses to write a baseline in which the engines
// disagree on the simulated work, printing the exact diverging statistics,
// so the numbers are always for byte-identical simulations.
//
// Usage:
//
//	bench                    # write BENCH_sim.json in the working directory
//	bench -o /tmp/b.json     # write elsewhere
//	bench -runs 5            # best-of-5 wall times per engine
//	bench -check             # compare against the committed baseline instead
//	                         # of writing: exit 1 if either engine's geomean
//	                         # cycles/sec regressed more than -check-tolerance
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"

	"critload/internal/experiments"
	"critload/internal/gpu"
)

type caseResult struct {
	Workload    string `json:"workload"`
	Size        int    `json:"size"`
	MemoryBound bool   `json:"memory_bound"`
	// Simulated work, identical for both engines by construction.
	Cycles      int64                         `json:"cycles"`
	WarpInsts   uint64                        `json:"warp_insts"`
	FastForward experiments.EngineMeasurement `json:"fastforward"`
	Naive       experiments.EngineMeasurement `json:"naive"`
	// SpeedupX is fast-forward over naive.
	SpeedupX float64 `json:"speedup_x"`
}

type summary struct {
	GeomeanSpeedupX            float64 `json:"geomean_speedup_x"`
	MemoryBoundGeomeanSpeedupX float64 `json:"memory_bound_geomean_speedup_x"`
	MaxMallocsPerKCycleFF      float64 `json:"max_mallocs_per_kcycle_fastforward"`
}

type baseline struct {
	Schema     string       `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Seed       int64        `json:"seed"`
	Runs       int          `json:"runs"`
	Workloads  []caseResult `json:"workloads"`
	Summary    summary      `json:"summary"`
}

// longRunSeconds is the wall time past which a case is measured once.
// Best-of-N exists to beat scheduler noise on sub-second runs; a run this
// long averages that noise away by itself, and repeating the 4x/8x
// memory-bound rows would multiply the regression job's cost for no
// precision gain.
const longRunSeconds = 10.0

// measureBest takes the best (minimum-wall-time) of up to n independent
// runs; heap counters come from the same best run so the row is
// self-consistent. Runs past longRunSeconds are not repeated.
func measureBest(n int, measure func() (experiments.EngineMeasurement, error)) (experiments.EngineMeasurement, error) {
	var best experiments.EngineMeasurement
	for i := 0; i < n; i++ {
		m, err := measure()
		if err != nil {
			return best, err
		}
		if i == 0 || m.WallSeconds < best.WallSeconds {
			best = m
		}
		if m.WallSeconds >= longRunSeconds {
			break
		}
	}
	return best, nil
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// describeDivergence re-runs both engines once through the experiments layer
// so a refused baseline names the exact diverging statistics instead of a
// bare cycle count. Errors from the reruns are folded into the report.
func describeDivergence(c experiments.BenchCase, seed int64) string {
	naiveCfg := gpu.DefaultConfig()
	naiveCfg.FastForward = false
	naive, err := experiments.RunTiming(c.Name, experiments.Options{Size: c.Size, Seed: seed, GPU: &naiveCfg})
	if err != nil {
		return fmt.Sprintf("  naive rerun failed: %v", err)
	}
	ff, err := experiments.RunTiming(c.Name, experiments.Options{Size: c.Size, Seed: seed})
	if err != nil {
		return fmt.Sprintf("  fastforward rerun failed: %v", err)
	}
	out := ""
	for _, d := range experiments.DiffRuns(naive, ff) {
		out += "  naive vs fastforward: " + d + "\n"
	}
	if out == "" {
		out = "  (divergence did not reproduce on rerun)\n"
	}
	return out + "  naive:       " + experiments.DescribeRun(naive) +
		"\n  fastforward: " + experiments.DescribeRun(ff)
}

// measureAll produces the full baseline in memory; shared by the write and
// -check paths.
func measureAll(seed int64, runs int) (baseline, error) {
	b := baseline{
		Schema:     "critload/bench_sim/v4",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Runs:       runs,
	}
	var all, memBound []float64
	for _, c := range experiments.BenchCases() {
		c := c
		ff, err := measureBest(runs, func() (experiments.EngineMeasurement, error) {
			return experiments.MeasureEngine(c, seed, true)
		})
		if err != nil {
			return b, err
		}
		naive, err := measureBest(runs, func() (experiments.EngineMeasurement, error) {
			return experiments.MeasureEngine(c, seed, false)
		})
		if err != nil {
			return b, err
		}
		if ff.Cycles != naive.Cycles || ff.WarpInsts != naive.WarpInsts {
			return b, fmt.Errorf("%s/%d: engines diverge (naive %d cycles / %d insts, fastforward %d / %d); baseline not written\n%s",
				c.Name, c.Size, naive.Cycles, naive.WarpInsts, ff.Cycles, ff.WarpInsts,
				describeDivergence(c, seed))
		}
		r := caseResult{
			Workload: c.Name, Size: c.Size, MemoryBound: c.MemoryBound,
			Cycles: ff.Cycles, WarpInsts: ff.WarpInsts,
			FastForward: ff, Naive: naive,
		}
		if ff.WallSeconds > 0 {
			r.SpeedupX = naive.WallSeconds / ff.WallSeconds
		}
		all = append(all, r.SpeedupX)
		if c.MemoryBound {
			memBound = append(memBound, r.SpeedupX)
		}
		if r.FastForward.MallocsPerKCycle > b.Summary.MaxMallocsPerKCycleFF {
			b.Summary.MaxMallocsPerKCycleFF = r.FastForward.MallocsPerKCycle
		}
		b.Workloads = append(b.Workloads, r)
		fmt.Fprintf(os.Stderr, "bench: %-5s %9d cycles (%4.1f%% skipped)  ff %6.2f Mcyc/s  naive %6.2f Mcyc/s  speedup %.2fx\n",
			c.Name, r.Cycles, 100*float64(ff.SkippedCycles)/float64(r.Cycles),
			ff.CyclesPerSec/1e6, naive.CyclesPerSec/1e6, r.SpeedupX)
	}
	b.Summary.GeomeanSpeedupX = geomean(all)
	b.Summary.MemoryBoundGeomeanSpeedupX = geomean(memBound)
	return b, nil
}

// engineGeomeans reduces a baseline to one throughput number per engine: the
// geomean of cycles-per-second across all cases.
func engineGeomeans(b baseline) map[string]float64 {
	per := map[string][]float64{}
	for _, r := range b.Workloads {
		for name, m := range map[string]experiments.EngineMeasurement{
			"fastforward": r.FastForward, "naive": r.Naive,
		} {
			if m.CyclesPerSec > 0 {
				per[name] = append(per[name], m.CyclesPerSec)
			}
		}
	}
	out := map[string]float64{}
	for name, xs := range per {
		out[name] = geomean(xs)
	}
	return out
}

// check measures afresh and fails if either engine's geomean cycles/sec fell
// more than tolerance below the committed baseline.
func check(path string, seed int64, runs int, tolerance float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading committed baseline: %w", err)
	}
	var committed baseline
	if err := json.Unmarshal(buf, &committed); err != nil {
		return fmt.Errorf("parsing committed baseline %s: %w", path, err)
	}
	fresh, err := measureAll(seed, runs)
	if err != nil {
		return err
	}
	want, got := engineGeomeans(committed), engineGeomeans(fresh)
	failed := false
	for _, name := range []string{"naive", "fastforward"} {
		w, ok := want[name]
		if !ok || w <= 0 {
			fmt.Fprintf(os.Stderr, "bench-check: %-11s no committed measurement, skipped\n", name)
			continue
		}
		g := got[name]
		ratio := g / w
		status := "ok"
		if ratio < 1-tolerance {
			status = "REGRESSED"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "bench-check: %-11s committed %8.2f Mcyc/s, now %8.2f Mcyc/s (%+.1f%%) %s\n",
			name, w/1e6, g/1e6, 100*(ratio-1), status)
	}
	if failed {
		return fmt.Errorf("throughput regressed vs %s", path)
	}
	return nil
}

func run(out string, seed int64, runs int) error {
	b, err := measureAll(seed, runs)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(buf, '\n'), 0o644)
}

func main() {
	out := flag.String("o", "BENCH_sim.json", "output path for the baseline (or the committed baseline with -check)")
	seed := flag.Int64("seed", 1, "input generation seed")
	runs := flag.Int("runs", 3, "independent runs per engine; best wall time is kept")
	doCheck := flag.Bool("check", false, "compare against the committed baseline instead of writing")
	tolerance := flag.Float64("check-tolerance", 0.25, "allowed fractional geomean cycles/sec regression under -check")
	flag.Parse()
	var err error
	if *doCheck {
		err = check(*out, *seed, *runs, *tolerance)
	} else {
		err = run(*out, *seed, *runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
