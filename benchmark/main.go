// Command benchmark is the repo's one benchmark: seven named workloads,
// end-to-end metrics with bounds, and — in a separate traced run — a ledger
// of per-layer metrics taken from outside the program. BENCHMARK.json at the
// repo root declares the workloads, metrics, units and bounds; README.md in
// this directory explains them.
//
//	go run ./benchmark                        # all workloads, one fresh process each
//	go run ./benchmark -workload svc-cold     # one workload; last line is its result as JSON
//	go run ./benchmark -trace 1               # the traced run: per-layer metrics
//	go run ./benchmark -compare a.json b.json # judge set b against set a
//	go run ./benchmark -update-golden         # regenerate golden.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// declPath is the benchmark's declaration, relative to the repo root the
// command is run from.
const declPath = "BENCHMARK.json"

// outDir holds everything a run writes: the daemon binary, its scratch
// directories, traces and result sets. It is inside the checkout and ignored
// by git.
const outDir = "benchmark/out"

func main() {
	start := time.Now()
	var (
		name    = flag.String("workload", "", "run this one workload (default: all seven, one process each)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics in place of the end-to-end ones")
		smoke   = flag.Bool("smoke", false, "tiny sizes and one-second windows: checks the harness, measures nothing")
		output  = flag.String("o", "", "write the result set of an all-workloads run here (default benchmark/out/set-seed<n>-trace<t>.json)")
		compare = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		golden  = flag.Bool("update-golden", false, "regenerate benchmark/golden.json")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	err := func() error {
		decl, err := loadDecl(declPath)
		if err != nil {
			return err
		}
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two result-set files")
			}
			return compareSets(os.Stdout, decl, flag.Arg(0), flag.Arg(1))
		case *golden:
			return updateGolden(ctx)
		}
		if *seconds <= 0 {
			*seconds = float64(decl.RunSeconds)
		}
		if *smoke {
			*seconds = min(*seconds, 1)
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if *name == "" {
			if *output == "" {
				*output = filepath.Join(outDir, fmt.Sprintf("set-seed%d-trace%d.json", *seed, *trace))
			}
			return runSet(ctx, decl, *seed, *seconds, *trace, *smoke, *output)
		}
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		cfg := runConfig{W: w, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
			Smoke: *smoke, OutDir: outDir, Start: start}
		out, err := runWorkload(ctx, cfg)
		if err != nil {
			return err
		}
		for _, note := range out.Notes {
			fmt.Fprintln(os.Stderr, "benchmark:", note)
		}
		res, err := decl.resultOf(out, cfg.Trace)
		if err != nil {
			return err
		}
		return printResult(os.Stdout, w.Name, res)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// metricValue is one metric as printed in a result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome in the shape the last output line carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult prints every metric by name with its unit, then the result as
// one JSON object on the last line.
func printResult(w *os.File, workload string, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed\n", workload, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// resultSet is one all-workloads run, the input of -compare.
type resultSet struct {
	Env   environment `json:"env"`
	Seed  int64       `json:"seed"`
	Trace int         `json:"trace"`
	// CalibMS is the fixed spin loop timed before and after each workload.
	CalibMS   map[string][2]float64 `json:"calib_ms"`
	Workloads map[string]result     `json:"workloads"`
}

// runSet runs every workload in a fresh process of this same binary, so that
// peak RSS and heap state do not leak from one to the next, and writes the
// results as one set.
func runSet(ctx context.Context, decl *declaration, seed int64, seconds float64, trace int, smoke bool, path string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Env: describeEnvironment(outDir), Seed: seed, Trace: trace,
		CalibMS: map[string][2]float64{}, Workloads: map[string]result{}}
	for _, w := range decl.Workloads {
		args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		if smoke {
			args = append(args, "-smoke")
		}
		speed := newSpeedometer(1, false)
		before := speed.sample()
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		os.Stdout.Write(b)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("workload %s: reading its result: %w", w.Name, err)
		}
		set.Workloads[w.Name] = res
		set.CalibMS[w.Name] = [2]float64{before, speed.sample()}
	}
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: result set written to %s\n", path)
	return nil
}
