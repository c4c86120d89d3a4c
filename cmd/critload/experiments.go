package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"critload/internal/checkpoint"
	"critload/internal/experiments"
	"critload/internal/report"
)

// checkpointBudgetBytes caps the shared on-disk checkpoint store; LRU
// eviction keeps the directory under it across invocations.
const checkpointBudgetBytes = 4 << 30

// runExperiments regenerates the paper's tables and figures. One shared suite
// runs each workload at most once per configuration, functionally and under
// the timing model; every entry of experiments.Artifacts is then derived
// from those runs, as in the paper's methodology.
func runExperiments(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet(stderr, "experiments", "[flags]",
		"experiments                                # everything, text tables",
		"experiments -artifact fig5 -markdown       # one figure, as markdown (EXPERIMENTS.md input)",
		"experiments -parallel 8 -checkpoint-dir '' # 8 workers, no warm starts; same bytes as the serial sweep",
		"experiments -artifact warmstart -warmstart-out BENCH_warmstart.json    # record the incremental sweep",
		"experiments -artifact warmstart -warmstart-check BENCH_warmstart.json  # regenerate it and compare exactly")
	selectors := []string{"all"}
	for _, a := range experiments.Artifacts {
		selectors = append(selectors, a.Name)
	}
	artifact := fs.String("artifact", "all",
		"artifact to regenerate: "+strings.Join(selectors, ", ")+", warmstart")
	seed := seedFlag(fs)
	maxInsts := fs.Uint64("max-insts", 400_000,
		"timing-window warp-instruction budget per workload (0 = complete runs)")
	markdown := fs.Bool("markdown", false, "emit markdown tables")
	parallel := fs.Int("parallel", 0,
		"workers executing the sweep concurrently (0 = serial, -1 = one per CPU)")
	prof := profileFlags(fs)
	ckptDir := fs.String("checkpoint-dir", filepath.Join(os.TempDir(), "critload-checkpoints"),
		"checkpoint store so repeated sweeps warm-start instead of re-simulating (empty disables)")
	warmOut := fs.String("warmstart-out", "",
		"with -artifact warmstart: also write the report JSON to this path")
	warmCheck := fs.String("warmstart-check", "",
		"with -artifact warmstart: regenerate and compare against this committed report instead of writing")
	if err := parse(fs, args); err != nil {
		return err
	}
	emit := func(t *report.Table) {
		if *markdown {
			fmt.Fprintln(stdout, t.Markdown())
		} else {
			fmt.Fprintln(stdout, t)
		}
	}

	name := strings.ToLower(*artifact)
	if name == "warmstart" {
		return warmstart(stdout, emit, *warmOut, *warmCheck, *seed)
	}
	var selected []experiments.Artifact
	for _, a := range experiments.Artifacts {
		if name == "all" || name == a.Name {
			selected = append(selected, a)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown artifact %q", name)
	}

	stop, err := prof.start(stderr)
	if err != nil {
		return err
	}
	defer stop()

	opts := experiments.Options{Seed: *seed, MaxWarpInsts: *maxInsts}
	if *ckptDir != "" {
		store, err := checkpoint.Open(*ckptDir, checkpointBudgetBytes)
		if err != nil {
			return fmt.Errorf("checkpoint store: %w", err)
		}
		opts.Checkpoints = store
	}
	suite := experiments.NewSuite(opts)
	if *parallel != 0 {
		// Warm the suite's run caches through the worker pool — exactly the
		// runs the selected artifacts declare; they then render in their
		// usual serial order, so the output is byte-identical to a serial
		// sweep no matter in which order the workloads finish.
		if err := suite.Warm(context.Background(), *parallel, selected); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}
	for _, a := range selected {
		tables, err := a.Render(suite)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, t := range tables {
			emit(t)
		}
	}
	return nil
}

// The recorded warm-start sweep: sssp has the densest kernel-launch boundary
// sequence of the graph workloads (26 boundaries at this size), so the swept
// late parameter — the measurement-window budget — leaves long shared
// prefixes for checkpoints to collapse. Budget 0 is the complete run.
const (
	warmStartWorkload = "sssp"
	warmStartSize     = 1024
)

var warmStartBudgets = []uint64{28_000, 42_000, 56_000, 0}

// warmstart measures the incremental sweep from an empty store (a shared
// store would make point one warm and the report irreproducible), prints it,
// and optionally records it to, or checks it against, a committed JSON file.
// The ≥50%-skipped acceptance bar is enforced on every regeneration.
func warmstart(stdout io.Writer, emit func(*report.Table), outPath, checkPath string, seed int64) error {
	dir, err := os.MkdirTemp("", "critload-warmstart-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.Open(dir, 0)
	if err != nil {
		return err
	}
	rep, err := experiments.MeasureWarmStart(warmStartWorkload, warmStartSize, seed, warmStartBudgets, store)
	if err != nil {
		return err
	}

	t := report.New(
		fmt.Sprintf("Warm-start sweep — %s size %d, measurement-window budget as the late parameter",
			rep.Workload, rep.Size),
		"max warp insts", "cycles", "warp insts", "resumed at boundary", "cycles inherited", "cycles simulated")
	for _, p := range rep.Points {
		budget := "complete"
		if p.MaxWarpInsts > 0 {
			budget = fmt.Sprint(p.MaxWarpInsts)
		}
		t.Add(budget, p.Cycles, p.WarpInsts, p.WarmStartIndex, p.WarmStartCycles, p.SimulatedCycles)
	}
	emit(t)
	fmt.Fprintf(stdout, "warm starts skipped %d of %d simulated cycles (%.1f%%)\n",
		rep.CyclesSkipped, rep.TotalCycles, 100*rep.SkippedFraction)

	if rep.SkippedFraction < 0.5 {
		return fmt.Errorf("warm starts skipped only %.1f%% of simulated cycles, want >= 50%%",
			100*rep.SkippedFraction)
	}
	if checkPath != "" {
		buf, err := os.ReadFile(checkPath)
		if err != nil {
			return fmt.Errorf("reading committed report: %w", err)
		}
		var committed experiments.WarmStartReport
		if err := json.Unmarshal(buf, &committed); err != nil {
			return fmt.Errorf("parsing committed report %s: %w", checkPath, err)
		}
		// Every field is deterministic, so the comparison is exact.
		if !reflect.DeepEqual(&committed, rep) {
			fresh, _ := json.Marshal(rep)
			return fmt.Errorf("regenerated warm-start report differs from %s:\n%s", checkPath, fresh)
		}
		fmt.Fprintf(stdout, "warmstart-check: %s reproduced exactly\n", checkPath)
	}
	if outPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(outPath, append(buf, '\n'), 0o644)
	}
	return nil
}
