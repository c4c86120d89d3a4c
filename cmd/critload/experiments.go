package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"

	"critload/internal/experiments"
)

// runExperiments regenerates the paper's tables and figures. One shared suite
// runs each workload at most once per configuration, functionally and under
// the timing model; every entry of experiments.Artifacts is then derived
// from those runs, as in the paper's methodology. With no flags but
// -markdown it prints the measured block of EXPERIMENTS.md.
func runExperiments(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet(stderr, "experiments", "[flags]",
		"experiments                                  # everything, text tables",
		"experiments -markdown                        # everything, as markdown: the measured block of EXPERIMENTS.md",
		"experiments -artifact fig5 -markdown         # one figure, as markdown",
		"experiments -parallel 0 -cpuprofile cpu.prof # serial, for profiling; same bytes as the parallel sweep")
	selectors := []string{"all"}
	for _, a := range experiments.Artifacts {
		selectors = append(selectors, a.Name)
	}
	artifact := fs.String("artifact", "all",
		"artifact to regenerate: "+strings.Join(selectors, ", "))
	seed := seedFlag(fs)
	maxInsts := fs.Uint64("max-insts", experiments.ReproductionWindow,
		"timing-window warp-instruction budget per workload (0 = complete runs)")
	markdown := fs.Bool("markdown", false, "emit markdown tables")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"workers executing the sweep concurrently, GOMAXPROCS by default (0 = serial, -1 = one per CPU)")
	prof := profileFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}

	name := strings.ToLower(*artifact)
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

	suite := experiments.NewSuite(experiments.Options{Seed: *seed, MaxWarpInsts: *maxInsts})
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
			if *markdown {
				fmt.Fprintln(stdout, t.Markdown())
			} else {
				fmt.Fprintln(stdout, t)
			}
		}
	}
	return nil
}
