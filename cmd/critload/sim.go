package main

import (
	"fmt"
	"io"
	"os"

	"critload/internal/cache"
	"critload/internal/experiments"
	"critload/internal/gpu"
	"critload/internal/isa"
	"critload/internal/profiler"
	"critload/internal/report"
	"critload/internal/sm"
	"critload/internal/stats"
	"critload/internal/trace"
)

// sim runs one workload on the cycle-level GPU simulator (Tesla C2050
// configuration of Table II) and reports the paper's per-category statistics
// plus the Table III profiler counters.
func sim(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet(stderr, "sim", "-workload <name> [flags]",
		"sim -workload bfs",
		"sim -workload spmv -size 8192 -max-insts 500000",
		"sim -workload 2mm -functional -verify",
		"sim -workload bfs -trace bfs.csv",
		"sim -workload grm -size 192 -cpuprofile cpu.prof  # then: go tool pprof -top cpu.prof")
	workload := fs.String("workload", "", "workload to run (see critload classify -list)")
	size := fs.Int("size", 0, "problem size override (0 = workload default)")
	seed := seedFlag(fs)
	maxInsts := fs.Uint64("max-insts", 0, "stop the timing window after this many warp instructions (0 = complete run)")
	functional := fs.Bool("functional", false, "run on the functional emulator instead of the timing model")
	verify := fs.Bool("verify", false, "check results against the CPU reference (complete runs only)")
	ctaPolicy := fs.String("cta-policy", "rr", "CTA scheduler: rr (round-robin) or clustered")
	warpPolicy := fs.String("warp-policy", "lrr", "warp scheduler: lrr or gto")
	tracePath := fs.String("trace", "", "write a per-request CSV trace to this file (timing runs only)")
	prof := profileFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *workload == "" {
		fs.Usage()
		return errUsage
	}

	cfg := gpu.DefaultConfig()
	cfg.MaxCycles = 2_000_000_000
	switch *ctaPolicy {
	case "rr":
		cfg.CTAPolicy = gpu.CTARoundRobin
	case "clustered":
		cfg.CTAPolicy = gpu.CTAClustered
	default:
		return fmt.Errorf("unknown CTA policy %q", *ctaPolicy)
	}
	switch *warpPolicy {
	case "lrr":
		cfg.SM.Policy = sm.LRR
	case "gto":
		cfg.SM.Policy = sm.GTO
	default:
		return fmt.Errorf("unknown warp policy %q", *warpPolicy)
	}
	opts := experiments.Options{Size: *size, Seed: *seed, MaxWarpInsts: *maxInsts, GPU: &cfg}
	var tracer *trace.Buffer
	if *tracePath != "" {
		if *functional {
			return fmt.Errorf("-trace requires a timing run")
		}
		tracer = trace.NewBuffer(1 << 21)
		opts.Tracer = tracer
	}

	exec := experiments.RunTiming
	if *functional {
		exec = experiments.RunFunctional
	}
	stop, err := prof.start(stderr)
	if err != nil {
		return err
	}
	defer stop()
	r, err := exec(*workload, opts)
	if err != nil {
		return err
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tracer.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d requests written to %s (%d dropped)\n",
			tracer.Len(), *tracePath, tracer.Dropped())
	}
	if *verify {
		if *maxInsts > 0 {
			return fmt.Errorf("-verify requires a complete run (-max-insts 0)")
		}
		if err := r.Instance.Verify(); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
		fmt.Fprintln(stdout, "verification: OK")
	}
	printRun(stdout, *workload, r, *functional)
	return nil
}

func printRun(w io.Writer, name string, r *experiments.Run, functional bool) {
	col := r.Col
	fmt.Fprintf(w, "workload %s (%s): %s\n", name, r.Workload.Category, r.Workload.Description)
	fmt.Fprintf(w, "  warp instructions: %d  thread instructions: %d\n", col.WarpInsts, col.ThreadInsts)
	if !functional {
		fmt.Fprintf(w, "  cycles: %d  IPC: %.2f (warp insts/cycle)\n",
			r.Cycles, float64(col.WarpInsts)/float64(max(r.Cycles, 1)))
	}

	t := report.New("per-category load behaviour", "metric", "deterministic", "non-deterministic")
	t.Add("global load warps", col.GLoadWarps[stats.Det], col.GLoadWarps[stats.NonDet])
	t.Add("memory requests", col.Requests[stats.Det], col.Requests[stats.NonDet])
	t.Add("requests / warp", col.RequestsPerWarp(stats.Det), col.RequestsPerWarp(stats.NonDet))
	t.Add("requests / active thread", col.RequestsPerActiveThread(stats.Det), col.RequestsPerActiveThread(stats.NonDet))
	if !functional {
		t.Add("L1 miss ratio", stats.MissRatio(col.L1Miss[stats.Det], col.L1Acc[stats.Det]),
			stats.MissRatio(col.L1Miss[stats.NonDet], col.L1Acc[stats.NonDet]))
		t.Add("L2 miss ratio", stats.MissRatio(col.L2Miss[stats.Det], col.L2Acc[stats.Det]),
			stats.MissRatio(col.L2Miss[stats.NonDet], col.L2Acc[stats.NonDet]))
		t.Add("mean turnaround (cycles)", col.Turnaround[stats.Det].MeanTotal(), col.Turnaround[stats.NonDet].MeanTotal())
	}
	fmt.Fprint(w, t)

	if !functional {
		bd := col.L1CycleBreakdown()
		bt := report.New("L1 cache cycle breakdown", "outcome", "fraction")
		for o := cache.Outcome(0); o < cache.NumOutcomes; o++ {
			bt.Add(o.String(), report.Pct(bd[o]))
		}
		fmt.Fprint(w, bt)

		ut := report.New("function unit occupancy", "unit", "idle fraction")
		for u := isa.FuncUnit(0); u < isa.NumFuncUnits; u++ {
			ut.Add(u.String(), report.Pct(col.UnitIdleFraction(u)))
		}
		fmt.Fprint(w, ut)
	}

	fmt.Fprintln(w, "profiler counters (Table III):")
	fmt.Fprint(w, profiler.Read(col))
}
