// Command gpgpusim runs one of the Table I workloads on the cycle-level GPU
// simulator (Tesla C2050 configuration of Table II) and reports the paper's
// per-category statistics plus the Table III profiler counters.
//
// Usage:
//
//	gpgpusim -workload bfs
//	gpgpusim -workload spmv -size 8192 -max-insts 500000
//	gpgpusim -workload 2mm -functional -verify
package main

import (
	"flag"
	"fmt"
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

func main() {
	workload := flag.String("workload", "", "workload to run (see loadclass -list)")
	size := flag.Int("size", 0, "problem size override (0 = workload default)")
	seed := flag.Int64("seed", 1, "input generation seed")
	maxInsts := flag.Uint64("max-insts", 0, "stop the timing window after this many warp instructions (0 = complete run)")
	functional := flag.Bool("functional", false, "run on the functional emulator instead of the timing model")
	verify := flag.Bool("verify", false, "check results against the CPU reference (complete runs only)")
	ctaPolicy := flag.String("cta-policy", "rr", "CTA scheduler: rr (round-robin) or clustered")
	warpPolicy := flag.String("warp-policy", "lrr", "warp scheduler: lrr or gto")
	tracePath := flag.String("trace", "", "write a per-request CSV trace to this file (timing runs only)")
	flag.Parse()

	if *workload == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*workload, *size, *seed, *maxInsts, *functional, *verify, *ctaPolicy, *warpPolicy, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "gpgpusim:", err)
		os.Exit(1)
	}
}

func run(name string, size int, seed int64, maxInsts uint64, functional, verify bool, ctaPolicy, warpPolicy, tracePath string) error {
	cfg := gpu.DefaultConfig()
	cfg.MaxCycles = 2_000_000_000
	switch ctaPolicy {
	case "rr":
		cfg.CTAPolicy = gpu.CTARoundRobin
	case "clustered":
		cfg.CTAPolicy = gpu.CTAClustered
	default:
		return fmt.Errorf("unknown CTA policy %q", ctaPolicy)
	}
	switch warpPolicy {
	case "lrr":
		cfg.SM.Policy = sm.LRR
	case "gto":
		cfg.SM.Policy = sm.GTO
	default:
		return fmt.Errorf("unknown warp policy %q", warpPolicy)
	}
	opts := experiments.Options{Size: size, Seed: seed, MaxWarpInsts: maxInsts, GPU: &cfg}
	var tracer *trace.Buffer
	if tracePath != "" {
		if functional {
			return fmt.Errorf("-trace requires a timing run")
		}
		tracer = trace.NewBuffer(1 << 21)
		opts.Tracer = tracer
	}

	var r *experiments.Run
	var err error
	if functional {
		r, err = experiments.RunFunctional(name, opts)
	} else {
		r, err = experiments.RunTiming(name, opts)
	}
	if err != nil {
		return err
	}
	if tracer != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tracer.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("trace: %d requests written to %s (%d dropped)\n",
			tracer.Len(), tracePath, tracer.Dropped())
	}
	if verify {
		if maxInsts > 0 {
			return fmt.Errorf("-verify requires a complete run (-max-insts 0)")
		}
		if err := r.Instance.Verify(); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
		fmt.Println("verification: OK")
	}
	printRun(name, r, functional)
	return nil
}

func printRun(name string, r *experiments.Run, functional bool) {
	col := r.Col
	fmt.Printf("workload %s (%s): %s\n", name, r.Workload.Category, r.Workload.Description)
	fmt.Printf("  warp instructions: %d  thread instructions: %d\n", col.WarpInsts, col.ThreadInsts)
	if !functional {
		fmt.Printf("  cycles: %d  IPC: %.2f (warp insts/cycle)\n",
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
	fmt.Print(t)

	if !functional {
		bd := col.L1CycleBreakdown()
		bt := report.New("L1 cache cycle breakdown", "outcome", "fraction")
		for o := cache.Outcome(0); o < cache.NumOutcomes; o++ {
			bt.Add(o.String(), report.Pct(bd[o]))
		}
		fmt.Print(bt)

		ut := report.New("function unit occupancy", "unit", "idle fraction")
		for u := isa.FuncUnit(0); u < isa.NumFuncUnits; u++ {
			ut.Add(u.String(), report.Pct(col.UnitIdleFraction(u)))
		}
		fmt.Print(ut)
	}

	fmt.Println("profiler counters (Table III):")
	fmt.Print(profiler.Read(col))
}
