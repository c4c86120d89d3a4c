// Command experiments regenerates the paper's tables and figures from the
// simulator. One shared suite runs each workload at most once functionally
// and once under the timing model; every artifact is then derived from those
// runs, as in the paper's methodology.
//
// Usage:
//
//	experiments                       # everything, text tables
//	experiments -artifact fig5        # a single figure
//	experiments -markdown             # markdown tables (EXPERIMENTS.md input)
//	experiments -size-scale small     # reduced inputs for a quick pass
//	experiments -parallel 8           # warm the suite on 8 workers first
//	experiments -cpuprofile cpu.prof  # profile the sweep (go tool pprof)
//	experiments -checkpoint-dir ""    # disable incremental warm starts
//	experiments -artifact warmstart -warmstart-out BENCH_warmstart.json
//	                                  # record the incremental-sweep measurement
//	experiments -artifact warmstart -warmstart-check BENCH_warmstart.json
//	                                  # regenerate and compare it exactly
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"

	"critload/internal/cache"
	"critload/internal/checkpoint"
	"critload/internal/experiments"
	"critload/internal/isa"
	"critload/internal/profiler"
	"critload/internal/report"
	"critload/internal/stats"
)

var markdown bool

func emit(t *report.Table) {
	if markdown {
		fmt.Println(t.Markdown())
	} else {
		fmt.Println(t)
	}
}

// checkpointBudgetBytes caps the shared on-disk checkpoint store; LRU
// eviction keeps the directory under it across invocations.
const checkpointBudgetBytes = 4 << 30

func main() {
	artifact := flag.String("artifact", "all",
		"artifact to regenerate: all, table1, table3, fig1..fig12, ablation, warmstart")
	seed := flag.Int64("seed", 1, "input generation seed")
	maxInsts := flag.Uint64("max-insts", 400_000,
		"timing-window warp-instruction budget per workload (0 = complete runs)")
	md := flag.Bool("markdown", false, "emit markdown tables")
	parallel := flag.Int("parallel", 0,
		"workers executing the sweep concurrently (0 = serial, -1 = one per CPU)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	ckptDir := flag.String("checkpoint-dir", filepath.Join(os.TempDir(), "critload-checkpoints"),
		"checkpoint store so repeated sweeps warm-start instead of re-simulating (empty disables)")
	warmOut := flag.String("warmstart-out", "",
		"with -artifact warmstart: also write the report JSON to this path")
	warmCheck := flag.String("warmstart-check", "",
		"with -artifact warmstart: regenerate and compare against this committed report instead of writing")
	flag.Parse()
	markdown = *md

	// The sweep runs inside a function returning error so the deferred
	// profile writers always flush; os.Exit here would skip them.
	var err error
	if strings.ToLower(*artifact) == "warmstart" {
		err = warmstart(*warmOut, *warmCheck, *seed)
	} else {
		err = sweep(strings.ToLower(*artifact), *ckptDir, *seed, *maxInsts, *parallel,
			*cpuProfile, *memProfile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func sweep(artifact, ckptDir string, seed int64, maxInsts uint64, parallel int, cpuProfile, memProfile string) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		// Written on the way out so the profile covers the whole sweep; a
		// final GC makes the live-heap numbers meaningful.
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	opts := experiments.Options{Seed: seed, MaxWarpInsts: maxInsts}
	if ckptDir != "" {
		store, err := checkpoint.Open(ckptDir, checkpointBudgetBytes)
		if err != nil {
			return fmt.Errorf("checkpoint store: %w", err)
		}
		opts.Checkpoints = store
	}
	suite := experiments.NewSuite(opts)
	if parallel != 0 {
		// Warm the suite's run caches through the worker pool; the
		// generators below then emit in their usual serial order, so the
		// output is byte-identical to a serial sweep no matter in which
		// order the workloads finish.
		fn, tm := runsNeeded(artifact)
		if err := suite.Warm(context.Background(), parallel, fn, tm); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}
	return run(suite, artifact)
}

// runsNeeded reports which engines an artifact draws on, so -parallel warms
// neither more nor less than the serial sweep would execute.
func runsNeeded(artifact string) (functional, timing bool) {
	fnArtifacts := map[string]bool{
		"table1": true, "fig1": true, "fig2": true, "fig9": true,
		"fig10": true, "fig11": true, "fig12": true,
		// table3 resolves its column order through Table I.
		"table3": true,
	}
	tmArtifacts := map[string]bool{
		"fig3": true, "fig4": true, "fig5": true, "fig6": true,
		"fig7": true, "fig8": true, "table3": true,
	}
	if artifact == "all" {
		return true, true
	}
	return fnArtifacts[artifact], tmArtifacts[artifact]
}

func run(s *experiments.Suite, artifact string) error {
	type gen struct {
		name string
		fn   func(*experiments.Suite) error
	}
	gens := []gen{
		{"table1", table1}, {"fig1", fig1}, {"fig2", fig2}, {"fig3", fig3},
		{"fig4", fig4}, {"fig5", fig5}, {"fig6", fig6}, {"fig7", fig7},
		{"fig8", fig8}, {"fig9", fig9}, {"fig10", fig10}, {"fig11", fig11},
		{"fig12", fig12}, {"table3", table3}, {"ablation", ablation},
	}
	found := false
	for _, g := range gens {
		if artifact == "all" || artifact == g.name {
			found = true
			if err := g.fn(s); err != nil {
				return fmt.Errorf("%s: %w", g.name, err)
			}
		}
	}
	if !found {
		return fmt.Errorf("unknown artifact %q", artifact)
	}
	return nil
}

func table1(s *experiments.Suite) error {
	rows, err := s.Table1()
	if err != nil {
		return err
	}
	t := report.New("Table I — application characteristics",
		"name", "category", "data set", "CTAs", "threads/CTA",
		"warp insts", "global loads", "load fraction")
	for _, r := range rows {
		t.Add(r.Name, r.Category, r.DataSet, r.CTAs, r.ThreadsPerCTA,
			r.TotalInsts, r.GlobalLoads, report.Pct(r.LoadFraction))
	}
	emit(t)
	return nil
}

func fig1(s *experiments.Suite) error {
	rows, err := s.Figure1()
	if err != nil {
		return err
	}
	t := report.New("Figure 1 — deterministic / non-deterministic load distribution",
		"name", "category", "deterministic", "non-deterministic")
	for _, r := range rows {
		t.Add(r.Name, r.Category, report.Pct(r.Det), report.Pct(r.NonDet))
	}
	emit(t)
	return nil
}

func fig2(s *experiments.Suite) error {
	rows, err := s.Figure2()
	if err != nil {
		return err
	}
	t := report.New("Figure 2 — memory requests per warp and per active thread",
		"name", "req/warp (N)", "req/warp (D)", "req/thread (N)", "req/thread (D)")
	for _, r := range rows {
		t.Add(r.Name, r.ReqPerWarp[stats.NonDet], r.ReqPerWarp[stats.Det],
			r.ReqPerThread[stats.NonDet], r.ReqPerThread[stats.Det])
	}
	emit(t)
	return nil
}

func fig3(s *experiments.Suite) error {
	rows, err := s.Figure3()
	if err != nil {
		return err
	}
	t := report.New("Figure 3 — breakdown of L1 data cache cycles",
		"name", "hit", "hit-reserved", "miss", "rsrv-fail tags", "rsrv-fail MSHRs", "rsrv-fail icnt")
	for _, r := range rows {
		t.Add(r.Name,
			report.Pct(r.Fractions[cache.Hit]), report.Pct(r.Fractions[cache.HitReserved]),
			report.Pct(r.Fractions[cache.Miss]), report.Pct(r.Fractions[cache.RsrvFailTag]),
			report.Pct(r.Fractions[cache.RsrvFailMSHR]), report.Pct(r.Fractions[cache.RsrvFailICNT]))
	}
	emit(t)
	return nil
}

func fig4(s *experiments.Suite) error {
	rows, err := s.Figure4()
	if err != nil {
		return err
	}
	t := report.New("Figure 4 — fraction of idle cycles per function unit",
		"name", "SP idle", "SFU idle", "LD/ST idle")
	for _, r := range rows {
		t.Add(r.Name, report.Pct(r.Idle[isa.UnitSP]), report.Pct(r.Idle[isa.UnitSFU]),
			report.Pct(r.Idle[isa.UnitLDST]))
	}
	emit(t)
	return nil
}

func fig5(s *experiments.Suite) error {
	rows, err := s.Figure5()
	if err != nil {
		return err
	}
	t := report.New("Figure 5 — load turnaround decomposition (mean cycles)",
		"name", "cat", "unloaded", "rsrv prev warps", "rsrv current", "L2/DRAM waste", "total")
	for _, r := range rows {
		for c := stats.Category(0); c < stats.NumCats; c++ {
			if r.Ops[c] == 0 {
				continue
			}
			t.Add(r.Name, c, r.Unloaded[c], r.RsrvPrev[c], r.RsrvCurr[c], r.MemSys[c], r.Total[c])
		}
	}
	emit(t)
	return nil
}

func fig6(s *experiments.Suite) error {
	series, err := s.Figure6()
	if err != nil {
		return err
	}
	t := report.New("Figure 6 — turnaround vs generated requests (busiest loads)",
		"workload", "PC", "class", "requests", "mean turnaround", "ops")
	for _, sr := range series {
		cls := "D"
		if sr.NonDet {
			cls = "N"
		}
		for _, p := range sr.Points {
			t.Add(sr.Workload, fmt.Sprintf("0x%03x", sr.PC), cls, p.NReq, p.MeanTurnaround, p.Ops)
		}
	}
	emit(t)
	return nil
}

func fig7(s *experiments.Suite) error {
	res, err := s.Figure7()
	if err != nil {
		return err
	}
	t := report.New(
		fmt.Sprintf("Figure 7 — gap breakdown for %s PC 0x%03x (non-deterministic)", res.Workload, res.PC),
		"requests", "common latency", "gap at L1D", "gap at icnt-L2", "gap at L2-icnt", "total", "ops")
	for _, b := range res.Buckets {
		t.Add(b.NReq, b.Common, b.GapL1D, b.GapIcntL2, b.GapL2Icnt, b.Total, b.Ops)
	}
	emit(t)
	return nil
}

func fig8(s *experiments.Suite) error {
	rows, err := s.Figure8()
	if err != nil {
		return err
	}
	t := report.New("Figure 8 — L1 and L2 miss ratios per category",
		"name", "L1 miss (N)", "L1 miss (D)", "L2 miss (N)", "L2 miss (D)")
	for _, r := range rows {
		t.Add(r.Name,
			report.Pct(r.L1Miss[stats.NonDet]), report.Pct(r.L1Miss[stats.Det]),
			report.Pct(r.L2Miss[stats.NonDet]), report.Pct(r.L2Miss[stats.Det]))
	}
	emit(t)
	return nil
}

func fig9(s *experiments.Suite) error {
	rows, err := s.Figure9()
	if err != nil {
		return err
	}
	t := report.New("Figure 9 — shared memory loads per global memory load",
		"name", "category", "shared/global", "shared loads", "global loads")
	for _, r := range rows {
		t.Add(r.Name, r.Category, r.SharedPerGlobal, r.SharedLoads, r.GlobalLoads)
	}
	emit(t)
	return nil
}

func fig10(s *experiments.Suite) error {
	rows, err := s.Figure10()
	if err != nil {
		return err
	}
	t := report.New("Figure 10 — cold miss ratio and accesses per 128B block",
		"name", "category", "cold miss ratio", "accesses/block", "distinct blocks")
	for _, r := range rows {
		t.Add(r.Name, r.Category, report.Pct(r.ColdMissRatio), r.AccessPerBlock, r.DistinctBlocks)
	}
	emit(t)
	return nil
}

func fig11(s *experiments.Suite) error {
	rows, err := s.Figure11()
	if err != nil {
		return err
	}
	t := report.New("Figure 11 — data space accessed by multiple CTAs",
		"name", "shared-block ratio", "shared-access ratio", "mean CTAs/shared block")
	for _, r := range rows {
		t.Add(r.Name, report.Pct(r.SharedBlockRatio), report.Pct(r.SharedAccessRatio), r.MeanCTAsPerShared)
	}
	emit(t)
	return nil
}

func fig12(s *experiments.Suite) error {
	rows, err := s.Figure12()
	if err != nil {
		return err
	}
	t := report.New("Figure 12 — CTA distance frequency for shared blocks (top 6 distances)",
		"name", "category", "distance:fraction ...")
	for _, r := range rows {
		bins := r.Bins
		// Report the dominant distances.
		top := bins
		if len(top) > 6 {
			// Bins are distance-sorted; pick the six largest by count.
			top = append([]stats.DistanceBin(nil), bins...)
			for i := 0; i < 6; i++ {
				for j := i + 1; j < len(top); j++ {
					if top[j].Count > top[i].Count {
						top[i], top[j] = top[j], top[i]
					}
				}
			}
			top = top[:6]
		}
		var parts []string
		for _, b := range top {
			parts = append(parts, fmt.Sprintf("%d:%.2f", b.Distance, b.Fraction))
		}
		t.Add(r.Name, r.Category, strings.Join(parts, " "))
	}
	emit(t)
	return nil
}

func table3(s *experiments.Suite) error {
	t := report.New("Table III — profiler counters per workload",
		append([]string{"counter"}, s.Opts.Workloads...)...)
	names := s.Opts.Workloads
	if len(names) == 0 {
		// Full sweep: one column per workload in Table I order.
		rows, err := s.Table1()
		if err != nil {
			return err
		}
		for _, r := range rows {
			names = append(names, r.Name)
		}
		t = report.New("Table III — profiler counters per workload",
			append([]string{"counter"}, names...)...)
	}
	counters := map[string]profiler.Counters{}
	for _, n := range names {
		run, err := s.Timing(n)
		if err != nil {
			return err
		}
		counters[n] = profiler.Read(run.Col)
	}
	for _, c := range profiler.Names() {
		cells := []any{c}
		for _, n := range names {
			cells = append(cells, counters[n][c])
		}
		t.Add(cells...)
	}
	emit(t)
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
func warmstart(outPath, checkPath string, seed int64) error {
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
	fmt.Printf("warm starts skipped %d of %d simulated cycles (%.1f%%)\n",
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
		fmt.Printf("warmstart-check: %s reproduced exactly\n", checkPath)
	}
	if outPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func ablation(s *experiments.Suite) error {
	for _, a := range experiments.Ablations {
		rows, err := experiments.RunAblation(a.Name, s.Opts)
		if err != nil {
			return err
		}
		metric := "L1 hit"
		if a.Turnaround {
			metric = "turnaround"
		}
		t := report.New(a.Title, "name", a.Base+" cycles", a.Variant+" cycles",
			a.Base+" "+metric, a.Variant+" "+metric)
		for _, r := range rows {
			if a.Turnaround {
				t.Add(r.Name, r.BaseCycles, r.VariantCycles, r.BaseTurnaround, r.VariantTurnaround)
			} else {
				t.Add(r.Name, r.BaseCycles, r.VariantCycles, report.Pct(r.BaseL1Hit), report.Pct(r.VariantL1Hit))
			}
		}
		emit(t)
	}
	return nil
}
