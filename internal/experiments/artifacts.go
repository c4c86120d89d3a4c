package experiments

import (
	"fmt"
	"strings"

	"critload/internal/cache"
	"critload/internal/isa"
	"critload/internal/profiler"
	"critload/internal/report"
	"critload/internal/stats"
)

// Artifact is one table or figure of the paper as `critload experiments
// -artifact <Name>` regenerates it.
type Artifact struct {
	Name string // selector
	// Functional, Timing and Variants declare the suite runs Render reads:
	// each selected workload's functional run, its timing run, and its
	// timing run under each variant's Apply. Warm executes exactly these,
	// so a parallel sweep runs neither more nor less than the serial one.
	Functional, Timing bool
	Variants           []Ablation
	Render             func(*Suite) ([]*report.Table, error)
}

// Artifacts lists every artifact in the order `-artifact all` prints them.
var Artifacts = []Artifact{
	{Name: "table1", Functional: true, Render: perRow((*Suite).Table1,
		func(t *report.Table, r Table1Row) {
			t.Add(r.Name, r.Category, r.DataSet, r.CTAs, r.ThreadsPerCTA,
				r.TotalInsts, r.GlobalLoads, report.Pct(r.LoadFraction))
		}, "Table I — application characteristics",
		"name", "category", "data set", "CTAs", "threads/CTA", "warp insts", "global loads", "load fraction")},
	{Name: "fig1", Functional: true, Render: perRow((*Suite).Figure1,
		func(t *report.Table, r Fig1Row) {
			t.Add(r.Name, r.Category, report.Pct(r.Det), report.Pct(r.NonDet))
		}, "Figure 1 — deterministic / non-deterministic load distribution",
		"name", "category", "deterministic", "non-deterministic")},
	{Name: "fig2", Functional: true, Render: perRow((*Suite).Figure2,
		func(t *report.Table, r Fig2Row) {
			t.Add(r.Name, r.ReqPerWarp[stats.NonDet], r.ReqPerWarp[stats.Det],
				r.ReqPerThread[stats.NonDet], r.ReqPerThread[stats.Det])
		}, "Figure 2 — memory requests per warp and per active thread",
		"name", "req/warp (N)", "req/warp (D)", "req/thread (N)", "req/thread (D)")},
	{Name: "fig3", Timing: true, Render: perRow((*Suite).Figure3,
		func(t *report.Table, r Fig3Row) {
			t.Add(r.Name,
				report.Pct(r.Fractions[cache.Hit]), report.Pct(r.Fractions[cache.HitReserved]),
				report.Pct(r.Fractions[cache.Miss]), report.Pct(r.Fractions[cache.RsrvFailTag]),
				report.Pct(r.Fractions[cache.RsrvFailMSHR]), report.Pct(r.Fractions[cache.RsrvFailICNT]))
		}, "Figure 3 — breakdown of L1 data cache cycles",
		"name", "hit", "hit-reserved", "miss", "rsrv-fail tags", "rsrv-fail MSHRs", "rsrv-fail icnt")},
	{Name: "fig4", Timing: true, Render: perRow((*Suite).Figure4,
		func(t *report.Table, r Fig4Row) {
			t.Add(r.Name, report.Pct(r.Idle[isa.UnitSP]), report.Pct(r.Idle[isa.UnitSFU]),
				report.Pct(r.Idle[isa.UnitLDST]))
		}, "Figure 4 — fraction of idle cycles per function unit",
		"name", "SP idle", "SFU idle", "LD/ST idle")},
	{Name: "fig5", Timing: true, Render: perRow((*Suite).Figure5,
		func(t *report.Table, r Fig5Row) {
			for c := stats.Category(0); c < stats.NumCats; c++ {
				if r.Ops[c] > 0 {
					t.Add(r.Name, c, r.Unloaded[c], r.RsrvPrev[c], r.RsrvCurr[c], r.MemSys[c], r.Total[c])
				}
			}
		}, "Figure 5 — load turnaround decomposition (mean cycles)",
		"name", "cat", "unloaded", "rsrv prev warps", "rsrv current", "L2/DRAM waste", "total")},
	{Name: "fig6", Timing: true, Render: perRow((*Suite).Figure6,
		func(t *report.Table, sr Fig6Series) {
			cls := "D"
			if sr.NonDet {
				cls = "N"
			}
			for _, p := range sr.Points {
				t.Add(sr.Workload, fmt.Sprintf("0x%03x", sr.PC), cls, p.NReq, p.MeanTurnaround, p.Ops)
			}
		}, "Figure 6 — turnaround vs generated requests (busiest loads)",
		"workload", "PC", "class", "requests", "mean turnaround", "ops")},
	{Name: "fig7", Timing: true, Render: renderFigure7},
	{Name: "fig8", Timing: true, Render: perRow((*Suite).Figure8,
		func(t *report.Table, r Fig8Row) {
			t.Add(r.Name,
				report.Pct(r.L1Miss[stats.NonDet]), report.Pct(r.L1Miss[stats.Det]),
				report.Pct(r.L2Miss[stats.NonDet]), report.Pct(r.L2Miss[stats.Det]))
		}, "Figure 8 — L1 and L2 miss ratios per category",
		"name", "L1 miss (N)", "L1 miss (D)", "L2 miss (N)", "L2 miss (D)")},
	{Name: "fig9", Functional: true, Render: perRow((*Suite).Figure9,
		func(t *report.Table, r Fig9Row) {
			t.Add(r.Name, r.Category, r.SharedPerGlobal, r.SharedLoads, r.GlobalLoads)
		}, "Figure 9 — shared memory loads per global memory load",
		"name", "category", "shared/global", "shared loads", "global loads")},
	{Name: "fig10", Functional: true, Render: perRow((*Suite).Figure10,
		func(t *report.Table, r Fig10Row) {
			t.Add(r.Name, r.Category, report.Pct(r.ColdMissRatio), r.AccessPerBlock, r.DistinctBlocks)
		}, "Figure 10 — cold miss ratio and accesses per 128B block",
		"name", "category", "cold miss ratio", "accesses/block", "distinct blocks")},
	{Name: "fig11", Functional: true, Render: perRow((*Suite).Figure11,
		func(t *report.Table, r Fig11Row) {
			t.Add(r.Name, report.Pct(r.SharedBlockRatio), report.Pct(r.SharedAccessRatio), r.MeanCTAsPerShared)
		}, "Figure 11 — data space accessed by multiple CTAs",
		"name", "shared-block ratio", "shared-access ratio", "mean CTAs/shared block")},
	{Name: "fig12", Functional: true, Render: perRow((*Suite).Figure12,
		func(t *report.Table, r Fig12Row) {
			var parts []string
			for _, b := range dominantBins(r.Bins, 6) {
				parts = append(parts, fmt.Sprintf("%d:%.2f", b.Distance, b.Fraction))
			}
			t.Add(r.Name, r.Category, strings.Join(parts, " "))
		}, "Figure 12 — CTA distance frequency for shared blocks (top 6 distances)",
		"name", "category", "distance:fraction ...")},
	{Name: "table3", Timing: true, Render: renderTable3},
	{Name: "ablation", Timing: true, Variants: Ablations, Render: renderAblations},
}

// perRow renders one table with the rows get returns, add appending each.
func perRow[R any](get func(*Suite) ([]R, error), add func(*report.Table, R),
	title string, headers ...string) func(*Suite) ([]*report.Table, error) {
	return func(s *Suite) ([]*report.Table, error) {
		rows, err := get(s)
		if err != nil {
			return nil, err
		}
		t := report.New(title, headers...)
		for _, r := range rows {
			add(t, r)
		}
		return []*report.Table{t}, nil
	}
}

func renderFigure7(s *Suite) ([]*report.Table, error) {
	res, err := s.Figure7()
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("Figure 7 — gap breakdown for %s PC 0x%03x (non-deterministic)", res.Workload, res.PC),
		"requests", "common latency", "gap at L1D", "gap at icnt-L2", "gap at L2-icnt", "total", "ops")
	for _, b := range res.Buckets {
		t.Add(b.NReq, b.Common, b.GapL1D, b.GapIcntL2, b.GapL2Icnt, b.Total, b.Ops)
	}
	return []*report.Table{t}, nil
}

// dominantBins returns the n bins with the largest counts (bins arrive
// distance-sorted; all of them when there are at most n).
func dominantBins(bins []stats.DistanceBin, n int) []stats.DistanceBin {
	if len(bins) <= n {
		return bins
	}
	top := append([]stats.DistanceBin(nil), bins...)
	for i := 0; i < n; i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].Count > top[i].Count {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	return top[:n]
}

// renderTable3 prints the Table III profiler counters, one column per
// selected workload.
func renderTable3(s *Suite) ([]*report.Table, error) {
	names := s.Opts.names()
	t := report.New("Table III — profiler counters per workload", append([]string{"counter"}, names...)...)
	counters := make([]profiler.Counters, len(names))
	for i, n := range names {
		run, err := s.Timing(n)
		if err != nil {
			return nil, err
		}
		counters[i] = profiler.Read(run.Col)
	}
	for _, c := range profiler.Names() {
		cells := []any{c}
		for i := range names {
			cells = append(cells, counters[i][c])
		}
		t.Add(cells...)
	}
	return []*report.Table{t}, nil
}

// renderAblations prints one table per entry of Ablations.
func renderAblations(s *Suite) ([]*report.Table, error) {
	var out []*report.Table
	for _, a := range Ablations {
		rows, err := s.Ablation(a)
		if err != nil {
			return nil, err
		}
		metric := "L1 hit"
		if a.Turnaround {
			metric = "turnaround"
		}
		t := report.New(a.Title, "name", a.Base+" cycles", a.Variant+" cycles",
			a.Base+" "+metric, a.Variant+" "+metric)
		for _, r := range rows {
			if a.Turnaround {
				t.Add(r.Name, r.Base.Cycles, r.Variant.Cycles, r.Base.Turnaround, r.Variant.Turnaround)
			} else {
				t.Add(r.Name, r.Base.Cycles, r.Variant.Cycles, report.Pct(r.Base.L1Hit), report.Pct(r.Variant.L1Hit))
			}
		}
		out = append(out, t)
	}
	return out, nil
}
