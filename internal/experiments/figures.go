package experiments

import (
	"fmt"

	"critload/internal/cache"
	"critload/internal/isa"
	"critload/internal/stats"
	"critload/internal/workloads"
)

// Table1Row is one application's row of Table I.
type Table1Row struct {
	Name          string
	Category      workloads.Category
	DataSet       string
	Description   string
	CTAs          int
	ThreadsPerCTA int
	TotalInsts    uint64
	GlobalLoads   uint64
	LoadFraction  float64
}

// perWorkload builds one row per selected workload from its cached run: get
// is s.Functional or s.Timing.
func perWorkload[R any](s *Suite, get func(string) (*Run, error), row func(name string, r *Run) R) ([]R, error) {
	var rows []R
	for _, name := range s.Opts.names() {
		r, err := get(name)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row(name, r))
	}
	return rows, nil
}

// Table1 reproduces Table I (application characteristics) from functional
// whole-application runs.
func (s *Suite) Table1() ([]Table1Row, error) {
	return perWorkload(s, s.Functional, func(name string, r *Run) Table1Row {
		gl := r.Col.GLoadWarps[stats.Det] + r.Col.GLoadWarps[stats.NonDet]
		row := Table1Row{
			Name:          name,
			Category:      r.Workload.Category,
			DataSet:       r.Workload.DataSet,
			Description:   r.Workload.Description,
			CTAs:          r.Instance.CTAs,
			ThreadsPerCTA: r.Instance.ThreadsPerCTA,
			TotalInsts:    r.Col.WarpInsts,
			GlobalLoads:   gl,
		}
		if row.TotalInsts > 0 {
			row.LoadFraction = float64(gl) / float64(row.TotalInsts)
		}
		return row
	})
}

// Fig1Row is one bar of Figure 1: the deterministic / non-deterministic
// split of dynamic global-load warps.
type Fig1Row struct {
	Name     string
	Category workloads.Category
	Det      float64
	NonDet   float64
}

// Figure1 reproduces the load-classification distribution.
func (s *Suite) Figure1() ([]Fig1Row, error) {
	return perWorkload(s, s.Functional, func(name string, r *Run) Fig1Row {
		det, nondet := r.Col.LoadFraction()
		return Fig1Row{Name: name, Category: r.Workload.Category, Det: det, NonDet: nondet}
	})
}

// Fig2Row is one application's Figure 2 data: memory requests per warp and
// per active thread, for each category.
type Fig2Row struct {
	Name         string
	Category     workloads.Category
	ReqPerWarp   [stats.NumCats]float64
	ReqPerThread [stats.NumCats]float64
}

// Figure2 reproduces requests per warp / active thread from functional runs
// (coalescing is scheduler independent).
func (s *Suite) Figure2() ([]Fig2Row, error) {
	return perWorkload(s, s.Functional, func(name string, r *Run) Fig2Row {
		row := Fig2Row{Name: name, Category: r.Workload.Category}
		for c := stats.Category(0); c < stats.NumCats; c++ {
			row.ReqPerWarp[c] = r.Col.RequestsPerWarp(c)
			row.ReqPerThread[c] = r.Col.RequestsPerActiveThread(c)
		}
		return row
	})
}

// Fig3Row is one application's Figure 3 breakdown of L1 data-cache cycles.
type Fig3Row struct {
	Name     string
	Category workloads.Category
	// Fractions indexed by cache.Outcome (sums to 1 over all attempts).
	Fractions [cache.NumOutcomes]float64
	Attempts  uint64
}

// Figure3 reproduces the L1 cache-cycle breakdown from timing runs.
func (s *Suite) Figure3() ([]Fig3Row, error) {
	return perWorkload(s, s.Timing, func(name string, r *Run) Fig3Row {
		row := Fig3Row{Name: name, Category: r.Workload.Category, Fractions: r.Col.L1CycleBreakdown()}
		for c := stats.Category(0); c < stats.NumCats; c++ {
			for o := 0; o < int(cache.NumOutcomes); o++ {
				row.Attempts += r.Col.L1Outcomes[c][o]
			}
		}
		return row
	})
}

// Fig4Row is one application's Figure 4 data: idle fraction per unit.
type Fig4Row struct {
	Name     string
	Category workloads.Category
	Idle     [isa.NumFuncUnits]float64
}

// Figure4 reproduces the function-unit idle fractions from timing runs.
func (s *Suite) Figure4() ([]Fig4Row, error) {
	return perWorkload(s, s.Timing, func(name string, r *Run) Fig4Row {
		row := Fig4Row{Name: name, Category: r.Workload.Category}
		for u := isa.FuncUnit(0); u < isa.NumFuncUnits; u++ {
			row.Idle[u] = r.Col.UnitIdleFraction(u)
		}
		return row
	})
}

// Fig5Row is one application's Figure 5 turnaround decomposition per
// category (mean cycles per load warp).
type Fig5Row struct {
	Name     string
	Category workloads.Category
	// Per category: unloaded, reservation fails by previous warps,
	// reservation fails by the current warp, wasted in L2/DRAM/icnt.
	Unloaded [stats.NumCats]float64
	RsrvPrev [stats.NumCats]float64
	RsrvCurr [stats.NumCats]float64
	MemSys   [stats.NumCats]float64
	Total    [stats.NumCats]float64
	Ops      [stats.NumCats]uint64
}

// Figure5 reproduces the load turnaround decomposition from timing runs.
func (s *Suite) Figure5() ([]Fig5Row, error) {
	return perWorkload(s, s.Timing, func(name string, r *Run) Fig5Row {
		row := Fig5Row{Name: name, Category: r.Workload.Category}
		for c := stats.Category(0); c < stats.NumCats; c++ {
			t := r.Col.Turnaround[c]
			row.Unloaded[c], row.RsrvPrev[c], row.RsrvCurr[c], row.MemSys[c] = t.Mean()
			row.Total[c] = t.MeanTotal()
			row.Ops[c] = t.Ops
		}
		return row
	})
}

// Fig6Point is one (requests, mean turnaround) point of a Figure 6 series.
type Fig6Point struct {
	NReq           int
	MeanTurnaround float64
	Ops            uint64
}

// Fig6Series is one load instruction's turnaround-vs-requests curve.
type Fig6Series struct {
	Workload string
	Kernel   string
	PC       uint32
	NonDet   bool
	Points   []Fig6Point
}

// Figure6 reproduces turnaround time versus generated requests for the most
// frequently executed deterministic and non-deterministic loads of the
// selected workloads (the paper uses bfs, sssp and spmv).
func (s *Suite) Figure6() ([]Fig6Series, error) {
	opts := s.Opts
	if len(opts.Workloads) == 0 {
		opts.Workloads = []string{"bfs", "sssp", "spmv"}
	}
	var series []Fig6Series
	for _, name := range opts.names() {
		r, err := s.Timing(name)
		if err != nil {
			return series, err
		}
		series = append(series, topPCSeries(name, r, true)...)
		series = append(series, topPCSeries(name, r, false)...)
	}
	return series, nil
}

// busiestLoad returns the load PC of one class with the most completed
// operations (nil if the class has none). PerPC is a map and loads of one loop
// body tie exactly, so equal counts go to the lower (kernel, PC).
func busiestLoad(col *stats.Collector, nonDet bool) *stats.PCStats {
	var best *stats.PCStats
	var bestOps uint64
	for _, p := range col.PerPC {
		if p.NonDet != nonDet {
			continue
		}
		var ops uint64
		for _, g := range p.ByNReq {
			ops += g.Ops
		}
		if ops > bestOps || best != nil && ops == bestOps && (p.Key.Kernel < best.Key.Kernel ||
			p.Key.Kernel == best.Key.Kernel && p.Key.PC < best.Key.PC) {
			best, bestOps = p, ops
		}
	}
	return best
}

// topPCSeries extracts the busiest load of one class from a run.
func topPCSeries(name string, r *Run, nonDet bool) []Fig6Series {
	best := busiestLoad(r.Col, nonDet)
	if best == nil {
		return nil
	}
	s := Fig6Series{
		Workload: name, Kernel: best.Key.Kernel, PC: best.Key.PC, NonDet: nonDet,
	}
	for nreq, g := range best.ByNReq {
		if g.Ops == 0 {
			continue
		}
		s.Points = append(s.Points, Fig6Point{
			NReq:           nreq,
			MeanTurnaround: float64(g.Total) / float64(g.Ops),
			Ops:            g.Ops,
		})
	}
	return []Fig6Series{s}
}

// Fig7Bucket is one request-count bucket of the Figure 7 gap decomposition.
type Fig7Bucket struct {
	NReq      int
	Ops       uint64
	Common    float64 // unloaded latency of the slowest request
	GapL1D    float64 // waiting for L1 reservations
	GapIcntL2 float64 // queueing between L1 and L2
	GapL2Icnt float64 // response arrival spread
	Total     float64
}

// Fig7Result is the gap decomposition of one non-deterministic load.
type Fig7Result struct {
	Workload string
	Kernel   string
	PC       uint32
	Buckets  []Fig7Bucket
}

// Figure7 reproduces the per-request-count gap decomposition for the
// busiest non-deterministic load of bfs (the paper uses PC 0x110 of bfs).
func (s *Suite) Figure7() (*Fig7Result, error) {
	name := "bfs"
	if len(s.Opts.Workloads) == 1 {
		name = s.Opts.Workloads[0]
	}
	r, err := s.Timing(name)
	if err != nil {
		return nil, err
	}
	best := busiestLoad(r.Col, true)
	if best == nil {
		return nil, fmt.Errorf("experiments: %s has no non-deterministic load", name)
	}
	res := &Fig7Result{Workload: name, Kernel: best.Key.Kernel, PC: best.Key.PC}
	for nreq, g := range best.ByNReq {
		if g.Ops == 0 {
			continue
		}
		n := float64(g.Ops)
		res.Buckets = append(res.Buckets, Fig7Bucket{
			NReq: nreq, Ops: g.Ops,
			Common:    float64(g.Common) / n,
			GapL1D:    float64(g.GapL1D) / n,
			GapIcntL2: float64(g.GapIcntL2) / n,
			GapL2Icnt: float64(g.GapL2Icnt) / n,
			Total:     float64(g.Total) / n,
		})
	}
	return res, nil
}

// Fig8Row is one application's Figure 8 data: L1/L2 miss ratios per category.
type Fig8Row struct {
	Name     string
	Category workloads.Category
	L1Miss   [stats.NumCats]float64
	L2Miss   [stats.NumCats]float64
}

// Figure8 reproduces the per-category cache miss ratios from timing runs.
func (s *Suite) Figure8() ([]Fig8Row, error) {
	return perWorkload(s, s.Timing, func(name string, r *Run) Fig8Row {
		row := Fig8Row{Name: name, Category: r.Workload.Category}
		for c := stats.Category(0); c < stats.NumCats; c++ {
			row.L1Miss[c] = stats.MissRatio(r.Col.L1Miss[c], r.Col.L1Acc[c])
			row.L2Miss[c] = stats.MissRatio(r.Col.L2Miss[c], r.Col.L2Acc[c])
		}
		return row
	})
}

// Fig9Row is one application's Figure 9 data: shared loads per global load.
type Fig9Row struct {
	Name            string
	Category        workloads.Category
	SharedPerGlobal float64
	SharedLoads     uint64
	GlobalLoads     uint64
}

// Figure9 reproduces the shared-vs-global load ratio from functional runs
// (the paper collects it with the hardware profiler).
func (s *Suite) Figure9() ([]Fig9Row, error) {
	return perWorkload(s, s.Functional, func(name string, r *Run) Fig9Row {
		gl := r.Col.GLoadWarps[stats.Det] + r.Col.GLoadWarps[stats.NonDet]
		row := Fig9Row{
			Name: name, Category: r.Workload.Category,
			SharedLoads: r.Col.SLoadWarps, GlobalLoads: gl,
		}
		if gl > 0 {
			row.SharedPerGlobal = float64(r.Col.SLoadWarps) / float64(gl)
		}
		return row
	})
}

// Fig10Row is one application's Figure 10 data: cold-miss ratio and mean
// accesses per 128-byte block.
type Fig10Row struct {
	Name           string
	Category       workloads.Category
	ColdMissRatio  float64
	AccessPerBlock float64
	DistinctBlocks uint64
}

// Figure10 reproduces the cold-miss analysis from functional runs.
func (s *Suite) Figure10() ([]Fig10Row, error) {
	return perWorkload(s, s.Functional, func(name string, r *Run) Fig10Row {
		b := r.Col.Blocks()
		return Fig10Row{
			Name: name, Category: r.Workload.Category,
			ColdMissRatio:  b.ColdMissRatio,
			AccessPerBlock: b.MeanAccessPerBlock,
			DistinctBlocks: b.DistinctBlocks,
		}
	})
}

// Fig11Row is one application's Figure 11 data: inter-CTA sharing.
type Fig11Row struct {
	Name              string
	Category          workloads.Category
	SharedBlockRatio  float64 // blocks touched by ≥2 CTAs / all blocks
	SharedAccessRatio float64 // accesses to such blocks / all accesses
	MeanCTAsPerShared float64
}

// Figure11 reproduces the inter-CTA data-sharing analysis.
func (s *Suite) Figure11() ([]Fig11Row, error) {
	return perWorkload(s, s.Functional, func(name string, r *Run) Fig11Row {
		b := r.Col.Blocks()
		return Fig11Row{
			Name: name, Category: r.Workload.Category,
			SharedBlockRatio:  b.SharedBlockRatio,
			SharedAccessRatio: b.SharedAccessRatio,
			MeanCTAsPerShared: b.MeanCTAsPerShared,
		}
	})
}

// Fig12Row is one application's CTA-distance histogram (Figure 12 plots
// these grouped per category).
type Fig12Row struct {
	Name     string
	Category workloads.Category
	Bins     []stats.DistanceBin
}

// Figure12 reproduces the CTA-distance frequency histograms.
func (s *Suite) Figure12() ([]Fig12Row, error) {
	return perWorkload(s, s.Functional, func(name string, r *Run) Fig12Row {
		return Fig12Row{
			Name: name, Category: r.Workload.Category,
			Bins: r.Col.CTADistanceHistogram(),
		}
	})
}
