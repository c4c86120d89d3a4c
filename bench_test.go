// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment generator and reports the
// headline quantities as custom metrics, so `go test -bench=.` produces the
// full paper-versus-measured record (EXPERIMENTS.md is derived from it).
//
// All benchmarks share one experiment suite: every workload executes at most
// once functionally (whole application) and once on the timing simulator
// (bounded to a fixed warp-instruction window, like the paper's GPGPU-Sim
// runs), regardless of how many artifacts are generated.
package critload_test

import (
	"fmt"
	"sync"
	"testing"

	"critload/internal/cache"
	"critload/internal/experiments"
	"critload/internal/gpu"
	"critload/internal/isa"
	"critload/internal/profiler"
	"critload/internal/stats"
	"critload/internal/workloads"
)

// benchWindow bounds each timing run, mirroring the paper's bounded
// simulation window.
const benchWindow = 300_000

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchSuite returns the process-wide experiment suite.
func benchSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(experiments.Options{
			Seed:         1,
			MaxWarpInsts: benchWindow,
		})
	})
	return suite
}

// meanBy averages a per-workload metric over a category.
func meanBy[T any](rows []T, cat workloads.Category, catOf func(T) workloads.Category, val func(T) float64) float64 {
	var sum float64
	var n int
	for _, r := range rows {
		if catOf(r) == cat {
			sum += val(r)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func BenchmarkTable1_AppCharacteristics(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 15 {
			b.Fatalf("rows = %d, want 15", len(rows))
		}
		var frac float64
		for _, r := range rows {
			frac += r.LoadFraction
		}
		b.ReportMetric(100*frac/float64(len(rows)), "avg_load_pct")
	}
}

func BenchmarkTable3_ProfilerCounters(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		var gld, miss uint64
		for _, name := range workloads.Names() {
			run, err := s.Timing(name)
			if err != nil {
				b.Fatal(err)
			}
			c := profiler.Read(run.Col)
			gld += c[profiler.GldRequest]
			miss += c[profiler.L1GlobalLoadMiss]
		}
		b.ReportMetric(float64(gld), "gld_request_total")
		b.ReportMetric(float64(miss), "l1_load_miss_total")
	}
}

func BenchmarkFigure1_LoadClassification(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		graphDet := meanBy(rows, workloads.Graph,
			func(r experiments.Fig1Row) workloads.Category { return r.Category },
			func(r experiments.Fig1Row) float64 { return r.Det })
		linearDet := meanBy(rows, workloads.Linear,
			func(r experiments.Fig1Row) workloads.Category { return r.Category },
			func(r experiments.Fig1Row) float64 { return r.Det })
		// Paper: graph apps stay majority-deterministic on average; linear
		// algebra is almost fully deterministic.
		b.ReportMetric(100*graphDet, "graph_det_pct")
		b.ReportMetric(100*linearDet, "linear_det_pct")
	}
}

func BenchmarkFigure2_RequestsPerWarp(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		var nSum, dSum float64
		var nCnt int
		for _, r := range rows {
			if r.LoadWarpsByCat[stats.NonDet] > 0 {
				nSum += r.ReqPerWarp[stats.NonDet]
				dSum += r.ReqPerWarp[stats.Det]
				nCnt++
			}
		}
		if nCnt == 0 {
			b.Fatal("no workloads with non-deterministic loads")
		}
		// Paper: non-deterministic loads generate several times more
		// requests per warp (bfs ~26, spmv ~6) than deterministic ones (~1-2).
		b.ReportMetric(nSum/float64(nCnt), "nondet_req_per_warp")
		b.ReportMetric(dSum/float64(nCnt), "det_req_per_warp")
	}
}

func BenchmarkFigure3_L1CycleBreakdown(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		var rsrv, hit float64
		for _, r := range rows {
			rsrv += r.Fractions[cache.RsrvFailTag] + r.Fractions[cache.RsrvFailMSHR] + r.Fractions[cache.RsrvFailICNT]
			hit += r.Fractions[cache.Hit]
		}
		n := float64(len(rows))
		// Paper: ~70% of L1 cycles wasted on reservation failures, with tag
		// failures the dominant class.
		b.ReportMetric(100*rsrv/n, "rsrv_fail_pct")
		b.ReportMetric(100*hit/n, "hit_pct")
	}
}

func BenchmarkFigure4_UnitIdleFractions(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		var sp, sfu, ldst float64
		for _, r := range rows {
			sp += 1 - r.Idle[isa.UnitSP]
			sfu += 1 - r.Idle[isa.UnitSFU]
			ldst += 1 - r.Idle[isa.UnitLDST]
		}
		n := float64(len(rows))
		// Paper: LD/ST busy 54.4% on average vs SP 9.3% and SFU 11.5%.
		b.ReportMetric(100*ldst/n, "ldst_busy_pct")
		b.ReportMetric(100*sp/n, "sp_busy_pct")
		b.ReportMetric(100*sfu/n, "sfu_busy_pct")
	}
}

func BenchmarkFigure5_Turnaround(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		var nSum, dSum float64
		var nCnt, dCnt int
		for _, r := range rows {
			if r.Ops[stats.NonDet] > 0 {
				nSum += r.Total[stats.NonDet]
				nCnt++
			}
			if r.Ops[stats.Det] > 0 {
				dSum += r.Total[stats.Det]
				dCnt++
			}
		}
		// Paper: non-deterministic loads take substantially longer end to end.
		b.ReportMetric(nSum/float64(max(nCnt, 1)), "nondet_turnaround_cyc")
		b.ReportMetric(dSum/float64(max(dCnt, 1)), "det_turnaround_cyc")
	}
}

func BenchmarkFigure6_TurnaroundVsRequests(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		series, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		// Slope proxy: mean turnaround at the largest bucket over the
		// smallest, for the busiest non-deterministic load.
		var growth float64
		var cnt int
		for _, sr := range series {
			if !sr.NonDet || len(sr.Points) < 2 {
				continue
			}
			first, last := sr.Points[0], sr.Points[len(sr.Points)-1]
			if first.MeanTurnaround > 0 {
				growth += last.MeanTurnaround / first.MeanTurnaround
				cnt++
			}
		}
		if cnt == 0 {
			b.Fatal("no non-deterministic series")
		}
		b.ReportMetric(growth/float64(cnt), "turnaround_growth_x")
	}
}

func BenchmarkFigure7_GapBreakdown(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		res, err := s.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Buckets) == 0 {
			b.Fatal("no buckets")
		}
		last := res.Buckets[len(res.Buckets)-1]
		// Paper: the L2-icnt arrival spread grows with the request count
		// while the common latency stays flat.
		b.ReportMetric(last.Common, "common_cyc")
		b.ReportMetric(last.GapL2Icnt, "gap_l2_icnt_cyc")
		b.ReportMetric(float64(last.NReq), "max_requests")
	}
}

func BenchmarkFigure8_MissRatios(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		var l1, l2 float64
		var n int
		for _, r := range rows {
			if r.L1Acc[stats.Det] == 0 {
				continue
			}
			l1 += r.L1Miss[stats.Det]
			l2 += r.L2Miss[stats.Det]
			n++
		}
		// Paper: L1 miss ratios exceed 50% in most cases for both classes.
		b.ReportMetric(100*l1/float64(max(n, 1)), "det_l1_miss_pct")
		b.ReportMetric(100*l2/float64(max(n, 1)), "det_l2_miss_pct")
	}
}

func BenchmarkFigure9_SharedVsGlobal(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		image := meanBy(rows, workloads.Image,
			func(r experiments.Fig9Row) workloads.Category { return r.Category },
			func(r experiments.Fig9Row) float64 { return r.SharedPerGlobal })
		graph := meanBy(rows, workloads.Graph,
			func(r experiments.Fig9Row) workloads.Category { return r.Category },
			func(r experiments.Fig9Row) float64 { return r.SharedPerGlobal })
		// Paper: image apps use shared memory ~2.5× per global load; the
		// other categories barely use it.
		b.ReportMetric(image, "image_shared_per_global")
		b.ReportMetric(graph, "graph_shared_per_global")
	}
}

func BenchmarkFigure10_ColdMiss(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		var cold float64
		graphAcc := meanBy(rows, workloads.Graph,
			func(r experiments.Fig10Row) workloads.Category { return r.Category },
			func(r experiments.Fig10Row) float64 { return r.AccessPerBlock })
		for _, r := range rows {
			cold += r.ColdMissRatio
		}
		// Paper: cold misses are only 16% on average; graph apps re-access
		// each block ~18 times.
		b.ReportMetric(100*cold/float64(len(rows)), "avg_cold_miss_pct")
		b.ReportMetric(graphAcc, "graph_access_per_block")
	}
}

func BenchmarkFigure11_InterCTASharing(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		var blockRatio, accessRatio float64
		for _, r := range rows {
			blockRatio += r.SharedBlockRatio
			accessRatio += r.SharedAccessRatio
		}
		n := float64(len(rows))
		// Paper: 28.7% of blocks are shared by multiple CTAs but they draw
		// 50.9% of all accesses.
		b.ReportMetric(100*blockRatio/n, "shared_block_pct")
		b.ReportMetric(100*accessRatio/n, "shared_access_pct")
	}
}

func BenchmarkFigure12_CTADistance(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		// Fraction of cross-CTA sharing at distance 1 for the linear apps
		// (the paper's dominant bar in Fig 12a).
		var d1 float64
		var n int
		for _, r := range rows {
			if r.Category != workloads.Linear {
				continue
			}
			for _, bin := range r.Bins {
				if bin.Distance == 1 {
					d1 += bin.Fraction
				}
			}
			n++
		}
		b.ReportMetric(100*d1/float64(max(n, 1)), "linear_dist1_pct")
	}
}

func BenchmarkAblation_CTAScheduling(b *testing.B) {
	opts := experiments.Options{
		Workloads:    []string{"2mm", "bfs", "sssp"},
		Seed:         1,
		MaxWarpInsts: benchWindow,
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationCTAScheduling(opts)
		if err != nil {
			b.Fatal(err)
		}
		var hitGain float64
		for _, r := range rows {
			hitGain += r.VariantL1Hit - r.BaseL1Hit
		}
		b.ReportMetric(100*hitGain/float64(len(rows)), "clustered_l1_hit_gain_pct")
	}
}

func BenchmarkAblation_WarpScheduler(b *testing.B) {
	opts := experiments.Options{
		Workloads:    []string{"bfs", "sssp", "spmv"},
		Seed:         1,
		MaxWarpInsts: benchWindow,
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationWarpScheduler(opts)
		if err != nil {
			b.Fatal(err)
		}
		var speedup float64
		for _, r := range rows {
			speedup += float64(r.BaseCycles) / float64(max64(r.VariantCycles, 1))
		}
		b.ReportMetric(speedup/float64(len(rows)), "gto_speedup_x")
	}
}

func BenchmarkAblation_NonDetL1Bypass(b *testing.B) {
	opts := experiments.Options{
		Workloads:    []string{"bfs", "spmv"},
		Seed:         1,
		MaxWarpInsts: benchWindow,
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationNonDetBypass(opts)
		if err != nil {
			b.Fatal(err)
		}
		var hitGain, speedup float64
		for _, r := range rows {
			hitGain += r.VariantL1Hit - r.BaseL1Hit
			speedup += float64(r.BaseCycles) / float64(max64(r.VariantCycles, 1))
		}
		n := float64(len(rows))
		b.ReportMetric(100*hitGain/n, "bypass_l1_hit_gain_pct")
		b.ReportMetric(speedup/n, "bypass_speedup_x")
	}
}

func BenchmarkAblation_NextLinePrefetch(b *testing.B) {
	opts := experiments.Options{
		Workloads:    []string{"2mm", "bfs"},
		Seed:         1,
		MaxWarpInsts: benchWindow,
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationNextLinePrefetch(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			metric := r.Name + "_prefetch_speedup_x"
			b.ReportMetric(float64(r.BaseCycles)/float64(max64(r.VariantCycles, 1)), metric)
		}
	}
}

func BenchmarkAblation_SemiGlobalL2(b *testing.B) {
	opts := experiments.Options{
		Workloads:    []string{"2mm", "bfs"},
		Seed:         1,
		MaxWarpInsts: benchWindow,
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSemiGlobalL2(opts)
		if err != nil {
			b.Fatal(err)
		}
		var speedup float64
		for _, r := range rows {
			speedup += float64(r.BaseCycles) / float64(max64(r.VariantCycles, 1))
		}
		b.ReportMetric(speedup/float64(len(rows)), "semi_l2_speedup_x")
	}
}

// BenchmarkEngine measures raw simulator throughput on the tracked baseline
// cases (experiments.BenchCases), once per cycle engine. The fastforward
// variants exercise event-horizon skipping plus the pooled hot path; the
// naive variants are the serial one-cycle-at-a-time oracle. cmd/bench runs
// the same cases to regenerate BENCH_sim.json.
func BenchmarkEngine(b *testing.B) {
	for _, c := range experiments.BenchCases() {
		for _, eng := range []struct {
			name string
			ff   bool
		}{
			{"fastforward", true},
			{"naive", false},
		} {
			c, eng := c, eng
			b.Run(fmt.Sprintf("%s-%d/%s", c.Name, c.Size, eng.name), func(b *testing.B) {
				cfg := gpu.DefaultConfig()
				cfg.FastForward = eng.ff
				b.ReportAllocs()
				var cycles int64
				var insts uint64
				for i := 0; i < b.N; i++ {
					run, err := experiments.RunTiming(c.Name, experiments.Options{
						Size: c.Size, Seed: 1, GPU: &cfg,
					})
					if err != nil {
						b.Fatal(err)
					}
					cycles, insts = run.Cycles, run.Col.WarpInsts
				}
				perRun := b.Elapsed().Seconds() / float64(b.N)
				if perRun > 0 {
					b.ReportMetric(float64(cycles)/perRun, "cycles/sec")
					b.ReportMetric(float64(insts)/perRun, "warpinsts/sec")
				}
			})
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
