package experiments

import (
	"os"
	"strings"
	"testing"

	"critload/internal/cache"
	"critload/internal/isa"
	"critload/internal/memreq"
	"critload/internal/stats"
	"critload/internal/workloads"
)

// tinyOpts runs a quick subset at reduced scale for unit testing.
func tinyOpts(names ...string) Options {
	return Options{
		Workloads:    names,
		Size:         0, // workload-specific defaults are small enough per workload below
		Seed:         7,
		MaxWarpInsts: 60_000,
	}
}

func TestTable1ShapesMatchPaper(t *testing.T) {
	rows, err := NewSuite(Options{Workloads: []string{"2mm", "bfs"}, Size: 0, Seed: 1,
		MaxWarpInsts: 0}).Table1()
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TotalInsts == 0 || r.GlobalLoads == 0 {
			t.Errorf("%s: empty counts %+v", r.Name, r)
		}
		if r.LoadFraction <= 0 || r.LoadFraction >= 1 {
			t.Errorf("%s: load fraction %v", r.Name, r.LoadFraction)
		}
	}
	// 2mm's load fraction should land near the paper's 18.1% (our kernels
	// are leaner than nvcc output, so exact density differs).
	if rows[0].LoadFraction < 0.08 || rows[0].LoadFraction > 0.30 {
		t.Errorf("2mm load fraction %v, want near the paper's 0.18", rows[0].LoadFraction)
	}
}

func TestFigure1GraphAppsHaveNonDetLoads(t *testing.T) {
	rows, err := NewSuite(Options{Workloads: []string{"lu", "bfs"}, Size: 0, Seed: 2}).Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	byName := map[string]Fig1Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if lu := byName["lu"]; lu.NonDet != 0 || lu.Det != 1 {
		t.Errorf("lu split = %+v, want all deterministic", lu)
	}
	bfs := byName["bfs"]
	if bfs.NonDet <= 0.05 {
		t.Errorf("bfs non-det fraction = %v, want substantial", bfs.NonDet)
	}
	// The paper: even in graph apps more than ~50%% of load warps are
	// deterministic on average; bfs specifically stays majority-det.
	if bfs.Det < 0.5 {
		t.Errorf("bfs det fraction = %v, implausibly low", bfs.Det)
	}
}

func TestFigure2NonDetGeneratesMoreRequests(t *testing.T) {
	rows, err := NewSuite(Options{Workloads: []string{"bfs"}, Seed: 3}).Figure2()
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	r := rows[0]
	if r.ReqPerWarp[stats.NonDet] <= r.ReqPerWarp[stats.Det] {
		t.Errorf("bfs requests/warp: nondet %v <= det %v",
			r.ReqPerWarp[stats.NonDet], r.ReqPerWarp[stats.Det])
	}
	if r.ReqPerThread[stats.NonDet] <= r.ReqPerThread[stats.Det] {
		t.Errorf("bfs requests/thread: nondet %v <= det %v",
			r.ReqPerThread[stats.NonDet], r.ReqPerThread[stats.Det])
	}
}

func TestFigure3BreakdownSumsToOne(t *testing.T) {
	rows, err := NewSuite(Options{Workloads: []string{"spmv"}, Size: 8192, Seed: 3}).Figure3()
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	r := rows[0]
	var sum float64
	for _, f := range r.Fractions {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %v", sum)
	}
	if r.Attempts == 0 {
		t.Errorf("no L1 attempts recorded")
	}
	_ = cache.NumOutcomes
}

func TestFigure4LDSTBusiestOnMemoryBoundApp(t *testing.T) {
	// A complete run at moderate scale so the frontier actually grows.
	rows, err := NewSuite(Options{Workloads: []string{"bfs"}, Size: 8192, Seed: 3}).Figure4()
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	r := rows[0]
	for u := isa.FuncUnit(0); u < isa.NumFuncUnits; u++ {
		if r.Idle[u] < 0 || r.Idle[u] > 1 {
			t.Errorf("idle[%v] = %v out of range", u, r.Idle[u])
		}
	}
	// The paper: LD/ST is busier (less idle) than SP and SFU.
	if r.Idle[isa.UnitLDST] >= r.Idle[isa.UnitSP] {
		t.Errorf("LD/ST idle %v >= SP idle %v, want LD/ST busier",
			r.Idle[isa.UnitLDST], r.Idle[isa.UnitSP])
	}
}

func TestFigure5NonDetTurnaroundLonger(t *testing.T) {
	rows, err := NewSuite(Options{Workloads: []string{"bfs"}, Size: 8192, Seed: 3}).Figure5()
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	r := rows[0]
	if r.Ops[stats.Det] == 0 || r.Ops[stats.NonDet] == 0 {
		t.Fatalf("missing ops: %+v", r.Ops)
	}
	if r.Total[stats.NonDet] <= r.Total[stats.Det] {
		t.Errorf("nondet turnaround %v <= det %v", r.Total[stats.NonDet], r.Total[stats.Det])
	}
	// Components must add up to the total (within accumulation rounding).
	for c := stats.Category(0); c < stats.NumCats; c++ {
		sum := r.Unloaded[c] + r.RsrvPrev[c] + r.RsrvCurr[c] + r.MemSys[c]
		if sum > r.Total[c]+1 {
			t.Errorf("cat %v: components %v exceed total %v", c, sum, r.Total[c])
		}
	}
}

func TestFigure6TurnaroundGrowsWithRequests(t *testing.T) {
	series, err := NewSuite(Options{Workloads: []string{"bfs"}, Size: 8192, Seed: 4}).Figure6()
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	var nd *Fig6Series
	for i := range series {
		if series[i].NonDet {
			nd = &series[i]
		}
	}
	if nd == nil || len(nd.Points) == 0 {
		t.Fatalf("no non-deterministic series: %+v", series)
	}
	// Non-deterministic loads vary their request count across instances.
	if len(nd.Points) < 2 {
		t.Errorf("nondet series has %d request-count buckets, want >= 2", len(nd.Points))
	}
	first, last := nd.Points[0], nd.Points[len(nd.Points)-1]
	if last.NReq > first.NReq && last.MeanTurnaround <= first.MeanTurnaround {
		t.Errorf("turnaround not increasing: %v@%d -> %v@%d",
			first.MeanTurnaround, first.NReq, last.MeanTurnaround, last.NReq)
	}
}

// TestBusiestLoadBreaksTiesByPC: loads of one loop body complete equally
// often, and PerPC is a map, so Fig 6/7 must not pick by iteration order.
func TestBusiestLoadBreaksTiesByPC(t *testing.T) {
	col := stats.New()
	for _, pc := range []uint32{0xb8, 0xb0, 0xc0} {
		col.LoadPC("k", pc, false).ByNReq[1].Ops = 7
	}
	for i := 0; i < 64; i++ {
		if got := busiestLoad(col, false).Key.PC; got != 0xb0 {
			t.Fatalf("busiest of three tied loads = PC %#x, want the lowest, 0xb0", got)
		}
	}
}

func TestFigure7GapBreakdown(t *testing.T) {
	res, err := NewSuite(Options{Size: 8192, Seed: 5}).Figure7()
	if err != nil {
		t.Fatalf("Figure7: %v", err)
	}
	if res.Workload != "bfs" || len(res.Buckets) == 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	for _, b := range res.Buckets {
		if b.Common <= 0 {
			t.Errorf("bucket %d: zero common latency", b.NReq)
		}
		if b.Total < b.Common {
			t.Errorf("bucket %d: total %v < common %v", b.NReq, b.Total, b.Common)
		}
	}
}

func TestFigure8MissRatios(t *testing.T) {
	rows, err := NewSuite(Options{Workloads: []string{"spmv"}, Size: 8192, Seed: 3}).Figure8()
	if err != nil {
		t.Fatalf("Figure8: %v", err)
	}
	r := rows[0]
	for c := stats.Category(0); c < stats.NumCats; c++ {
		if r.L1Miss[c] < 0 || r.L1Miss[c] > 1 || r.L2Miss[c] < 0 || r.L2Miss[c] > 1 {
			t.Errorf("cat %v: ratios out of range L1=%v L2=%v", c, r.L1Miss[c], r.L2Miss[c])
		}
	}
	// Streaming sparse data: the deterministic loads must miss substantially
	// in L1 (the paper reports >50%% for most apps).
	if r.L1Miss[stats.Det] < 0.2 {
		t.Errorf("spmv det L1 miss ratio %v suspiciously low", r.L1Miss[stats.Det])
	}
}

func TestFigure9ImageAppsUseSharedMemory(t *testing.T) {
	rows, err := NewSuite(Options{Workloads: []string{"htw", "bfs"}, Seed: 6}).Figure9()
	if err != nil {
		t.Fatalf("Figure9: %v", err)
	}
	byName := map[string]Fig9Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["htw"].SharedPerGlobal <= 1 {
		t.Errorf("htw shared/global = %v, want > 1 (image apps are shared-heavy)",
			byName["htw"].SharedPerGlobal)
	}
	if byName["bfs"].SharedPerGlobal != 0 {
		t.Errorf("bfs shared/global = %v, want 0", byName["bfs"].SharedPerGlobal)
	}
}

func TestFigure10ColdMissesAreRare(t *testing.T) {
	rows, err := NewSuite(Options{Workloads: []string{"2mm"}, Size: 48, Seed: 7}).Figure10()
	if err != nil {
		t.Fatalf("Figure10: %v", err)
	}
	r := rows[0]
	if r.ColdMissRatio <= 0 || r.ColdMissRatio >= 0.5 {
		t.Errorf("2mm cold-miss ratio = %v, want small but nonzero", r.ColdMissRatio)
	}
	if r.AccessPerBlock < 10 {
		t.Errorf("2mm accesses/block = %v, want heavy reuse", r.AccessPerBlock)
	}
}

func TestFigure11InterCTASharing(t *testing.T) {
	rows, err := NewSuite(Options{Workloads: []string{"2mm", "bfs"}, Size: 0, Seed: 8}).Figure11()
	if err != nil {
		t.Fatalf("Figure11: %v", err)
	}
	for _, r := range rows {
		if r.SharedBlockRatio <= 0 {
			t.Errorf("%s: no inter-CTA shared blocks", r.Name)
		}
		if r.SharedAccessRatio < r.SharedBlockRatio {
			// The paper: shared blocks attract disproportionately many
			// accesses (50.9%% of accesses vs 28.7%% of blocks).
			t.Logf("%s: access ratio %v < block ratio %v", r.Name, r.SharedAccessRatio, r.SharedBlockRatio)
		}
		if r.Name == "2mm" && r.SharedBlockRatio < 0.9 {
			t.Errorf("2mm shared-block ratio = %v; paper: every block shared", r.SharedBlockRatio)
		}
	}
}

func TestFigure12NeighbourCTAsShareMost(t *testing.T) {
	rows, err := NewSuite(Options{Workloads: []string{"2mm"}, Size: 48, Seed: 9}).Figure12()
	if err != nil {
		t.Fatalf("Figure12: %v", err)
	}
	bins := rows[0].Bins
	if len(bins) == 0 {
		t.Fatalf("no distance bins")
	}
	// Distance 1 must be the most frequent sharing distance for dense
	// matrix multiply (Fig 12a).
	best := bins[0]
	for _, b := range bins {
		if b.Count > best.Count {
			best = b
		}
	}
	if best.Distance != 1 {
		t.Errorf("dominant CTA distance = %d, want 1", best.Distance)
	}
}

func TestAblationsRun(t *testing.T) {
	rows, err := RunAblation("cta", Options{Workloads: []string{"2mm"}, Size: 32, Seed: 10, MaxWarpInsts: 50_000})
	if err != nil {
		t.Fatalf("RunAblation cta: %v", err)
	}
	if len(rows) != 1 || rows[0].BaseCycles == 0 || rows[0].VariantCycles == 0 {
		t.Errorf("bad ablation rows %+v", rows)
	}
	rows, err = RunAblation("warp", Options{Workloads: []string{"bfs"}, Size: 512, Seed: 10, MaxWarpInsts: 50_000})
	if err != nil {
		t.Fatalf("RunAblation warp: %v", err)
	}
	if len(rows) != 1 || rows[0].BaseCycles == 0 {
		t.Errorf("bad ablation rows %+v", rows)
	}
}

func TestExtensionAblations(t *testing.T) {
	opts := Options{Workloads: []string{"spmv"}, Size: 2048, Seed: 10}
	rows, err := RunAblation("bypass", opts)
	if err != nil {
		t.Fatalf("RunAblation bypass: %v", err)
	}
	if len(rows) != 1 || rows[0].VariantCycles == 0 {
		t.Fatalf("bad rows %+v", rows)
	}
	// With spmv's non-deterministic gathers off the L1, the remaining
	// (deterministic) accesses see a different hit profile; the run must
	// stay functionally correct either way — compare() re-runs Setup, so
	// just check cycle counts moved at all or stayed positive.
	if rows[0].BaseCycles <= 0 || rows[0].VariantCycles <= 0 {
		t.Errorf("cycles = %+v", rows[0])
	}

	rows, err = RunAblation("l2", opts)
	if err != nil {
		t.Fatalf("RunAblation l2: %v", err)
	}
	if len(rows) != 1 || rows[0].VariantCycles == 0 {
		t.Errorf("bad rows %+v", rows)
	}

	rows, err = RunAblation("prefetch", opts)
	if err != nil {
		t.Fatalf("RunAblation prefetch: %v", err)
	}
	if len(rows) != 1 || rows[0].VariantCycles == 0 {
		t.Errorf("bad rows %+v", rows)
	}
}

func TestPrefetcherIssuesPrefetches(t *testing.T) {
	cfg := Options{}.gpuConfig()
	cfg.SM.PrefetchNextLine = true
	r, err := RunTiming("2mm", Options{Size: 32, Seed: 3, GPU: &cfg})
	if err != nil {
		t.Fatalf("RunTiming: %v", err)
	}
	if r.Col.Prefetches == 0 {
		t.Errorf("no prefetches issued on a streaming workload")
	}
}

func TestTracerReceivesRequests(t *testing.T) {
	tr := &countingTracer{}
	_, err := RunTiming("spmv", Options{Size: 1024, Seed: 3, Tracer: tr})
	if err != nil {
		t.Fatalf("RunTiming: %v", err)
	}
	if tr.n == 0 {
		t.Errorf("tracer saw no requests")
	}
}

type countingTracer struct{ n int }

func (c *countingTracer) Add(r *memreq.Request) { c.n++ }

func TestUnknownWorkloadErrors(t *testing.T) {
	if _, err := RunFunctional("nope", Options{}); err == nil {
		t.Errorf("RunFunctional accepted unknown workload")
	}
	if _, err := RunTiming("nope", Options{}); err == nil {
		t.Errorf("RunTiming accepted unknown workload")
	}
	_ = workloads.Names()
}

// TestArtifactsDeclareTheirRuns renders every entry of Artifacts on a small
// two-workload suite. Each must produce non-empty tables, must have executed
// functional and timing runs exactly where it declares them — the property
// `critload experiments -parallel` relies on to warm neither more nor less
// than the serial sweep runs — and must be documented in DESIGN.md §4.
func TestArtifactsDeclareTheirRuns(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, _ := strings.Cut(string(design), "\n## 4. ")
	index, _, _ = strings.Cut(index, "\n## 5. ")

	seen := map[string]bool{}
	for _, a := range Artifacts {
		if seen[a.Name] {
			t.Errorf("selector %s is listed twice", a.Name)
		}
		seen[a.Name] = true
		if !strings.Contains(index, "· `"+a.Name+"`") {
			t.Errorf("DESIGN.md §4 has no row that regenerates with `%s`", a.Name)
		}
		s := NewSuite(Options{Workloads: []string{"2mm", "bfs"}, Size: 64, Seed: 3, MaxWarpInsts: 20_000})
		tables, err := a.Render(s)
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		if len(tables) == 0 {
			t.Errorf("%s rendered no table", a.Name)
		}
		for _, tb := range tables {
			if tb.Title == "" || len(tb.Rows) == 0 {
				t.Errorf("%s: table %q has %d rows", a.Name, tb.Title, len(tb.Rows))
			}
		}
		if ran := len(s.fn) > 0; ran != a.Functional {
			t.Errorf("%s: executed %d functional runs, declares Functional=%v", a.Name, len(s.fn), a.Functional)
		}
		if ran := len(s.tm) > 0; ran != a.Timing {
			t.Errorf("%s: executed %d timing runs, declares Timing=%v", a.Name, len(s.tm), a.Timing)
		}
	}
}
