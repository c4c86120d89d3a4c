package stats

import (
	"testing"
	"testing/quick"
	"unsafe"

	"critload/internal/cache"
	"critload/internal/emu"
	"critload/internal/isa"
	"critload/internal/mem"
	"critload/internal/ptx"
)

// stepFor builds a Step for a global load with the given lane addresses.
func stepFor(t testing.TB, addrs []uint32) *emu.Step {
	t.Helper()
	prog, err := ptx.Parse(`
.kernel k
    ld.global.u32 %r0, [%r1];
    exit;
`)
	if err != nil {
		t.Fatal(err)
	}
	s := &emu.Step{Inst: prog.Kernels[0].Insts[0], Mem: true}
	for i, a := range addrs {
		s.Addrs[i] = a
		s.Exec |= 1 << i
	}
	s.Active = s.Exec
	return s
}

func TestObserveStepCountsByCategory(t *testing.T) {
	c := New()
	s := stepFor(t, []uint32{0, 4, 8, 12})
	c.ObserveStep(0, s, nil) // nil classifier → deterministic
	c.ObserveStep(0, s, func(pc uint32) bool { return true })

	if c.GLoadWarps[Det] != 1 || c.GLoadWarps[NonDet] != 1 {
		t.Errorf("load warps = %v/%v", c.GLoadWarps[Det], c.GLoadWarps[NonDet])
	}
	if c.Requests[Det] != 1 || c.Requests[NonDet] != 1 {
		t.Errorf("requests = %v/%v (4 lanes in one block)", c.Requests[Det], c.Requests[NonDet])
	}
	if c.GLoadThreads[Det] != 4 {
		t.Errorf("thread loads = %d, want 4", c.GLoadThreads[Det])
	}
	if got := c.RequestsPerWarp(Det); got != 1 {
		t.Errorf("RequestsPerWarp = %v, want 1", got)
	}
	if got := c.RequestsPerActiveThread(Det); got != 0.25 {
		t.Errorf("RequestsPerActiveThread = %v, want 0.25", got)
	}
	det, nondet := c.LoadFraction()
	if det != 0.5 || nondet != 0.5 {
		t.Errorf("LoadFraction = %v/%v", det, nondet)
	}
}

func TestBlockMapColdMissAndSharing(t *testing.T) {
	c := New()
	// CTA 0 touches blocks 0 and 128; CTA 1 touches 128 and 256; CTA 3
	// touches 128 again.
	c.ObserveStep(0, stepFor(t, []uint32{0}), nil)
	c.ObserveStep(0, stepFor(t, []uint32{128}), nil)
	c.ObserveStep(1, stepFor(t, []uint32{128}), nil)
	c.ObserveStep(1, stepFor(t, []uint32{256}), nil)
	c.ObserveStep(3, stepFor(t, []uint32{128}), nil)

	b := c.Blocks()
	if b.DistinctBlocks != 3 || b.TotalLoadRequests != 5 {
		t.Fatalf("blocks = %d, requests = %d", b.DistinctBlocks, b.TotalLoadRequests)
	}
	if b.ColdMissRatio != 3.0/5.0 {
		t.Errorf("ColdMissRatio = %v, want 0.6", b.ColdMissRatio)
	}
	if b.SharedBlocks != 1 {
		t.Errorf("SharedBlocks = %d, want 1 (block 128)", b.SharedBlocks)
	}
	if b.SharedAccessRatio != 3.0/5.0 {
		t.Errorf("SharedAccessRatio = %v, want 0.6", b.SharedAccessRatio)
	}
	if b.MeanCTAsPerShared != 3 {
		t.Errorf("MeanCTAsPerShared = %v, want 3", b.MeanCTAsPerShared)
	}

	// CTA distances recorded: 0→1 (d=1) and 1→3 (d=2) on block 128.
	bins := c.CTADistanceHistogram()
	if len(bins) != 2 || bins[0].Distance != 1 || bins[1].Distance != 2 {
		t.Fatalf("bins = %+v", bins)
	}
	if bins[0].Fraction != 0.5 || bins[1].Fraction != 0.5 {
		t.Errorf("fractions = %v/%v", bins[0].Fraction, bins[1].Fraction)
	}
}

// observeCases are the global-load shapes of the ObserveStep pins: one
// fully coalesced block or 32 blocks (one per lane, crossing mem pages),
// observed always from CTA 0 or from CTAs 0, 1, 2 in turn (every block
// shared, its CTA set spilled, a distance recorded on every touch).
var observeCases = []struct {
	name   string
	stride uint32
	ctas   int
}{
	{"coalesced/same-cta", 4, 1},
	{"coalesced/cross-cta", 4, 3},
	{"32-block/same-cta", 4096, 1},
	{"32-block/cross-cta", 4096, 3},
}

func observeStep(tb testing.TB, stride uint32) *emu.Step {
	addrs := make([]uint32, emu.WarpSize)
	for l := range addrs {
		addrs[l] = 0x10000 + uint32(l)*stride
	}
	return stepFor(tb, addrs)
}

// TestObserveStepDoesNotAllocate pins the functional listener: once the
// blocks' leaves, CTA sets and histogram slots exist, observing a global
// load allocates nothing.
func TestObserveStepDoesNotAllocate(t *testing.T) {
	nonDet := func(uint32) bool { return true }
	for _, c := range observeCases {
		t.Run(c.name, func(t *testing.T) {
			col, s, i := New(), observeStep(t, c.stride), 0
			observe := func() {
				col.ObserveStep(i%c.ctas, s, nonDet)
				i++
			}
			for j := 0; j < 2*c.ctas; j++ {
				observe()
			}
			if n := testing.AllocsPerRun(100, observe); n != 0 {
				t.Errorf("ObserveStep allocates %v times per call", n)
			}
		})
	}
}

// TestBlockLeafFitsItsPage pins the block table's memory bound: the leaf
// allocated for a touched 64 KiB region costs no more than the mem page
// behind it.
func TestBlockLeafFitsItsPage(t *testing.T) {
	if size := unsafe.Sizeof(blockLeaf{}); size > mem.PageSize {
		t.Errorf("a block leaf is %d bytes, more than its %d-byte page", size, mem.PageSize)
	}
}

func BenchmarkObserveStep(b *testing.B) {
	for _, c := range observeCases {
		b.Run(c.name, func(b *testing.B) {
			col, s := New(), observeStep(b, c.stride)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				col.ObserveStep(i%c.ctas, s, nil)
			}
		})
	}
}

func TestL1OutcomeAccounting(t *testing.T) {
	c := New()
	c.RecordL1Outcome(Det, cache.Hit)
	c.RecordL1Outcome(Det, cache.Miss)
	c.RecordL1Outcome(Det, cache.HitReserved)
	c.RecordL1Outcome(Det, cache.RsrvFailTag) // not an access, just a cycle
	if c.L1Acc[Det] != 3 || c.L1Miss[Det] != 2 {
		t.Errorf("acc/miss = %d/%d, want 3/2", c.L1Acc[Det], c.L1Miss[Det])
	}
	bd := c.L1CycleBreakdown()
	var sum float64
	for _, f := range bd {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("breakdown sums to %v", sum)
	}
	if bd[cache.RsrvFailTag] != 0.25 {
		t.Errorf("tag-fail fraction = %v, want 0.25", bd[cache.RsrvFailTag])
	}
}

func TestL2SliceCounters(t *testing.T) {
	c := New()
	c.RecordL2Outcome(Det, cache.Hit, 0)
	c.RecordL2Outcome(Det, cache.Miss, 1)
	c.RecordL2Outcome(NonDet, cache.Hit, 3) // parity → slice 1
	if c.L2SliceQueries[0] != 1 || c.L2SliceQueries[1] != 2 {
		t.Errorf("queries = %v", c.L2SliceQueries)
	}
	if c.L2SliceHits[0] != 1 || c.L2SliceHits[1] != 1 {
		t.Errorf("hits = %v", c.L2SliceHits)
	}
}

func TestTurnaroundAggregation(t *testing.T) {
	c := New()
	c.RecordLoadOp(c.LoadPC("k", 0x10, true), LoadOpRecord{
		NReq:  4,
		Total: 400, Unloaded: 150, RsrvPrev: 50, RsrvCurr: 30,
		GapIcntL2: 12, GapL2Icnt: 80,
	})
	c.RecordLoadOp(c.LoadPC("k", 0x10, true), LoadOpRecord{
		NReq:  4,
		Total: 200, Unloaded: 150, RsrvPrev: 10, RsrvCurr: 10,
	})
	tn := c.Turnaround[NonDet]
	if tn.Ops != 2 || tn.Total != 600 {
		t.Fatalf("agg = %+v", tn)
	}
	u, p, cu, m := tn.Mean()
	if u != 150 || p != 30 || cu != 20 {
		t.Errorf("means = %v/%v/%v", u, p, cu)
	}
	// MemSystem = total - others, clamped at 0 per op: (400-230)+(200-170).
	if m != (170+30)/2 {
		t.Errorf("memsys mean = %v, want 100", m)
	}
	if tn.MeanTotal() != 300 {
		t.Errorf("MeanTotal = %v", tn.MeanTotal())
	}

	p10 := c.PerPC[PCKey{Kernel: "k", PC: 0x10}]
	if p10 == nil || !p10.NonDet || len(c.PerPC) != 1 {
		t.Fatalf("per-PC map = %v, want one non-deterministic entry", c.PerPC)
	}
	if g := p10.ByNReq[4]; g.Ops != 2 || g.Total != 600 {
		t.Errorf("bucket = %+v", g)
	}
}

// TestRecordLoadOpRejectsImpossibleRequestCounts pins the bucket bound: a
// warp load makes 1..32 requests, and anything else is a simulator bug.
func TestRecordLoadOpRejectsImpossibleRequestCounts(t *testing.T) {
	for _, nreq := range []int{0, MaxNReq + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RecordLoadOp accepted %d requests", nreq)
				}
			}()
			c := New()
			c.RecordLoadOp(c.LoadPC("k", 0, false), LoadOpRecord{NReq: nreq})
		}()
	}
}

func TestMemSystemComponentClamped(t *testing.T) {
	c := New()
	// Components exceed the total (can happen for all-hit ops with rounding):
	// MemSystem must clamp to zero, not go negative.
	c.RecordLoadOp(c.LoadPC("k", 0, false), LoadOpRecord{NReq: 1, Total: 100, Unloaded: 90, RsrvPrev: 20, RsrvCurr: 0})
	if c.Turnaround[Det].MemSystem != 0 {
		t.Errorf("MemSystem = %d, want 0", c.Turnaround[Det].MemSystem)
	}
}

func TestUnitIdleFraction(t *testing.T) {
	c := New()
	for i := 0; i < 10; i++ {
		c.RecordSMCycle()
		c.RecordUnitCycle(isa.UnitLDST, i < 4)
	}
	if got := c.UnitIdleFraction(isa.UnitLDST); got != 0.6 {
		t.Errorf("idle = %v, want 0.6", got)
	}
}

func TestMissRatioEdgeCases(t *testing.T) {
	if MissRatio(0, 0) != 0 {
		t.Errorf("MissRatio(0,0) != 0")
	}
	if MissRatio(1, 2) != 0.5 {
		t.Errorf("MissRatio(1,2) != 0.5")
	}
}

// Property: the distance histogram fractions always sum to 1 (when any
// cross-CTA access exists) and every recorded distance is positive.
func TestQuickDistanceHistogram(t *testing.T) {
	f := func(ctas []uint8) bool {
		if len(ctas) < 2 {
			return true
		}
		c := New()
		for _, id := range ctas {
			c.ObserveStep(int(id%16), stepForQuick(), nil)
		}
		bins := c.CTADistanceHistogram()
		var total float64
		for _, b := range bins {
			if b.Distance <= 0 {
				return false
			}
			total += b.Fraction
		}
		return len(bins) == 0 || (total > 0.999 && total < 1.001)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

var quickStep *emu.Step

func stepForQuick() *emu.Step {
	if quickStep == nil {
		prog := ptx.MustParse(".kernel q\n ld.global.u32 %r0, [%r1];\n exit;")
		quickStep = &emu.Step{Inst: prog.Kernels[0].Insts[0], Mem: true, Exec: 1, Active: 1}
	}
	return quickStep
}

func TestCategoryHelpers(t *testing.T) {
	if CatOf(true) != NonDet || CatOf(false) != Det {
		t.Errorf("CatOf wrong")
	}
	if Det.String() != "D" || NonDet.String() != "N" {
		t.Errorf("String wrong")
	}
}
