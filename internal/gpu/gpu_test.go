package gpu

import (
	"strings"
	"testing"

	"critload/internal/cache"
	"critload/internal/emu"
	"critload/internal/isa"
	"critload/internal/mem"
	"critload/internal/ptx"
	"critload/internal/stats"
)

const vecAddSrc = `
.kernel vecadd
.param .u32 a
.param .u32 b
.param .u32 c
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    shl.u32      %r4, %r2, 2;
    ld.param.u32 %r5, [a];
    add.u32      %r6, %r5, %r4;
    ld.global.u32 %r7, [%r6];
    ld.param.u32 %r8, [b];
    add.u32      %r9, %r8, %r4;
    ld.global.u32 %r10, [%r9];
    add.u32      %r11, %r7, %r10;
    ld.param.u32 %r12, [c];
    add.u32      %r13, %r12, %r4;
    st.global.u32 [%r13], %r11;
EXIT:
    exit;
`

// gatherSrc loads b[idx[i]] — one deterministic and one non-deterministic
// load per thread.
const gatherSrc = `
.kernel gather
.param .u32 idx
.param .u32 b
.param .u32 out
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    shl.u32      %r3, %r2, 2;
    ld.param.u32 %r4, [idx];
    add.u32      %r5, %r4, %r3;
    ld.global.u32 %r6, [%r5];      // idx[i]: deterministic
    ld.param.u32 %r7, [b];
    shl.u32      %r8, %r6, 2;
    add.u32      %r9, %r7, %r8;
    ld.global.u32 %r10, [%r9];     // b[idx[i]]: non-deterministic
    ld.param.u32 %r11, [out];
    add.u32      %r12, %r11, %r3;
    st.global.u32 [%r12], %r10;
    exit;
`

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxCycles = 3_000_000
	return cfg
}

func launchOf(t *testing.T, src, name string, grid, block int, params ...uint32) *emu.Launch {
	t.Helper()
	prog, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	k, ok := prog.Kernel(name)
	if !ok {
		t.Fatalf("kernel %q missing", name)
	}
	return &emu.Launch{Kernel: k, Grid: emu.Dim1(grid), Block: emu.Dim1(block), Params: params}
}

func TestTimingVecAddCorrectAndMeasured(t *testing.T) {
	m := mem.New()
	const n = 4096
	a := make([]uint32, n)
	b := make([]uint32, n)
	for i := range a {
		a[i] = uint32(i)
		b[i] = uint32(2 * i)
	}
	aB, bB := m.AllocU32s(a), m.AllocU32s(b)
	cB := m.Alloc(4 * n)

	col := stats.New()
	g := MustNew(testConfig(), m, col)
	l := launchOf(t, vecAddSrc, "vecadd", n/256, 256, aB, bB, cB, n)
	if err := g.LaunchKernel(l); err != nil {
		t.Fatalf("LaunchKernel: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := m.Read32(cB + uint32(4*i)); got != uint32(3*i) {
			t.Fatalf("c[%d] = %d, want %d", i, got, 3*i)
		}
	}
	if g.Cycle() <= 0 {
		t.Errorf("cycle count %d", g.Cycle())
	}
	// All loads are deterministic and fully coalesced: 1 request per warp.
	if col.GLoadWarps[stats.NonDet] != 0 {
		t.Errorf("non-deterministic loads = %d, want 0", col.GLoadWarps[stats.NonDet])
	}
	wantLoads := uint64(2 * n / 32) // 2 loads per warp of 32 threads
	if col.GLoadWarps[stats.Det] != wantLoads {
		t.Errorf("det load warps = %d, want %d", col.GLoadWarps[stats.Det], wantLoads)
	}
	if rpw := col.RequestsPerWarp(stats.Det); rpw != 1 {
		t.Errorf("requests/warp = %v, want 1 (fully coalesced)", rpw)
	}
	// Turnaround must have been recorded for every load warp.
	if col.Turnaround[stats.Det].Ops != wantLoads {
		t.Errorf("turnaround ops = %d, want %d", col.Turnaround[stats.Det].Ops, wantLoads)
	}
	if col.Turnaround[stats.Det].MeanTotal() < float64(g.cfg.SM.L1.HitLatency) {
		t.Errorf("mean turnaround %v below L1 hit latency", col.Turnaround[stats.Det].MeanTotal())
	}
}

func TestTimingGatherClassifiesAndDiverges(t *testing.T) {
	m := mem.New()
	const n = 2048
	idx := make([]uint32, n)
	bv := make([]uint32, n)
	// Scattered permutation-ish indices: every lane hits a distant block.
	for i := range idx {
		idx[i] = uint32((i * 577) % n)
		bv[i] = uint32(i + 7)
	}
	idxB, bB := m.AllocU32s(idx), m.AllocU32s(bv)
	outB := m.Alloc(4 * n)

	col := stats.New()
	g := MustNew(testConfig(), m, col)
	l := launchOf(t, gatherSrc, "gather", n/256, 256, idxB, bB, outB)
	if err := g.LaunchKernel(l); err != nil {
		t.Fatalf("LaunchKernel: %v", err)
	}
	for i := 0; i < n; i++ {
		want := bv[idx[i]]
		if got := m.Read32(outB + uint32(4*i)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	// Both categories must be populated: idx[i] deterministic, b[idx[i]]
	// non-deterministic — and in equal warp counts.
	if col.GLoadWarps[stats.Det] == 0 || col.GLoadWarps[stats.NonDet] == 0 {
		t.Fatalf("load warps det=%d nondet=%d, want both nonzero",
			col.GLoadWarps[stats.Det], col.GLoadWarps[stats.NonDet])
	}
	if col.GLoadWarps[stats.Det] != col.GLoadWarps[stats.NonDet] {
		t.Errorf("det=%d nondet=%d load warps, want equal",
			col.GLoadWarps[stats.Det], col.GLoadWarps[stats.NonDet])
	}
	// The scattered gather must generate more requests per warp than the
	// sequential index load (the paper's central Fig 2 disparity).
	detRPW := col.RequestsPerWarp(stats.Det)
	nonRPW := col.RequestsPerWarp(stats.NonDet)
	if nonRPW <= detRPW {
		t.Errorf("requests/warp: nondet %v <= det %v, want strictly greater", nonRPW, detRPW)
	}
	// And its mean turnaround should be no better than the deterministic one.
	if col.Turnaround[stats.NonDet].MeanTotal() < col.Turnaround[stats.Det].MeanTotal() {
		t.Errorf("nondet turnaround %v < det %v",
			col.Turnaround[stats.NonDet].MeanTotal(), col.Turnaround[stats.Det].MeanTotal())
	}
}

func TestL1OutcomesAccumulate(t *testing.T) {
	m := mem.New()
	const n = 8192
	a := make([]uint32, n)
	aB := m.AllocU32s(a)
	bB := m.AllocU32s(a)
	cB := m.Alloc(4 * n)

	col := stats.New()
	g := MustNew(testConfig(), m, col)
	l := launchOf(t, vecAddSrc, "vecadd", n/256, 256, aB, bB, cB, n)
	if err := g.LaunchKernel(l); err != nil {
		t.Fatalf("LaunchKernel: %v", err)
	}
	var total uint64
	for o := 0; o < int(cache.NumOutcomes); o++ {
		total += col.L1Outcomes[stats.Det][o]
	}
	if total == 0 {
		t.Fatalf("no L1 outcomes recorded")
	}
	bd := col.L1CycleBreakdown()
	var sum float64
	for _, f := range bd {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("breakdown sums to %v, want 1", sum)
	}
	// A streaming kernel over fresh data must miss in L1.
	if col.L1Miss[stats.Det] == 0 {
		t.Errorf("no L1 misses for streaming kernel")
	}
	// Unit occupancy recorded for every SM-cycle.
	if col.SMCycles == 0 {
		t.Errorf("no SM cycles recorded")
	}
	idleLDST := col.UnitIdleFraction(isa.UnitLDST)
	idleSP := col.UnitIdleFraction(isa.UnitSP)
	if idleLDST < 0 || idleLDST > 1 || idleSP < 0 || idleSP > 1 {
		t.Errorf("idle fractions out of range: LDST=%v SP=%v", idleLDST, idleSP)
	}
}

func TestCTAPoliciesBothComplete(t *testing.T) {
	for _, pol := range []CTAPolicy{CTARoundRobin, CTAClustered} {
		m := mem.New()
		const n = 2048
		aB := m.AllocU32s(make([]uint32, n))
		bB := m.AllocU32s(make([]uint32, n))
		cB := m.Alloc(4 * n)
		cfg := testConfig()
		cfg.CTAPolicy = pol
		g := MustNew(cfg, m, stats.New())
		l := launchOf(t, vecAddSrc, "vecadd", n/64, 64, aB, bB, cB, n)
		if err := g.LaunchKernel(l); err != nil {
			t.Fatalf("%v policy: %v", pol, err)
		}
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	m := mem.New()
	const n = 65536
	aB := m.AllocU32s(make([]uint32, n))
	bB := m.AllocU32s(make([]uint32, n))
	cB := m.Alloc(4 * n)
	cfg := testConfig()
	cfg.MaxCycles = 10 // absurdly small
	g := MustNew(cfg, m, stats.New())
	l := launchOf(t, vecAddSrc, "vecadd", n/256, 256, aB, bB, cB, n)
	if err := g.LaunchKernel(l); err == nil {
		t.Fatalf("expected MaxCycles error")
	}
}

func TestPartitionInterleaving(t *testing.T) {
	g := MustNew(testConfig(), mem.New(), stats.New())
	b := (*backend)(g)
	seen := map[int]bool{}
	for blk := uint32(0); blk < 128*64; blk += 128 {
		p := b.PartitionOf(0, blk)
		if p < 0 || p >= g.cfg.NumPartitions {
			t.Fatalf("partition %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != g.cfg.NumPartitions {
		t.Errorf("only %d partitions used", len(seen))
	}
}

// TestLaunchRejectsCTAThatCannotFit checks that a launch whose one CTA
// exceeds an empty SM fails before its first cycle, naming the resource,
// where it used to wait for an SM to accept it until the livelock check
// fired. The fifth resource, CTA slots, is TestCheckCTA's: Config.Validate
// already rejects an SM without one.
func TestLaunchRejectsCTAThatCannotFit(t *testing.T) {
	const small = ".kernel small\n    mov.u32 %r0, 1;\n    exit;\n"
	for _, tc := range []struct {
		name   string
		src    string
		block  int
		shared int
		tweak  func(*Config)
	}{
		{name: "registers", src: ".kernel wide\n    mov.u32 %r1000, 1;\n    exit;\n", block: 64},
		{name: "shared memory", src: small, block: 32, shared: 64 * 1024},
		{name: "threads", src: small, block: 1024, tweak: func(c *Config) { c.SM.MaxThreads = 512 }},
		{name: "warps", src: small, block: 512, tweak: func(c *Config) { c.SM.MaxWarps = 8 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, ff := range []bool{true, false} {
				cfg := testConfig()
				cfg.FastForward = ff
				if tc.tweak != nil {
					tc.tweak(&cfg)
				}
				g := MustNew(cfg, mem.New(), stats.New())
				prog, err := ptx.Parse(tc.src)
				if err != nil {
					t.Fatal(err)
				}
				k := prog.Kernels[0]
				k.SharedBytes = tc.shared
				err = g.LaunchKernel(&emu.Launch{Kernel: k, Grid: emu.Dim1(2), Block: emu.Dim1(tc.block)})
				if err == nil || !strings.Contains(err.Error(), tc.name) {
					t.Errorf("fast-forward %v: error %v, want one naming %s", ff, err, tc.name)
				}
				if g.Cycle() != 0 {
					t.Errorf("fast-forward %v: rejected after %d cycles, want before the first", ff, g.Cycle())
				}
			}
		})
	}
}
