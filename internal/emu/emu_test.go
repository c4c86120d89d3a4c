package emu

import (
	"math"
	"testing"

	"critload/internal/isa"
	"critload/internal/mem"
	"critload/internal/ptx"
)

func mustKernel(t *testing.T, src, name string) *ptx.Kernel {
	t.Helper()
	prog, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	k, ok := prog.Kernel(name)
	if !ok {
		t.Fatalf("kernel %s missing", name)
	}
	return k
}

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

func TestVecAdd(t *testing.T) {
	k := mustKernel(t, vecAddSrc, "vecadd")
	m := mem.New()
	const n = 1000 // not a multiple of the block size: exercises the guard
	a := make([]uint32, n)
	b := make([]uint32, n)
	for i := range a {
		a[i] = uint32(i)
		b[i] = uint32(3 * i)
	}
	aBase := m.AllocU32s(a)
	bBase := m.AllocU32s(b)
	cBase := m.Alloc(4 * n)

	l := &Launch{
		Kernel: k,
		Grid:   Dim1((n + 255) / 256),
		Block:  Dim1(256),
		Params: []uint32{aBase, bBase, cBase, n},
	}
	env := &Env{Mem: m, Launch: l}
	if _, err := Run(env, RunOptions{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := m.Read32(cBase + uint32(4*i)); got != uint32(4*i) {
			t.Fatalf("c[%d] = %d, want %d", i, got, 4*i)
		}
	}
	// Out-of-range threads must not write past the array.
	if got := m.Read32(cBase + 4*n); got != 0 {
		t.Errorf("c[n] = %d, want 0 (guard failed)", got)
	}
}

const divergeSrc = `
.kernel diverge
.param .u32 out
    mov.u32      %r0, %tid.x;
    setp.lt.u32  %p0, %r0, 10;
@%p0 bra THEN;
    mov.u32      %r1, 200;   // lanes 10..31
    bra JOIN;
THEN:
    mov.u32      %r1, 100;   // lanes 0..9
JOIN:
    ld.param.u32 %r2, [out];
    shl.u32      %r3, %r0, 2;
    add.u32      %r4, %r2, %r3;
    st.global.u32 [%r4], %r1;
    exit;
`

func TestDivergenceReconverges(t *testing.T) {
	k := mustKernel(t, divergeSrc, "diverge")
	m := mem.New()
	out := m.Alloc(4 * 32)
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(32), Params: []uint32{out}}
	if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 32; i++ {
		want := uint32(200)
		if i < 10 {
			want = 100
		}
		if got := m.Read32(out + uint32(4*i)); got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

const loopSumSrc = `
.kernel loopsum
.param .u32 out
.param .u32 n
    mov.u32      %r0, 0;     // i
    mov.u32      %r1, 0;     // acc
    ld.param.u32 %r2, [n];
LOOP:
    setp.ge.u32  %p0, %r0, %r2;
@%p0 bra DONE;
    add.u32      %r1, %r1, %r0;
    add.u32      %r0, %r0, 1;
    bra LOOP;
DONE:
    mov.u32      %r3, %tid.x;
    ld.param.u32 %r4, [out];
    shl.u32      %r5, %r3, 2;
    add.u32      %r6, %r4, %r5;
    st.global.u32 [%r6], %r1;
    exit;
`

func TestLoopExecution(t *testing.T) {
	k := mustKernel(t, loopSumSrc, "loopsum")
	m := mem.New()
	out := m.Alloc(4 * 32)
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(32), Params: []uint32{out, 100}}
	if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := uint32(100 * 99 / 2)
	for i := 0; i < 32; i++ {
		if got := m.Read32(out + uint32(4*i)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// Per-lane divergent trip counts: lane l loops l+1 times.
const divergentLoopSrc = `
.kernel dloop
.param .u32 out
    mov.u32      %r0, %tid.x;
    mov.u32      %r1, 0;       // counter
LOOP:
    add.u32      %r1, %r1, 1;
    setp.le.u32  %p0, %r1, %r0;
@%p0 bra LOOP;
    ld.param.u32 %r2, [out];
    shl.u32      %r3, %r0, 2;
    add.u32      %r4, %r2, %r3;
    st.global.u32 [%r4], %r1;
    exit;
`

func TestDivergentLoopTripCounts(t *testing.T) {
	k := mustKernel(t, divergentLoopSrc, "dloop")
	m := mem.New()
	out := m.Alloc(4 * 32)
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(32), Params: []uint32{out}}
	if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 32; i++ {
		if got := m.Read32(out + uint32(4*i)); got != uint32(i+1) {
			t.Errorf("out[%d] = %d, want %d", i, got, i+1)
		}
	}
}

// Shared-memory block reduction with barriers: each CTA sums its 64 inputs.
const reduceSrc = `
.kernel reduce
.param .u32 in
.param .u32 out
    mov.u32      %r0, %tid.x;
    mov.u32      %r1, %ctaid.x;
    mov.u32      %r2, %ntid.x;
    mad.u32      %r3, %r1, %r2, %r0;  // global index
    ld.param.u32 %r4, [in];
    shl.u32      %r5, %r3, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];
    shl.u32      %r8, %r0, 2;
    st.shared.u32 [%r8], %r7;
    bar.sync;
    mov.u32      %r9, 32;             // stride
STRIDE:
    setp.eq.u32  %p0, %r9, 0;
@%p0 bra WRITE;
    setp.ge.u32  %p1, %r0, %r9;
@%p1 bra SKIP;
    shl.u32      %r10, %r9, 2;
    add.u32      %r11, %r8, %r10;
    ld.shared.u32 %r12, [%r11];
    ld.shared.u32 %r13, [%r8];
    add.u32      %r14, %r12, %r13;
    st.shared.u32 [%r8], %r14;
SKIP:
    bar.sync;
    shr.u32      %r9, %r9, 1;
    bra STRIDE;
WRITE:
    setp.ne.u32  %p2, %r0, 0;
@%p2 bra EXIT;
    ld.shared.u32 %r15, [0];
    ld.param.u32 %r16, [out];
    shl.u32      %r17, %r1, 2;
    add.u32      %r18, %r16, %r17;
    st.global.u32 [%r18], %r15;
EXIT:
    exit;
`

func TestSharedReductionWithBarriers(t *testing.T) {
	prog, err := ptx.Parse(".shared 256\n" + reduceSrc)
	// .shared before .kernel is invalid; construct properly instead.
	if err == nil {
		t.Fatalf("expected .shared outside kernel to fail")
	}
	prog, err = ptx.Parse(reduceSrc + "\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	k := prog.Kernels[0]
	k.SharedBytes = 64 * 4

	m := mem.New()
	const ctas = 4
	in := make([]uint32, 64*ctas)
	var want [ctas]uint32
	for i := range in {
		in[i] = uint32(i % 7)
		want[i/64] += in[i]
	}
	inBase := m.AllocU32s(in)
	outBase := m.Alloc(4 * ctas)
	l := &Launch{Kernel: k, Grid: Dim1(ctas), Block: Dim1(64), Params: []uint32{inBase, outBase}}
	if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for c := 0; c < ctas; c++ {
		if got := m.Read32(outBase + uint32(4*c)); got != want[c] {
			t.Errorf("out[%d] = %d, want %d", c, got, want[c])
		}
	}
}

const saxpySrc = `
.kernel saxpy
.param .u32 x
.param .u32 y
.param .f32 alpha
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    shl.u32      %r3, %r2, 2;
    ld.param.u32 %r4, [x];
    add.u32      %r5, %r4, %r3;
    ld.global.f32 %r6, [%r5];
    ld.param.u32 %r7, [y];
    add.u32      %r8, %r7, %r3;
    ld.global.f32 %r9, [%r8];
    ld.param.f32 %r10, [alpha];
    mad.f32      %r11, %r10, %r6, %r9;
    st.global.f32 [%r8], %r11;
    exit;
`

func TestSaxpyFloat(t *testing.T) {
	k := mustKernel(t, saxpySrc, "saxpy")
	m := mem.New()
	const n = 128
	x := make([]float32, n)
	y := make([]float32, n)
	for i := range x {
		x[i] = float32(i) * 0.5
		y[i] = float32(i)
	}
	xb := m.AllocF32s(x)
	yb := m.AllocF32s(y)
	alpha := float32(2.0)
	l := &Launch{
		Kernel: k, Grid: Dim1(n / 32), Block: Dim1(32),
		Params: []uint32{xb, yb, math.Float32bits(alpha)},
	}
	if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		want := alpha*x[i] + y[i]
		if got := m.ReadF32(yb + uint32(4*i)); got != want {
			t.Errorf("y[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestAtomicsAccumulate(t *testing.T) {
	src := `
.kernel count
.param .u32 ctr
    ld.param.u32 %r0, [ctr];
    atom.global.add.u32 %r1, [%r0], 1;
    exit;
`
	k := mustKernel(t, src, "count")
	m := mem.New()
	ctr := m.Alloc(4)
	l := &Launch{Kernel: k, Grid: Dim1(8), Block: Dim1(64), Params: []uint32{ctr}}
	if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := m.Read32(ctr); got != 8*64 {
		t.Errorf("counter = %d, want %d", got, 8*64)
	}
}

func TestPartialWarpAndMultiDimBlocks(t *testing.T) {
	src := `
.kernel coords
.param .u32 out
    mov.u32      %r0, %tid.x;
    mov.u32      %r1, %tid.y;
    mov.u32      %r2, %ntid.x;
    mad.u32      %r3, %r1, %r2, %r0;  // linear tid
    mov.u32      %r4, %ctaid.y;
    mov.u32      %r5, 1000;
    mul.u32      %r6, %r4, %r5;
    add.u32      %r7, %r6, %r3;
    ld.param.u32 %r8, [out];
    shl.u32      %r9, %r3, 2;
    mov.u32      %r10, %ntid.y;
    mul.u32      %r11, %r2, %r10;
    mul.u32      %r12, %r11, 4;
    mov.u32      %r13, %ctaid.x;
    mov.u32      %r14, %nctaid.y;
    mad.u32      %r15, %r13, %r14, %r4; // linear cta
    mul.u32      %r16, %r15, %r12;
    add.u32      %r17, %r8, %r16;
    add.u32      %r18, %r17, %r9;
    st.global.u32 [%r18], %r7;
    exit;
`
	k := mustKernel(t, src, "coords")
	m := mem.New()
	block := Dim2(5, 3) // 15 threads: one partial warp
	grid := Dim2(2, 2)
	out := m.Alloc(uint32(4 * block.Count() * grid.Count()))
	l := &Launch{Kernel: k, Grid: grid, Block: block, Params: []uint32{out}}
	if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Spot check: CTA (x=1,y=0) linear = 1*2+0 = 2; thread (x=4,y=2)
	// linear tid = 2*5+4 = 14; value = ctaid.y*1000 + 14 = 14.
	cta := 2
	addr := out + uint32(cta*block.Count()*4) + uint32(14*4)
	if got := m.Read32(addr); got != 14 {
		t.Errorf("coords value = %d, want 14", got)
	}
}

func TestMaxWarpInstsTruncates(t *testing.T) {
	k := mustKernel(t, loopSumSrc, "loopsum")
	m := mem.New()
	out := m.Alloc(4 * 32)
	l := &Launch{Kernel: k, Grid: Dim1(4), Block: Dim1(32), Params: []uint32{out, 1000000}}
	res, err := Run(&Env{Mem: m, Launch: l}, RunOptions{MaxWarpInsts: 500})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Truncated {
		t.Errorf("run not truncated")
	}
	if res.WarpInsts < 500 || res.WarpInsts > 500+warpSlice {
		t.Errorf("WarpInsts = %d, want ~500", res.WarpInsts)
	}
}

func TestListenerSeesLoadAddresses(t *testing.T) {
	k := mustKernel(t, vecAddSrc, "vecadd")
	m := mem.New()
	const n = 64
	aBase := m.AllocU32s(make([]uint32, n))
	bBase := m.AllocU32s(make([]uint32, n))
	cBase := m.Alloc(4 * n)
	l := &Launch{Kernel: k, Grid: Dim1(2), Block: Dim1(32), Params: []uint32{aBase, bBase, cBase, n}}

	var loadSteps int
	var sawCoalesced bool
	listener := func(ctaID int, w *Warp, s *Step) {
		if !s.Inst.IsGlobalLoad() {
			return
		}
		loadSteps++
		// All 32 lanes active, consecutive addresses.
		if s.ExecCount() == 32 {
			ok := true
			for lane := 1; lane < 32; lane++ {
				if s.Addrs[lane] != s.Addrs[0]+uint32(4*lane) {
					ok = false
				}
			}
			if ok {
				sawCoalesced = true
			}
		}
	}
	if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{Listener: listener}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if loadSteps != 4 { // 2 loads × 2 CTAs × 1 warp each... (2 warps per CTA of 32 threads? block=32 → 1 warp) = 2 loads × 2 CTAs
		t.Logf("loadSteps = %d", loadSteps)
	}
	if !sawCoalesced {
		t.Errorf("expected fully coalesced load addresses")
	}
}

func TestLaunchValidate(t *testing.T) {
	k := mustKernel(t, vecAddSrc, "vecadd")
	bad := []*Launch{
		{Kernel: k, Grid: Dim1(1), Block: Dim1(32), Params: []uint32{1, 2}},      // wrong param count
		{Kernel: k, Grid: Dim1(0), Block: Dim1(32), Params: make([]uint32, 4)},   // empty grid
		{Kernel: k, Grid: Dim1(1), Block: Dim1(2048), Params: make([]uint32, 4)}, // block too large
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("launch %d validated unexpectedly", i)
		}
	}
}

func TestGuardedExitRetiresLanes(t *testing.T) {
	// Lanes < 16 exit early; the rest write 7.
	src := `
.kernel gexit
.param .u32 out
    mov.u32      %r0, %tid.x;
    setp.lt.u32  %p0, %r0, 16;
@%p0 exit;
    ld.param.u32 %r1, [out];
    shl.u32      %r2, %r0, 2;
    add.u32      %r3, %r1, %r2;
    st.global.u32 [%r3], 7;
    exit;
`
	k := mustKernel(t, src, "gexit")
	m := mem.New()
	out := m.Alloc(4 * 32)
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(32), Params: []uint32{out}}
	if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 32; i++ {
		want := uint32(0)
		if i >= 16 {
			want = 7
		}
		if got := m.Read32(out + uint32(4*i)); got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestStepMasksExposeActiveCounts(t *testing.T) {
	var s Step
	s.Active = 0xff
	s.Exec = 0x0f
	if s.ActiveCount() != 8 || s.ExecCount() != 4 {
		t.Errorf("counts = %d/%d, want 8/4", s.ActiveCount(), s.ExecCount())
	}
}

func TestUnitAssignment(t *testing.T) {
	prog, err := ptx.Parse(`
.kernel u
    mov.u32 %r0, 1;
    cvt.f32.u32 %r1, %r0;
    sqrt.f32 %r2, %r1;
    ld.global.u32 %r3, [65536];
    exit;
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	k := prog.Kernels[0]
	if k.Insts[0].Unit() != isa.UnitSP {
		t.Errorf("mov unit = %v", k.Insts[0].Unit())
	}
	if k.Insts[2].Unit() != isa.UnitSFU {
		t.Errorf("sqrt unit = %v", k.Insts[2].Unit())
	}
	if k.Insts[3].Unit() != isa.UnitLDST {
		t.Errorf("ld unit = %v", k.Insts[3].Unit())
	}
}
