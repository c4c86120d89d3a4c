package emu

import (
	"fmt"
	"math"
	"testing"

	"critload/internal/mem"
	"critload/internal/ptx"
)

// runScalar executes a single-warp kernel and returns the first lane's value
// of the register written by `st.global.u32 [out], %rX` at address out.
func runScalar(t *testing.T, body string, params ...uint32) uint32 {
	t.Helper()
	src := ".kernel scalar\n.param .u32 out\n" + body + `
    ld.param.u32 %r30, [out];
    st.global.u32 [%r30], %r29;
    exit;
`
	prog, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, src)
	}
	m := mem.New()
	out := m.Alloc(4)
	l := &Launch{
		Kernel: prog.Kernels[0], Grid: Dim1(1), Block: Dim1(1),
		Params: append([]uint32{out}, params...),
	}
	if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m.Read32(out)
}

func TestIntegerALUSemantics(t *testing.T) {
	cases := []struct {
		name, body string
		want       uint32
	}{
		{"add wrap", "mov.u32 %r0, 0xffffffff;\nadd.u32 %r29, %r0, 2;", 1},
		{"sub", "mov.u32 %r0, 5;\nsub.u32 %r29, %r0, 9;", uint32(0xfffffffc)},
		{"mul low", "mov.u32 %r0, 0x10000;\nmul.u32 %r29, %r0, %r0;", 0},
		{"mul.hi unsigned", "mov.u32 %r0, 0x10000;\nmul.hi.u32 %r29, %r0, %r0;", 1},
		{"mad", "mov.u32 %r0, 3;\nmad.u32 %r29, %r0, %r0, 1;", 10},
		{"div unsigned", "mov.u32 %r0, 17;\ndiv.u32 %r29, %r0, 5;", 3},
		{"div by zero", "mov.u32 %r0, 17;\nmov.u32 %r1, 0;\ndiv.u32 %r29, %r0, %r1;", 0},
		{"div signed", "mov.u32 %r0, -17;\ndiv.s32 %r29, %r0, 5;", uint32(0xfffffffd)}, // -3
		{"rem", "mov.u32 %r0, 17;\nrem.u32 %r29, %r0, 5;", 2},
		{"min signed", "mov.u32 %r0, -2;\nmov.u32 %r1, 1;\nmin.s32 %r29, %r0, %r1;", uint32(0xfffffffe)},
		{"min unsigned", "mov.u32 %r0, -2;\nmov.u32 %r1, 1;\nmin.u32 %r29, %r0, %r1;", 1},
		{"max signed", "mov.u32 %r0, -2;\nmov.u32 %r1, 1;\nmax.s32 %r29, %r0, %r1;", 1},
		{"abs", "mov.u32 %r0, -7;\nabs.s32 %r29, %r0;", 7},
		{"neg", "mov.u32 %r0, 7;\nneg.s32 %r29, %r0;", uint32(0xfffffff9)},
		{"and", "mov.u32 %r0, 0xf0;\nand.u32 %r29, %r0, 0x3c;", 0x30},
		{"or", "mov.u32 %r0, 0xf0;\nor.u32 %r29, %r0, 0x0f;", 0xff},
		{"xor", "mov.u32 %r0, 0xff;\nxor.u32 %r29, %r0, 0x0f;", 0xf0},
		{"not", "mov.u32 %r0, 0;\nnot.u32 %r29, %r0;", 0xffffffff},
		{"shl", "mov.u32 %r0, 1;\nshl.u32 %r29, %r0, 33;", 2}, // shift amount masked to 5 bits
		{"shr logical", "mov.u32 %r0, 0x80000000;\nshr.u32 %r29, %r0, 4;", 0x08000000},
		{"shr arithmetic", "mov.u32 %r0, 0x80000000;\nshr.s32 %r29, %r0, 4;", 0xf8000000},
		{"selp true", "setp.lt.u32 %p0, 1, 2;\nselp.u32 %r29, 11, 22, %p0;", 11},
		{"selp false", "setp.gt.u32 %p0, 1, 2;\nselp.u32 %r29, 11, 22, %p0;", 22},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runScalar(t, c.body); got != c.want {
				t.Errorf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestFloatALUSemantics(t *testing.T) {
	f := func(v float32) uint32 { return math.Float32bits(v) }
	cases := []struct {
		name, body string
		want       uint32
	}{
		{"fadd", "mov.f32 %r0, 1.5;\nadd.f32 %r29, %r0, 0.25;", f(1.75)},
		{"fmul", "mov.f32 %r0, 3.0;\nmul.f32 %r29, %r0, 0.5;", f(1.5)},
		{"fdiv", "mov.f32 %r0, 1.0;\ndiv.f32 %r29, %r0, 4.0;", f(0.25)},
		{"fmad", "mov.f32 %r0, 2.0;\nmad.f32 %r29, %r0, 3.0, 1.0;", f(7)},
		{"sqrt", "mov.f32 %r0, 9.0;\nsqrt.f32 %r29, %r0;", f(3)},
		{"rcp", "mov.f32 %r0, 4.0;\nrcp.f32 %r29, %r0;", f(0.25)},
		{"rsqrt", "mov.f32 %r0, 4.0;\nrsqrt.f32 %r29, %r0;", f(0.5)},
		{"ex2", "mov.f32 %r0, 3.0;\nex2.f32 %r29, %r0;", f(8)},
		{"lg2", "mov.f32 %r0, 8.0;\nlg2.f32 %r29, %r0;", f(3)},
		{"fneg", "mov.f32 %r0, 2.5;\nneg.f32 %r29, %r0;", f(-2.5)},
		{"fabs", "mov.f32 %r0, -2.5;\nabs.f32 %r29, %r0;", f(2.5)},
		{"fmin", "mov.f32 %r0, -1.0;\nmov.f32 %r1, 2.0;\nmin.f32 %r29, %r0, %r1;", f(-1)},
		{"cvt u32→f32", "mov.u32 %r0, 7;\ncvt.f32.u32 %r29, %r0;", f(7)},
		{"cvt s32→f32", "mov.u32 %r0, -7;\ncvt.f32.s32 %r29, %r0;", f(-7)},
		{"cvt f32→u32", "mov.f32 %r0, 7.9;\ncvt.u32.f32 %r29, %r0;", 7},
		{"cvt f32→s32", "mov.f32 %r0, -7.9;\ncvt.s32.f32 %r29, %r0;", uint32(0xfffffff9)},
		{"cvt f32→u32 negative clamps", "mov.f32 %r0, -3.0;\ncvt.u32.f32 %r29, %r0;", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runScalar(t, c.body); got != c.want {
				t.Errorf("got %#x (%v), want %#x (%v)",
					got, math.Float32frombits(got), c.want, math.Float32frombits(c.want))
			}
		})
	}
}

// TestCvtFloatToIntSaturates pins cvt from f32 to the integer types to PTX's
// saturating semantics, the same on every platform: truncate toward zero,
// clamp to the destination's range, NaN converts to 0.
func TestCvtFloatToIntSaturates(t *testing.T) {
	cases := []struct {
		name     string
		in       float32
		s32, u32 uint32
	}{
		{"NaN", float32(math.NaN()), 0, 0},
		{"+Inf", float32(math.Inf(1)), math.MaxInt32, math.MaxUint32},
		{"-Inf", float32(math.Inf(-1)), 1 << 31, 0},
		{"3e9", 3e9, math.MaxInt32, 3000000000},
		{"-3e9", -3e9, 1 << 31, 0},
		{"-0.5", -0.5, 0, 0},
		{"2^31", 1 << 31, math.MaxInt32, 1 << 31},
		{"-2^31", -(1 << 31), 1 << 31, 0},
		{"-7.9", -7.9, uint32(0xfffffff9), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, to := range []struct {
				ty   string
				want uint32
			}{{"s32", c.s32}, {"u32", c.u32}} {
				body := fmt.Sprintf("mov.b32 %%r0, 0x%x;\ncvt.%s.f32 %%r29, %%r0;", math.Float32bits(c.in), to.ty)
				if got := runScalar(t, body); got != to.want {
					t.Errorf("cvt.%s.f32(%v) = %#x, want %#x", to.ty, c.in, got, to.want)
				}
			}
		})
	}
}

func TestComparisonSemantics(t *testing.T) {
	// Each case sets %r29 to 1 when the comparison holds.
	cases := []struct {
		name, body string
		want       uint32
	}{
		{"eq", "setp.eq.u32 %p0, 5, 5;\nselp.u32 %r29, 1, 0, %p0;", 1},
		{"ne", "setp.ne.u32 %p0, 5, 5;\nselp.u32 %r29, 1, 0, %p0;", 0},
		{"lt signed", "mov.u32 %r0, -1;\nsetp.lt.s32 %p0, %r0, 0;\nselp.u32 %r29, 1, 0, %p0;", 1},
		{"lt unsigned wrap", "mov.u32 %r0, -1;\nsetp.lt.u32 %p0, %r0, 0;\nselp.u32 %r29, 1, 0, %p0;", 0},
		{"le", "setp.le.u32 %p0, 5, 5;\nselp.u32 %r29, 1, 0, %p0;", 1},
		{"gt float", "mov.f32 %r0, 1.5;\nmov.f32 %r1, 1.0;\nsetp.gt.f32 %p0, %r0, %r1;\nselp.u32 %r29, 1, 0, %p0;", 1},
		{"ge", "setp.ge.u32 %p0, 4, 5;\nselp.u32 %r29, 1, 0, %p0;", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runScalar(t, c.body); got != c.want {
				t.Errorf("got %d, want %d", got, c.want)
			}
		})
	}
}

func TestAtomicVariants(t *testing.T) {
	cases := []struct {
		name string
		atom string
		init uint32
		arg  uint32
		want uint32 // final memory value
	}{
		{"add", "add", 10, 5, 15},
		{"min", "min", 10, 5, 5},
		{"max", "max", 10, 5, 10},
		{"exch", "exch", 10, 5, 5},
		{"or", "or", 0xf0, 0x0f, 0xff},
		{"and", "and", 0xf0, 0x3c, 0x30},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := `
.kernel at
.param .u32 target
.param .u32 arg
    ld.param.u32 %r0, [target];
    ld.param.u32 %r1, [arg];
    atom.global.` + c.atom + `.u32 %r2, [%r0], %r1;
    exit;
`
			prog, err := ptx.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			m := mem.New()
			target := m.Alloc(4)
			m.Write32(target, c.init)
			l := &Launch{Kernel: prog.Kernels[0], Grid: Dim1(1), Block: Dim1(1),
				Params: []uint32{target, c.arg}}
			if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
				t.Fatal(err)
			}
			if got := m.Read32(target); got != c.want {
				t.Errorf("memory = %d, want %d", got, c.want)
			}
		})
	}
}

func TestAtomicCAS(t *testing.T) {
	src := `
.kernel cas
.param .u32 target
    ld.param.u32 %r0, [target];
    atom.global.cas.u32 %r1, [%r0], 10, 99;    // matches: swap to 99
    atom.global.cas.u32 %r2, [%r0], 10, 55;    // no match: stays 99
    exit;
`
	prog, err := ptx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	target := m.Alloc(4)
	m.Write32(target, 10)
	l := &Launch{Kernel: prog.Kernels[0], Grid: Dim1(1), Block: Dim1(1), Params: []uint32{target}}
	if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := m.Read32(target); got != 99 {
		t.Errorf("memory = %d, want 99", got)
	}
}
