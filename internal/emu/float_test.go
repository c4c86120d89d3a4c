package emu

import (
	"math"
	"runtime"
	"testing"

	"critload/internal/mem"
	"critload/internal/ptx"
)

// floatInputs are the operand classes every float executor is pinned on:
// +0, -0, +Inf, -Inf, a quiet NaN, the smallest subnormal, 1.0 and a large
// argument (1e30). Integer-source conversions read the same bit patterns as
// integers.
var floatInputs = [8]uint32{
	0x00000000, 0x80000000, 0x7f800000, 0xff800000,
	0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca,
}

// floatSentinel fills the destination row before each execution, so a lane
// outside the exec mask that gets written shows.
const floatSentinel = 0xdeadbeef

// floatLanes are the operand layouts one pinned instruction runs under: in
// layout r, lane l reads a = floatInputs[i], b = floatInputs[j] and
// c = floatInputs[(i+j)%8], with i = l%8 and j = l/8 + 4r, so the two
// layouts cover every (a, b) pair.
func floatLanes(r, l int) (i, j int) { return l % 8, l/8 + 4*r }

// floatExec runs inst (destination %r3, sources %r0-%r2) through Execute
// under mask, once per layout, and returns %r3 after each.
func floatExec(t *testing.T, inst string, mask uint32) (out [2]lanes) {
	t.Helper()
	prog, err := ptx.Parse(".kernel f\n    " + inst + ";\n    exit;\n")
	if err != nil {
		t.Fatalf("%s: %v", inst, err)
	}
	l := &Launch{Kernel: prog.Kernels[0], Grid: Dim1(1), Block: Dim1(WarpSize)}
	env := &Env{Mem: mem.New(), Launch: l}
	w := NewCTA(l, 0).Warps[0]
	var step Step
	for r := range out {
		for lane := range WarpSize {
			i, j := floatLanes(r, lane)
			w.row(0)[lane] = floatInputs[i]
			w.row(1)[lane] = floatInputs[j]
			w.row(2)[lane] = floatInputs[(i+j)%8]
			w.row(3)[lane] = floatSentinel
		}
		w.at(0, mask)
		if err := w.Execute(env, &step); err != nil {
			t.Fatalf("%s: %v", inst, err)
		}
		out[r] = *w.row(3)
	}
	return out
}

// floatUnary pins each one-source float executor: want[i] is the result for
// floatInputs[i]. arch marks the rows ROADMAP item 8 names as GOARCH-
// dependent (Go's math package, which arm64 may fuse).
var floatUnary = []struct {
	inst string
	arch bool
	want [8]uint32
}{
	{"rcp.f32 %r3, %r0", false, [8]uint32{0x7f800000, 0xff800000, 0x00000000, 0x80000000, 0x7fc00000, 0x7f800000, 0x3f800000, 0x0da24260}},
	{"sqrt.f32 %r3, %r0", false, [8]uint32{0x00000000, 0x80000000, 0x7f800000, 0xffc00000, 0x7fc00000, 0x1a3504f3, 0x3f800000, 0x58635fa9}},
	{"rsqrt.f32 %r3, %r0", false, [8]uint32{0x7f800000, 0xff800000, 0x00000000, 0xffc00000, 0x7fc00000, 0x64b504f3, 0x3f800000, 0x26901d7d}},
	{"sin.f32 %r3, %r0", true, [8]uint32{0x00000000, 0x80000000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x00000001, 0x3f576aa4, 0xbf4a89b0}},
	{"cos.f32 %r3, %r0", true, [8]uint32{0x3f800000, 0x3f800000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x3f800000, 0x3f0a5140, 0xbf1c9222}},
	{"ex2.f32 %r3, %r0", true, [8]uint32{0x3f800000, 0x3f800000, 0x7f800000, 0x00000000, 0x7fc00000, 0x3f800000, 0x40000000, 0x7f800000}},
	{"lg2.f32 %r3, %r0", true, [8]uint32{0xff800000, 0xff800000, 0x7f800000, 0x7fc00000, 0x7fc00000, 0xc3150000, 0x00000000, 0x42c750d1}},
	{"abs.f32 %r3, %r0", false, [8]uint32{0x00000000, 0x00000000, 0x7f800000, 0x7f800000, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca}},
	{"neg.f32 %r3, %r0", false, [8]uint32{0x80000000, 0x00000000, 0xff800000, 0x7f800000, 0xffc00000, 0x80000001, 0xbf800000, 0xf149f2ca}},
	{"cvt.f32.s32 %r3, %r0", false, [8]uint32{0x00000000, 0xcf000000, 0x4eff0000, 0xcb000000, 0x4eff8000, 0x3f800000, 0x4e7e0000, 0x4ee293e6}},
	{"cvt.f32.u32 %r3, %r0", false, [8]uint32{0x00000000, 0x4f000000, 0x4eff0000, 0x4f7f8000, 0x4eff8000, 0x3f800000, 0x4e7e0000, 0x4ee293e6}},
	{"cvt.s32.f32 %r3, %r0", false, [8]uint32{0x00000000, 0x00000000, 0x7fffffff, 0x80000000, 0x00000000, 0x00000000, 0x00000001, 0x7fffffff}},
	{"cvt.u32.f32 %r3, %r0", false, [8]uint32{0x00000000, 0x00000000, 0xffffffff, 0x00000000, 0x00000000, 0x00000000, 0x00000001, 0xffffffff}},
}

// floatBinary pins each two- and three-source float executor: want[i][j] is
// the result for a = floatInputs[i], b = floatInputs[j] (and mad's
// c = floatInputs[(i+j)%8]).
var floatBinary = []struct {
	inst string
	arch bool
	want [8][8]uint32
}{
	{"add.f32 %r3, %r0, %r1", false, [8][8]uint32{
		{0x00000000, 0x00000000, 0x7f800000, 0xff800000, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca},
		{0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca},
		{0x7f800000, 0x7f800000, 0x7f800000, 0xffc00000, 0x7fc00000, 0x7f800000, 0x7f800000, 0x7f800000},
		{0xff800000, 0xff800000, 0xffc00000, 0xff800000, 0x7fc00000, 0xff800000, 0xff800000, 0xff800000},
		{0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000},
		{0x00000001, 0x00000001, 0x7f800000, 0xff800000, 0x7fc00000, 0x00000002, 0x3f800000, 0x7149f2ca},
		{0x3f800000, 0x3f800000, 0x7f800000, 0xff800000, 0x7fc00000, 0x3f800000, 0x40000000, 0x7149f2ca},
		{0x7149f2ca, 0x7149f2ca, 0x7f800000, 0xff800000, 0x7fc00000, 0x7149f2ca, 0x7149f2ca, 0x71c9f2ca},
	}},
	{"sub.f32 %r3, %r0, %r1", false, [8][8]uint32{
		{0x00000000, 0x00000000, 0xff800000, 0x7f800000, 0x7fc00000, 0x80000001, 0xbf800000, 0xf149f2ca},
		{0x80000000, 0x00000000, 0xff800000, 0x7f800000, 0x7fc00000, 0x80000001, 0xbf800000, 0xf149f2ca},
		{0x7f800000, 0x7f800000, 0xffc00000, 0x7f800000, 0x7fc00000, 0x7f800000, 0x7f800000, 0x7f800000},
		{0xff800000, 0xff800000, 0xff800000, 0xffc00000, 0x7fc00000, 0xff800000, 0xff800000, 0xff800000},
		{0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000},
		{0x00000001, 0x00000001, 0xff800000, 0x7f800000, 0x7fc00000, 0x00000000, 0xbf800000, 0xf149f2ca},
		{0x3f800000, 0x3f800000, 0xff800000, 0x7f800000, 0x7fc00000, 0x3f800000, 0x00000000, 0xf149f2ca},
		{0x7149f2ca, 0x7149f2ca, 0xff800000, 0x7f800000, 0x7fc00000, 0x7149f2ca, 0x7149f2ca, 0x00000000},
	}},
	{"mul.f32 %r3, %r0, %r1", false, [8][8]uint32{
		{0x00000000, 0x80000000, 0xffc00000, 0xffc00000, 0x7fc00000, 0x00000000, 0x00000000, 0x00000000},
		{0x80000000, 0x00000000, 0xffc00000, 0xffc00000, 0x7fc00000, 0x80000000, 0x80000000, 0x80000000},
		{0xffc00000, 0xffc00000, 0x7f800000, 0xff800000, 0x7fc00000, 0x7f800000, 0x7f800000, 0x7f800000},
		{0xffc00000, 0xffc00000, 0xff800000, 0x7f800000, 0x7fc00000, 0xff800000, 0xff800000, 0xff800000},
		{0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000},
		{0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00000, 0x00000000, 0x00000001, 0x26c9f2ca},
		{0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca},
		{0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00000, 0x26c9f2ca, 0x7149f2ca, 0x7f800000},
	}},
	{"div.f32 %r3, %r0, %r1", false, [8][8]uint32{
		{0xffc00000, 0xffc00000, 0x00000000, 0x80000000, 0x7fc00000, 0x00000000, 0x00000000, 0x00000000},
		{0xffc00000, 0xffc00000, 0x80000000, 0x00000000, 0x7fc00000, 0x80000000, 0x80000000, 0x80000000},
		{0x7f800000, 0xff800000, 0xffc00000, 0xffc00000, 0x7fc00000, 0x7f800000, 0x7f800000, 0x7f800000},
		{0xff800000, 0x7f800000, 0xffc00000, 0xffc00000, 0x7fc00000, 0xff800000, 0xff800000, 0xff800000},
		{0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000},
		{0x7f800000, 0xff800000, 0x00000000, 0x80000000, 0x7fc00000, 0x3f800000, 0x00000001, 0x00000000},
		{0x7f800000, 0xff800000, 0x00000000, 0x80000000, 0x7fc00000, 0x7f800000, 0x3f800000, 0x0da24260},
		{0x7f800000, 0xff800000, 0x00000000, 0x80000000, 0x7fc00000, 0x7f800000, 0x7149f2ca, 0x3f800000},
	}},
	{"min.f32 %r3, %r0, %r1", false, [8][8]uint32{
		{0x00000000, 0x80000000, 0x00000000, 0xff800000, 0x7fc00000, 0x00000000, 0x00000000, 0x00000000},
		{0x00000000, 0x80000000, 0x80000000, 0xff800000, 0x7fc00000, 0x80000000, 0x80000000, 0x80000000},
		{0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca},
		{0xff800000, 0xff800000, 0xff800000, 0xff800000, 0x7fc00000, 0xff800000, 0xff800000, 0xff800000},
		{0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca},
		{0x00000000, 0x80000000, 0x00000001, 0xff800000, 0x7fc00000, 0x00000001, 0x00000001, 0x00000001},
		{0x00000000, 0x80000000, 0x3f800000, 0xff800000, 0x7fc00000, 0x00000001, 0x3f800000, 0x3f800000},
		{0x00000000, 0x80000000, 0x7149f2ca, 0xff800000, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca},
	}},
	{"max.f32 %r3, %r0, %r1", false, [8][8]uint32{
		{0x00000000, 0x80000000, 0x7f800000, 0x00000000, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca},
		{0x00000000, 0x80000000, 0x7f800000, 0x80000000, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca},
		{0x7f800000, 0x7f800000, 0x7f800000, 0x7f800000, 0x7fc00000, 0x7f800000, 0x7f800000, 0x7f800000},
		{0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca},
		{0x00000000, 0x80000000, 0x7f800000, 0xff800000, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca},
		{0x00000001, 0x00000001, 0x7f800000, 0x00000001, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca},
		{0x3f800000, 0x3f800000, 0x7f800000, 0x3f800000, 0x7fc00000, 0x3f800000, 0x3f800000, 0x7149f2ca},
		{0x7149f2ca, 0x7149f2ca, 0x7f800000, 0x7149f2ca, 0x7fc00000, 0x7149f2ca, 0x7149f2ca, 0x7149f2ca},
	}},
	{"mad.f32 %r3, %r0, %r1, %r2", true, [8][8]uint32{
		{0x00000000, 0x80000000, 0xffc00000, 0xffc00000, 0x7fc00000, 0x00000001, 0x3f800000, 0x7149f2ca},
		{0x80000000, 0x7f800000, 0xffc00000, 0xffc00000, 0x7fc00000, 0x3f800000, 0x7149f2ca, 0x00000000},
		{0xffc00000, 0xffc00000, 0x7fc00000, 0xff800000, 0x7fc00000, 0x7f800000, 0x7f800000, 0x7f800000},
		{0xffc00000, 0xffc00000, 0xff800000, 0x7f800000, 0x7fc00000, 0xff800000, 0xff800000, 0xffc00000},
		{0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000},
		{0x00000001, 0x3f800000, 0x7f800000, 0xff800000, 0x7fc00000, 0x7f800000, 0xff800000, 0x7fc00000},
		{0x3f800000, 0x7149f2ca, 0x7f800000, 0xff800000, 0x7fc00000, 0xff800000, 0x7fc00000, 0x7149f2ca},
		{0x7149f2ca, 0x00000000, 0x7f800000, 0xffc00000, 0x7fc00000, 0x7fc00000, 0x7149f2ca, 0x7f800000},
	}},
}

// TestFloatExecutorsPinned runs every float executor through Execute at a
// full and a half mask and compares each executed lane with the pinned bits,
// taken on amd64; the half mask must also leave the other lanes untouched.
// An invalid operation's NaN is the platform's default NaN, negative on
// amd64 and positive on arm64, so off amd64 a pinned NaN matches any NaN.
func TestFloatExecutorsPinned(t *testing.T) {
	amd64 := runtime.GOARCH == "amd64"
	isNaN := func(v uint32) bool { return math.IsNaN(float64(math.Float32frombits(v))) }
	check := func(t *testing.T, inst string, arch bool, want func(i, j int) uint32) {
		if arch && !amd64 {
			t.Skipf("%s is pinned on amd64; on %s its bits are ROADMAP item 8's open question", inst, runtime.GOARCH)
		}
		for _, mask := range []uint32{FullMask, 0x0000ffff} {
			out := floatExec(t, inst, mask)
			for r := range out {
				for lane, got := range out[r] {
					w := uint32(floatSentinel)
					if mask>>lane&1 != 0 {
						w = want(floatLanes(r, lane))
					}
					if got != w && (amd64 || !isNaN(got) || !isNaN(w)) {
						i, j := floatLanes(r, lane)
						t.Errorf("%s mask %#x lane %d (a %#x, b %#x): got %#08x, want %#08x",
							inst, mask, lane+WarpSize*r, floatInputs[i], floatInputs[j], got, w)
					}
				}
			}
		}
	}
	for _, c := range floatUnary {
		t.Run(c.inst, func(t *testing.T) {
			check(t, c.inst, c.arch, func(i, _ int) uint32 { return c.want[i] })
		})
	}
	for _, c := range floatBinary {
		t.Run(c.inst, func(t *testing.T) {
			check(t, c.inst, c.arch, func(i, j int) uint32 { return c.want[i][j] })
		})
	}
}
