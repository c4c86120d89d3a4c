package emu

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"critload/internal/isa"
	"critload/internal/mem"
	"critload/internal/ptx"
)

// This file cross-checks the warp-level SIMT execution (decoded lane-inner
// executors, reconvergence stack, predication, divergence) against an
// independent per-thread scalar interpreter on randomly generated kernels.
// For kernels without shared memory, barriers or cross-thread memory
// communication, executing each thread in isolation must produce exactly the
// same architectural results as the lock-step warp execution.
//
// The reference shares no semantics code with the emulator: it reads the
// undecoded instructions and spells out every operation below.

// scalarThread interprets a kernel for one thread, sequentially.
type scalarThread struct {
	t     *testing.T
	k     *ptx.Kernel
	l     *Launch
	cta   Dim3
	tid   Dim3
	lane  int
	warp  int
	regs  []uint32
	preds []bool
	out   map[uint32]uint32 // global stores
}

func (s *scalarThread) sreg(r isa.SpecialReg) uint32 {
	switch r {
	case isa.SrTidX:
		return uint32(s.tid.X)
	case isa.SrTidY:
		return uint32(s.tid.Y)
	case isa.SrTidZ:
		return uint32(s.tid.Z)
	case isa.SrNTidX:
		return uint32(s.l.Block.X)
	case isa.SrNTidY:
		return uint32(s.l.Block.Y)
	case isa.SrNTidZ:
		return uint32(s.l.Block.Z)
	case isa.SrCtaIdX:
		return uint32(s.cta.X)
	case isa.SrCtaIdY:
		return uint32(s.cta.Y)
	case isa.SrCtaIdZ:
		return uint32(s.cta.Z)
	case isa.SrNCtaIdX:
		return uint32(s.l.Grid.X)
	case isa.SrNCtaIdY:
		return uint32(s.l.Grid.Y)
	case isa.SrNCtaIdZ:
		return uint32(s.l.Grid.Z)
	case isa.SrLaneId:
		return uint32(s.lane)
	case isa.SrWarpId:
		return uint32(s.warp)
	}
	s.t.Fatalf("reference: unknown special register %v", r)
	return 0
}

func (s *scalarThread) value(o isa.Operand) uint32 {
	switch o.Kind {
	case isa.OpdReg:
		return s.regs[o.Reg]
	case isa.OpdImm:
		return uint32(o.Imm)
	case isa.OpdFImm:
		return math.Float32bits(float32(o.Float()))
	case isa.OpdSReg:
		return s.sreg(o.SReg)
	case isa.OpdPred:
		if s.preds[o.Reg] {
			return 1
		}
		return 0
	}
	s.t.Fatalf("reference: operand %v has no value", o)
	return 0
}

// Reference semantics, written independently of exec.go.

func f32(v uint32) float32    { return math.Float32frombits(v) }
func bitsOf(f float32) uint32 { return math.Float32bits(f) }

// refLess orders a and b as the instruction type reads them.
func refLess(t isa.DType, a, b uint32) bool {
	switch t {
	case isa.F32:
		return f32(a) < f32(b)
	case isa.S32:
		return int32(a) < int32(b)
	}
	return a < b
}

func refEqual(t isa.DType, a, b uint32) bool {
	if t == isa.F32 {
		return f32(a) == f32(b)
	}
	return a == b
}

// refSetp is the PTX-subset comparison: gt holds when neither lt nor eq
// does and ge when lt does not, so NaN operands satisfy ne, gt and ge.
func refSetp(c isa.CmpOp, t isa.DType, a, b uint32) bool {
	lt, eq := refLess(t, a, b), refEqual(t, a, b)
	switch c {
	case isa.CmpEQ:
		return eq
	case isa.CmpNE:
		return !eq
	case isa.CmpLT:
		return lt
	case isa.CmpLE:
		return lt || eq
	case isa.CmpGT:
		return !lt && !eq
	case isa.CmpGE:
		return !lt
	}
	panic(fmt.Sprintf("reference: comparison %v", c))
}

// refMin returns a unless b is strictly smaller (b on a NaN comparison).
func refMin(t isa.DType, a, b uint32) uint32 {
	if refLess(t, a, b) {
		return a
	}
	return b
}

func refMax(t isa.DType, a, b uint32) uint32 {
	if refLess(t, b, a) {
		return a
	}
	return b
}

// refCvt converts between 32-bit types; float-to-integer conversions
// truncate, saturate at the destination's range and send NaN to zero.
func refCvt(dst, src isa.DType, v uint32) uint32 {
	switch {
	case dst == src:
		return v
	case dst == isa.F32 && src == isa.S32:
		return bitsOf(float32(float64(int32(v))))
	case dst == isa.F32:
		return bitsOf(float32(float64(v)))
	case src == isa.F32:
		f := math.Trunc(float64(f32(v)))
		lo, hi := 0.0, float64(math.MaxUint32)
		if dst == isa.S32 {
			lo, hi = math.MinInt32, math.MaxInt32
		}
		switch {
		case math.IsNaN(f):
			return 0
		case f < lo:
			f = lo
		case f > hi:
			f = hi
		}
		if dst == isa.S32 {
			return uint32(int32(f))
		}
		return uint32(f)
	}
	return v
}

func (s *scalarThread) alu(in *isa.Instruction) uint32 {
	t := in.Type
	a := s.value(in.Srcs[0])
	var b, c uint32
	if in.NSrc > 1 {
		b = s.value(in.Srcs[1])
	}
	if in.NSrc > 2 {
		c = s.value(in.Srcs[2])
	}
	fl := t == isa.F32
	switch in.Op {
	case isa.OpMov:
		return a
	case isa.OpAdd:
		if fl {
			return bitsOf(f32(a) + f32(b))
		}
		return a + b
	case isa.OpSub:
		if fl {
			return bitsOf(f32(a) - f32(b))
		}
		return a - b
	case isa.OpMul:
		if fl {
			return bitsOf(f32(a) * f32(b))
		}
		return a * b
	case isa.OpMad:
		if fl {
			return bitsOf(f32(a)*f32(b) + f32(c))
		}
		return a*b + c
	case isa.OpDiv:
		switch {
		case fl:
			return bitsOf(f32(a) / f32(b))
		case b == 0:
			return 0
		case t == isa.S32:
			return uint32(int32(a) / int32(b))
		}
		return a / b
	case isa.OpRem:
		switch {
		case b == 0:
			return 0
		case t == isa.S32:
			return uint32(int32(a) % int32(b))
		}
		return a % b
	case isa.OpMin:
		return refMin(t, a, b)
	case isa.OpMax:
		return refMax(t, a, b)
	case isa.OpAbs:
		if fl {
			return bitsOf(float32(math.Abs(float64(f32(a)))))
		}
		if int32(a) < 0 {
			return -a
		}
		return a
	case isa.OpNeg:
		if fl {
			return bitsOf(-f32(a))
		}
		return -a
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpNot:
		return ^a
	case isa.OpShl:
		return a << (b % 32)
	case isa.OpShr:
		if t == isa.S32 {
			return uint32(int32(a) >> (b % 32))
		}
		return a >> (b % 32)
	case isa.OpCvt:
		return refCvt(t, in.SrcType, a)
	}
	s.t.Fatalf("reference: no semantics for %s", in)
	return 0
}

// run executes up to maxSteps instructions; it returns false on overrun.
func (s *scalarThread) run(m *mem.Memory, maxSteps int) bool {
	pc := 0
	for steps := 0; steps < maxSteps; steps++ {
		if pc >= len(s.k.Insts) {
			return true
		}
		in := s.k.Insts[pc]
		if in.Guard.Active() && s.preds[in.Guard.Reg] == in.Guard.Negate {
			pc++
			continue
		}
		switch in.Op {
		case isa.OpExit, isa.OpRet:
			return true
		case isa.OpBra:
			pc = in.Targ
			continue
		case isa.OpSetp:
			s.preds[in.Dst.Reg] = refSetp(in.Cmp, in.Type, s.value(in.Srcs[0]), s.value(in.Srcs[1]))
		case isa.OpSelp:
			if s.preds[in.Srcs[2].Reg] {
				s.regs[in.Dst.Reg] = s.value(in.Srcs[0])
			} else {
				s.regs[in.Dst.Reg] = s.value(in.Srcs[1])
			}
		case isa.OpLd:
			switch in.Space {
			case isa.SpaceParam:
				var off int
				for _, p := range s.k.Params {
					if p.Name == in.Srcs[0].Param {
						off = p.Offset
					}
				}
				s.regs[in.Dst.Reg] = s.l.Params[(off+int(in.Srcs[0].Imm))/4]
			case isa.SpaceGlobal:
				addr := s.regs[in.Srcs[0].Reg] + uint32(in.Srcs[0].Imm)
				// Threads only read their initial input region in generated
				// kernels, so the pristine memory is the right source.
				s.regs[in.Dst.Reg] = m.Read32(addr)
			default:
				s.t.Fatalf("reference: no semantics for %s", in)
			}
		case isa.OpSt:
			if in.Space != isa.SpaceGlobal {
				s.t.Fatalf("reference: no semantics for %s", in)
			}
			addr := s.regs[in.Srcs[0].Reg] + uint32(in.Srcs[0].Imm)
			s.out[addr] = s.value(in.Srcs[1])
		default:
			s.regs[in.Dst.Reg] = s.alu(in)
		}
		pc++
	}
	return false
}

// Generated kernels keep the global thread id in %r0, the thread's input
// word in %r1, an integer hash in %r2 and a float accumulator in %r6; %r7 is
// scratch. Predicates %p4..%p7 are set and read anywhere, including across
// divergent regions, so lanes that skipped a setp must keep their old bit.
//
// Beyond its own input and output words, a thread reaches four regions at
// fixed addresses, laid out so that a warp's words cross 64 KiB pages. Lane
// l of warp w (w = ctaid*8 + warpid) uses:
//   - %r17 = diffLoads - 256 + 8*l, read at displacements 0-7 and 128-135:
//     pristine words the scalar reference reads too. At 5, 6 and 7, which
//     every epilogue reads, lane 31's word lies at offset PageSize-3, -2 and
//     -1 of the page its warp's other words are in; from 128 up the warp's
//     words span both pages.
//   - %r22 = diffZeros + 4*gtid: zeros, from a mapped page for gtid < 16 and
//     an unmapped one above, so one warp spans the two and the others lie
//     in one page or the other.
//   - %r18 = diffStores + w*PageSize - 256 + 8*l, written at a displacement
//     d of 5, 6 or 7 drawn per kernel (lane 31's word at offset PageSize-3,
//     -2 or -1, the warp's other words in the page below) and at d+124
//     (spanning two pages). The two words of a lane, and of the lanes,
//     never overlap, so the stores' order across lanes cannot matter.
//   - %r19 = diffSlots + 4*(w*4 + l%4): one word that every fourth lane of
//     the warp writes in the epilogue, where all of the warp's lanes store
//     at once and the last exec lane must win.
const (
	diffLoads  = 4 * mem.PageSize
	diffZeros  = 5*mem.PageSize - 64
	diffSlots  = 7 * mem.PageSize
	diffStores = 8 * mem.PageSize
)

type kernelGen struct {
	rng    *rand.Rand
	b      strings.Builder
	label  int
	stDisp int // the kernel's store displacement off %r18
}

// store is a global store of the hash to one of the thread's two words off
// %r18, under an optional guard.
func (g *kernelGen) store() {
	d := g.stDisp + 124*g.rng.Intn(2)
	g.emit("%sst.global.u32 [%%r18+%d], %%r2;", g.guard(), d)
}

func (g *kernelGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

func (g *kernelGen) pred() string { return fmt.Sprintf("%%p%d", 4+g.rng.Intn(4)) }

// guard is an optional guard predicate, either sense.
func (g *kernelGen) guard() string {
	switch g.rng.Intn(3) {
	case 0:
		return ""
	case 1:
		return "@" + g.pred() + " "
	}
	return "@!" + g.pred() + " "
}

func (g *kernelGen) intImm() string {
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%d", g.rng.Intn(64)-32)
	case 1:
		return fmt.Sprintf("0x%x", g.rng.Uint32())
	}
	return fmt.Sprintf("%d", g.rng.Intn(1<<16))
}

func (g *kernelGen) floatImm() string {
	return g.pick("1.5", "-0.25", "3e9", "-3e9", "2147483648.0", "0.0", "-7.75", "1e-3")
}

// intSrc is an integer source: a register, a special register, a predicate
// read as 0/1, or an immediate of either kind.
func (g *kernelGen) intSrc() string {
	switch g.rng.Intn(10) {
	case 0, 1, 2:
		return g.pick("%r0", "%r1", "%r2")
	case 3:
		return g.pick("%tid.x", "%tid.y", "%ntid.x", "%ntid.y", "%ctaid.x", "%laneid", "%warpid")
	case 4:
		return g.pred()
	case 5:
		return g.floatImm()
	}
	return g.intImm()
}

// floatSrc is a float source: the accumulator, raw input bits (any class,
// NaN included), a converted value, or an immediate of either kind.
func (g *kernelGen) floatSrc() string {
	switch g.rng.Intn(8) {
	case 0, 1, 2:
		return "%r6"
	case 3:
		return "%r1"
	case 4:
		return "%r7"
	case 5:
		return g.intImm()
	}
	return g.floatImm()
}

func (g *kernelGen) emit(format string, args ...any) { fmt.Fprintf(&g.b, format+"\n", args...) }

func (g *kernelGen) newLabel() string { g.label++; return fmt.Sprintf("L%d", g.label) }

func (g *kernelGen) block(depth int) {
	n := 1 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		choice := g.rng.Intn(11)
		if depth >= 3 && choice >= 9 {
			choice = g.rng.Intn(9)
		}
		switch choice {
		case 0:
			op := g.pick("add.u32", "sub.u32", "mul.u32", "xor.b32", "or.b32", "and.b32", "shl.b32",
				"shr.u32", "shr.s32", "div.s32", "rem.s32", "min.s32", "max.s32",
				"div.u32", "rem.u32", "min.u32", "max.u32")
			if g.rng.Intn(2) == 0 {
				g.emit("    %s %%r2, %%r2, %s;", op, g.intSrc())
			} else {
				g.emit("    %s %%r2, %s, %%r2;", op, g.intSrc())
			}
			g.emit("    add.u32 %%r2, %%r2, %d;", g.rng.Intn(97))
		case 1:
			op := g.pick("add.f32", "sub.f32", "mul.f32", "div.f32")
			g.emit("    %s %%r6, %s, %s;", op, g.floatSrc(), g.floatSrc())
		case 2:
			srcs := []string{g.floatSrc(), g.floatSrc(), g.floatSrc()}
			srcs[g.rng.Intn(3)] = "%r6"
			g.emit("    mad.f32 %%r6, %s, %s, %s;", srcs[0], srcs[1], srcs[2])
			g.emit("    mad.u32 %%r2, %s, %s, %%r2;", g.intSrc(), g.intSrc())
		case 3:
			g.emit("    %s %%r2, %%r2;", g.pick("abs.s32", "neg.s32", "not.b32"))
			g.emit("    %s %%r6, %%r6;", g.pick("abs.f32", "neg.f32"))
		case 4:
			// Conversions in both directions, folded into both accumulators.
			g.emit("    %s %%r7, %s;", g.pick("cvt.f32.s32", "cvt.f32.u32"), g.pick("%r2", "%r1", "%r0"))
			g.emit("    add.f32 %%r6, %%r6, %%r7;")
			g.emit("    %s %%r7, %s;", g.pick("cvt.s32.f32", "cvt.u32.f32"), g.pick("%r6", "%r1", "%r7"))
			g.emit("    xor.b32 %%r2, %%r2, %%r7;")
		case 5:
			// A comparison of any kind and type, then a use of its predicate
			// as a select, as a value, or as a guard.
			ty := g.pick("u32", "s32", "f32")
			cmp := g.pick("eq", "ne", "lt", "le", "gt", "ge")
			p := g.pred()
			a, b := g.intSrc(), g.intSrc()
			if ty == "f32" {
				a, b = g.floatSrc(), g.floatSrc()
			}
			g.emit("    setp.%s.%s %s, %s, %s;", cmp, ty, p, a, b)
			switch g.rng.Intn(3) {
			case 0:
				g.emit("    selp.b32 %%r2, %s, %s, %s;", g.intSrc(), g.pick("%r2", g.intSrc()), g.pred())
			case 1:
				g.emit("    add.u32 %%r2, %%r2, %s;", g.pred())
			default:
				g.emit("@%s%s xor.b32 %%r2, %%r2, %s;", g.pick("", "!"), g.pred(), g.intSrc())
			}
		case 6:
			// Predicated instruction pair.
			g.emit("    setp.lt.u32 %%p0, %%r1, %d;", g.rng.Intn(1<<20))
			g.emit("@%%p0 add.u32 %%r2, %%r2, %d;", g.rng.Intn(1<<10))
			g.emit("@!%%p0 xor.b32 %%r2, %%r2, %d;", g.rng.Intn(1<<10))
		case 7:
			g.emit("    mov.u32 %%r7, %s;", g.pick("%laneid", "%warpid", "%tid.y", "%ntid.y"))
			g.emit("    mad.u32 %%r2, %%r7, %d, %%r2;", 1+g.rng.Intn(1000))
		case 8:
			// Global memory beyond the thread's own words (see diffLoads).
			switch g.rng.Intn(3) {
			case 0:
				g.emit("    ld.global.u32 %%r23, [%%r17+%d];", g.rng.Intn(8)+128*g.rng.Intn(2))
				g.emit("    xor.b32 %%r2, %%r2, %%r23;")
			case 1:
				g.emit("    ld.global.u32 %%r23, [%%r22];")
				g.emit("    xor.b32 %%r2, %%r2, %%r23;")
			default:
				g.store()
			}
		case 9:
			// Data-dependent if/else diamond.
			thenL, joinL := g.newLabel(), g.newLabel()
			g.emit("    and.b32 %%r3, %%r1, %d;", uint32(1)<<g.rng.Intn(8))
			g.emit("    setp.ne.u32 %%p1, %%r3, 0;")
			g.emit("@%%p1 bra %s;", thenL)
			g.block(depth + 1)
			g.emit("    bra %s;", joinL)
			g.emit("%s:", thenL)
			g.block(depth + 1)
			g.emit("%s:", joinL)
		default:
			// Bounded divergent loop: trip count = (input & 7) + 1.
			loopL := g.newLabel()
			g.emit("    and.b32 %%r4, %%r1, 7;")
			g.emit("    add.u32 %%r4, %%r4, 1;")
			g.emit("    mov.u32 %%r5, 0;")
			g.emit("%s:", loopL)
			g.emit("    add.u32 %%r2, %%r2, %%r5;")
			g.block(depth + 1)
			g.emit("    add.u32 %%r5, %%r5, 1;")
			g.emit("    setp.lt.u32 %%p2, %%r5, %%r4;")
			g.emit("@%%p2 bra %s;", loopL)
		}
	}
}

// genDivergentKernel builds a random kernel with nested data-dependent
// branches, bounded loops, predicated instructions, every ALU executor and
// global accesses across pages, ending with a store of both accumulators to
// out[2*gtid] and of the hash to the thread's straddling and shared words.
func genDivergentKernel(rng *rand.Rand) string {
	g := &kernelGen{rng: rng, stDisp: 5 + rng.Intn(3)}
	g.b.WriteString(".kernel diffk\n.param .u32 out\n.param .u32 in\n")
	// gtid = ctaid.x * (ntid.x*ntid.y) + tid.y*ntid.x + tid.x under a 2-D block.
	g.b.WriteString(`    mov.u32 %r10, %ctaid.x;
    mov.u32 %r11, %ntid.x;
    mul.u32 %r15, %r11, %ntid.y;
    mad.u32 %r16, %tid.y, %r11, %tid.x;
    mad.u32 %r0, %r10, %r15, %r16;
    shl.b32 %r12, %r0, 2;
    ld.param.u32 %r13, [in];
    add.u32 %r14, %r13, %r12;
    ld.global.u32 %r1, [%r14];
    mov.u32 %r2, 0;
    cvt.f32.u32 %r6, %r1;
    mov.f32 %r7, 0.5;
`)
	g.emit(`    shl.b32 %%r24, %%laneid, 3;
    add.u32 %%r17, %%r24, %d;
    mad.u32 %%r25, %%ctaid.x, 8, %%warpid;
    mad.u32 %%r18, %%r25, %d, %%r24;
    add.u32 %%r18, %%r18, %d;
    shl.b32 %%r24, %%r0, 2;
    add.u32 %%r22, %%r24, %d;
    and.b32 %%r24, %%laneid, 3;
    mad.u32 %%r24, %%r25, 4, %%r24;
    shl.b32 %%r24, %%r24, 2;
    add.u32 %%r19, %%r24, %d;`, diffLoads-256, mem.PageSize, diffStores-256, diffZeros, diffSlots)
	g.block(0)
	g.emit(`    ld.global.u32 %%r23, [%%r17+5];
    xor.b32 %%r2, %%r2, %%r23;
    ld.global.u32 %%r23, [%%r17+6];
    add.u32 %%r2, %%r2, %%r23;
    ld.global.u32 %%r23, [%%r17+7];
    xor.b32 %%r2, %%r2, %%r23;
    ld.global.u32 %%r23, [%%r17+134];
    add.u32 %%r2, %%r2, %%r23;
    ld.global.u32 %%r23, [%%r22];
    xor.b32 %%r2, %%r2, %%r23;
    ld.param.u32 %%r20, [out];
    shl.b32 %%r12, %%r0, 3;
    add.u32 %%r21, %%r20, %%r12;
    st.global.u32 [%%r21], %%r2;
    st.global.u32 [%%r21+4], %%r6;
%sst.global.u32 [%%r19], %%r2;`, g.guard())
	g.store()
	g.store()
	g.emit("    exit;")
	return g.b.String()
}

// diffBlocks are 2-D block shapes whose last warp is partial.
var diffBlocks = []Dim3{Dim2(12, 4), Dim2(20, 3), Dim2(8, 5)}

// checkSIMTMatchesScalar runs one generated kernel both ways and reports
// every differing output word.
func checkSIMTMatchesScalar(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	src := genDivergentKernel(rng)
	prog, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("generated kernel does not parse: %v\n%s", err, src)
	}
	k := prog.Kernels[0]

	const nCTA = 2
	block := diffBlocks[rng.Intn(len(diffBlocks))]
	perCTA := block.Count()
	nThreads := nCTA * perCTA
	input := make([]uint32, nThreads)
	for i := range input {
		input[i] = rng.Uint32()
	}

	loads := make([]uint32, 512/4)
	for i := range loads {
		loads[i] = rng.Uint32()
	}

	// SIMT execution.
	m := mem.New()
	inB := m.AllocU32s(input)
	outB := m.Alloc(uint32(8 * nThreads))
	m.WriteU32s(diffLoads-256, loads)
	l := &Launch{Kernel: k, Grid: Dim1(nCTA), Block: block, Params: []uint32{outB, inB}}
	if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
		t.Fatalf("SIMT run: %v\n%s", err, src)
	}

	// Scalar reference, thread by thread against pristine inputs. Its
	// stores are replayed in thread order into exp, so the highest thread
	// storing a word wins, as the last exec lane does in a warp.
	ref := mem.New()
	if ref.AllocU32s(input) != inB {
		t.Fatalf("allocator divergence")
	}
	ref.WriteU32s(diffLoads-256, loads)
	exp := mem.New()
	ok := true
	for gtid := 0; gtid < nThreads; gtid++ {
		lin := gtid % perCTA
		st := &scalarThread{
			t: t, k: k, l: l,
			cta:   Dim3{X: gtid / perCTA},
			tid:   Dim3{X: lin % block.X, Y: lin / block.X},
			lane:  lin % WarpSize,
			warp:  lin / WarpSize,
			regs:  make([]uint32, k.NumRegs),
			preds: make([]bool, k.NumPreds),
			out:   map[uint32]uint32{},
		}
		if !st.run(ref, 100000) {
			t.Fatalf("scalar reference did not terminate\n%s", src)
		}
		for addr, v := range st.out {
			exp.Write32(addr, v)
		}
		for w := uint32(0); w < 2; w++ {
			addr := outB + uint32(8*gtid) + 4*w
			got, want := m.Read32(addr), st.out[addr]
			// Which NaN operand's payload survives an arithmetic op is up to
			// the compiler's operand order, so the float word (w == 1)
			// compares NaN-ness, not payload.
			bothNaN := w == 1 && f32(got) != f32(got) && f32(want) != f32(want)
			if got != want && !bothNaN {
				t.Logf("thread %d word %d: SIMT %#x != scalar %#x (seed %d)\n%s", gtid, w, got, want, seed, src)
				ok = false
			}
		}
	}
	// The straddling and shared words, byte by byte, so a write outside the
	// exec lanes or across the wrong page shows too.
	check := func(base, n uint32) {
		for a := base; a < base+n; a++ {
			if got, want := m.Read8(a), exp.Read8(a); got != want {
				t.Logf("byte %#x: SIMT %#x != scalar %#x (seed %d)\n%s", a, got, want, seed, src)
				ok = false
			}
		}
	}
	check(diffSlots, 4*4*8*nCTA)
	for cta := range nCTA {
		for w := range (perCTA + WarpSize - 1) / WarpSize {
			check(diffStores+uint32(cta*8+w)*mem.PageSize-256, 8*WarpSize+136)
		}
	}
	return ok
}

// quickConfig draws the seeds of the quick check; the fuzz target starts
// from the same seeds.
func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(27))}
}

// TestQuickSIMTMatchesScalarReference executes random divergent kernels both
// on the warp-level emulator and thread-by-thread on the scalar reference,
// comparing every output element.
func TestQuickSIMTMatchesScalarReference(t *testing.T) {
	f := func(seed int64) bool { return checkSIMTMatchesScalar(t, seed) }
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}

// FuzzSIMTMatchesScalarReference explores kernel seeds beyond the quick
// check's: go test -fuzz FuzzSIMTMatchesScalarReference ./internal/emu.
func FuzzSIMTMatchesScalarReference(f *testing.F) {
	cfg := quickConfig()
	cfg.MaxCount = 8
	if err := quick.Check(func(seed int64) bool { f.Add(seed); return true }, cfg); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if !checkSIMTMatchesScalar(t, seed) {
			t.Fail()
		}
	})
}
