package kgen

import (
	"fmt"
	"strings"

	"critload/internal/dataflow"
	"critload/internal/isa"
	"critload/internal/ptx"
)

// RegisterBudget caps NumRegs × BlockX so every generated kernel fits an
// SM's 32768-register file: a kernel that cannot be scheduled livelocks the
// timing simulator, which is the one failure mode a differential harness
// must never construct on purpose.
const RegisterBudget = 30720

// Build lowers a program to PTX text, assembles it with ptx.Parse, and
// packages the kernel as a self-contained test case: kernel, launch
// geometry, seeded input arrays, and the ground-truth classification (Want)
// of every emitted global load. The ground truth falls out of the same
// reference analysis the lowering uses to pick operands, so it is correct by
// construction; dataflow.Classify must reproduce it exactly.
//
// Build expects a well-formed program (Generate or Repair output).
func Build(p *Prog) (*Case, error) {
	infos := analyze(p)
	var t text
	fmt.Fprintf(&t, ".kernel kgen_%016x\n", uint64(p.Seed))
	for _, name := range paramNames {
		fmt.Fprintf(&t, ".param .u32 %s\n", name)
	}
	useShared := false
	for _, op := range p.Ops {
		switch op.Kind {
		case KShStore, KShLoad, KBar:
			useShared = true
		}
	}
	if useShared {
		fmt.Fprintf(&t, ".shared %d\n", 4*p.BlockX)
	}

	nextReg, nextPred := 0, 0
	nr := func() int { r := nextReg; nextReg++; return r }
	np := func() int { r := nextPred; nextPred++; return r }

	// Prologue: thread coordinates, parameter bases, derived own-slot
	// addresses. Always emitted in full so register numbering is a pure
	// function of the op list.
	rTid, rCta, rNtid := nr(), nr(), nr()
	t.ins("mov.u32 %%r%d, %%tid.x", rTid)
	t.ins("mov.u32 %%r%d, %%ctaid.x", rCta)
	t.ins("mov.u32 %%r%d, %%ntid.x", rNtid)
	rGtid := nr()
	t.ins("mad.u32 %%r%d, %%r%d, %%r%d, %%r%d", rGtid, rCta, rNtid, rTid)
	bases := make([]int, len(paramNames))
	for i, name := range paramNames {
		bases[i] = nr()
		t.ins("ld.param.u32 %%r%d, [%s]", bases[i], name)
	}
	rData := [2]int{bases[0], bases[1]}
	rCBase, rOut, rScratch := bases[2], bases[3], bases[4]
	rOutSelf := nr()
	t.ins("mad.u32 %%r%d, %%r%d, %d, %%r%d", rOutSelf, rGtid, OutSlots*4, rOut)
	rShSelf := -1
	if useShared {
		rShSelf = nr()
		t.ins("shl.u32 %%r%d, %%r%d, 2", rShSelf, rTid)
	}

	regOf := make([]int, len(p.Ops))
	predOf := make([]int, len(p.Ops))
	for i := range regOf {
		regOf[i], predOf[i] = -1, -1
	}

	// validRef mirrors analyze's reference rule exactly: earlier live op of
	// the right kind whose scope encloses op i.
	validRef := func(i, j int, pred bool) bool {
		if j < 0 || j >= i || infos[j].dead {
			return false
		}
		if pred && !infos[j].pred || !pred && !infos[j].val {
			return false
		}
		return isPrefix(infos[j].path, infos[i].path)
	}
	aOpnd := func(i, ref int) isa.Operand {
		if validRef(i, ref, false) {
			return isa.Reg(regOf[ref])
		}
		return isa.Reg(rGtid)
	}
	bOpnd := func(i, ref int, imm uint32) isa.Operand {
		if validRef(i, ref, false) {
			return isa.Reg(regOf[ref])
		}
		return isa.Imm(int64(imm))
	}
	// calmOpnd is aOpnd for the slots that must not see a volatile value,
	// with fallback in place of the gtid.
	calmOpnd := func(i, ref int, fallback isa.Operand) isa.Operand {
		if validRef(i, ref, false) && !infos[ref].vol {
			return isa.Reg(regOf[ref])
		}
		return fallback
	}
	// refTaint reports the effective taint of an A-slot reference (the
	// fallback gtid is clean).
	refTaint := func(i, ref int) bool {
		return validRef(i, ref, false) && infos[ref].taint
	}

	want := map[int]dataflow.Class{}
	// emitIndexed lowers a masked, scaled array access:
	//   t1 = idx & mask; t2 = t1*4 + base; dst = ld.space [t2]
	emitIndexed := func(space isa.MemSpace, base int, mask uint32, idx isa.Operand) int {
		t1, t2, dst := nr(), nr(), nr()
		t.ins("and.u32 %%r%d, %v, %d", t1, idx, mask)
		t.ins("mad.u32 %%r%d, %%r%d, 4, %%r%d", t2, t1, base)
		t.ins("ld.%v.u32 %%r%d, [%%r%d]", space, dst, t2)
		return dst
	}

	// open is a KLoop or KIf awaiting its KEnd: a loop's head label,
	// counter, trip test predicate and trip count, or an if's skip label
	// (empty for an if lowered without a guard).
	type open struct {
		head, skip string
		cnt, pred  int
		trip       int64
	}
	var stack []open

	for i, op := range p.Ops {
		if infos[i].dead {
			continue
		}
		switch op.Kind {
		case KImm:
			regOf[i] = nr()
			t.ins("mov.u32 %%r%d, %d", regOf[i], op.Imm)
		case KAlu:
			regOf[i] = nr()
			t.ins("%v.u32 %%r%d, %v, %v", aluOps[normIdx(op.Alu, len(aluOps))], regOf[i],
				aOpnd(i, op.A), bOpnd(i, op.B, op.Imm))
		case KSelp:
			regOf[i] = nr()
			if validRef(i, op.P, true) {
				t.ins("selp.u32 %%r%d, %v, %v, %%p%d", regOf[i], aOpnd(i, op.A), bOpnd(i, op.B, op.Imm), predOf[op.P])
			} else {
				t.ins("add.u32 %%r%d, %v, %v", regOf[i], aOpnd(i, op.A), bOpnd(i, op.B, op.Imm))
			}
		case KGuard:
			regOf[i] = nr()
			alu := aluOps[normIdx(op.Alu, len(aluOps))]
			if validRef(i, op.P, true) {
				t.ins("mov.u32 %%r%d, %d", regOf[i], op.Imm>>1)
				t.ins("%s %v.u32 %%r%d, %v, %v", guard(predOf[op.P], op.Imm&1 == 1), alu, regOf[i],
					aOpnd(i, op.A), bOpnd(i, op.B, op.Imm))
			} else {
				t.ins("%v.u32 %%r%d, %v, %v", alu, regOf[i], aOpnd(i, op.A), bOpnd(i, op.B, op.Imm))
			}
		case KSetp:
			predOf[i] = np()
			t.ins("setp.%v.u32 %%p%d, %v, %v", cmpOps[normIdx(op.Alu, len(cmpOps))], predOf[i],
				aOpnd(i, op.A), bOpnd(i, op.B, op.Imm))
		case KLoadG:
			cls := dataflow.Deterministic
			if refTaint(i, op.A) {
				cls = dataflow.NonDeterministic
			}
			regOf[i] = emitIndexed(isa.SpaceGlobal, rData[op.Imm&1], uint32(p.DataWords-1), aOpnd(i, op.A))
			want[t.n-1] = cls
		case KLoadC:
			regOf[i] = emitIndexed(isa.SpaceConst, rCBase, ConstWords-1, aOpnd(i, op.A))
		case KLoadT:
			regOf[i] = emitIndexed(isa.SpaceTex, rData[op.Imm&1], uint32(p.DataWords-1), aOpnd(i, op.A))
		case KAtom:
			addr := calmOpnd(i, op.A, isa.Reg(rGtid))
			val := calmOpnd(i, op.B, isa.Imm(int64(op.Imm|1)))
			t1, t2 := nr(), nr()
			t.ins("and.u32 %%r%d, %v, %d", t1, addr, ScratchWords-1)
			t.ins("mad.u32 %%r%d, %%r%d, 4, %%r%d", t2, t1, rScratch)
			regOf[i] = nr()
			t.ins("atom.global.%v.u32 %%r%d, [%%r%d], %v", p.AtomOp, regOf[i], t2, val)
		case KShStore:
			t.ins("st.shared.u32 [%%r%d], %v", rShSelf, calmOpnd(i, op.A, isa.Reg(rGtid)))
		case KBar:
			t.ins("bar.sync")
		case KShLoad:
			t1, t2 := nr(), nr()
			t.ins("and.u32 %%r%d, %v, %d", t1, aOpnd(i, op.A), p.BlockX-1)
			t.ins("shl.u32 %%r%d, %%r%d, 2", t2, t1)
			regOf[i] = nr()
			t.ins("ld.shared.u32 %%r%d, [%%r%d]", regOf[i], t2)
		case KStore:
			t.ins("st.global.u32 %v, %v", isa.Mem(rOutSelf, int64(op.Imm%OutSlots)*4),
				calmOpnd(i, op.A, isa.Reg(rGtid)))
		case KLoop:
			// A counted loop with an immediate trip count is uniform across
			// lanes and always terminates.
			l := open{cnt: nr(), pred: np(), trip: int64(1 + op.Imm%MaxTrip)}
			l.head = t.fresh("loop")
			t.ins("mov.u32 %%r%d, 0", l.cnt)
			t.label(l.head)
			stack = append(stack, l)
		case KIf:
			var o open
			if validRef(i, op.P, true) && !infos[op.P].vol {
				// Branch around the body on the negation of its guard.
				o.skip = t.fresh("endif")
				t.ins("%s bra %s", guard(predOf[op.P], op.Imm&1 == 0), o.skip)
			}
			stack = append(stack, o)
		case KEnd:
			// analyze matches every live KEnd to a live KLoop/KIf and marks
			// unclosed ones dead, so the stack is never empty here and is
			// empty again at the end of the program.
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch {
			case o.head != "":
				t.ins("add.u32 %%r%d, %%r%d, 1", o.cnt, o.cnt)
				t.ins("setp.lt.u32 %%p%d, %%r%d, %d", o.pred, o.cnt, o.trip)
				t.ins("%s bra %s", guard(o.pred, false), o.head)
			case o.skip != "":
				t.label(o.skip)
			}
		}
	}
	t.ins("exit")

	prog, err := ptx.Parse(t.String())
	if err != nil {
		return nil, fmt.Errorf("kgen: lower seed %d: %w", p.Seed, err)
	}
	k := prog.Kernels[0]
	if k.NumRegs*p.BlockX > RegisterBudget {
		return nil, fmt.Errorf("kgen: seed %d: %d regs × %d threads exceeds the register budget",
			p.Seed, k.NumRegs, p.BlockX)
	}

	c := &Case{
		Name:      k.Name,
		Kernel:    k,
		Prog:      p,
		GridX:     p.GridX,
		BlockX:    p.BlockX,
		DataWords: p.DataWords,
		Data0:     seededWords(p.Seed, 0xd0, p.DataWords),
		Data1:     seededWords(p.Seed, 0xd1, p.DataWords),
		Const:     seededWords(p.Seed, 0xcc, ConstWords),
		Want:      want,
	}
	return c, nil
}

// paramNames is the fixed kernel parameter list: two data-array bases, the
// const-array base, the output base and the atomic scratch base.
var paramNames = []string{"data0", "data1", "cbase", "out", "scratch"}

// seededWords fills an input array deterministically from the program seed
// (splitmix64, truncated to 32 bits).
func seededWords(seed int64, salt uint64, n int) []uint32 {
	out := make([]uint32, n)
	x := uint64(seed) ^ (salt * 0x9e3779b97f4a7c15)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = uint32(z ^ (z >> 31))
	}
	return out
}

// text is a kernel being written as PTX text for ptx.Parse, one statement a
// line.
type text struct {
	strings.Builder
	n    int // instructions written: the index of the next one
	auto int // structured-control-flow labels handed out
}

// ins writes one instruction.
func (t *text) ins(format string, args ...any) {
	t.WriteString("    ")
	fmt.Fprintf(t, format, args...)
	t.WriteString(";\n")
	t.n++
}

// label places name on the next instruction.
func (t *text) label(name string) {
	t.WriteString(name)
	t.WriteString(":\n")
}

// fresh returns a new structured-control-flow label. The "__" prefix keeps
// it apart from the kernel's other identifiers.
func (t *text) fresh(kind string) string {
	t.auto++
	return fmt.Sprintf("__%s%d", kind, t.auto)
}

// guard is the prefix that predicates an instruction on %p<pred>, or on its
// negation.
func guard(pred int, negate bool) string {
	if negate {
		return fmt.Sprintf("@!%%p%d", pred)
	}
	return fmt.Sprintf("@%%p%d", pred)
}
