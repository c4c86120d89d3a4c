package isa

import (
	"math"
	"slices"
	"testing"
	"unsafe"
)

func TestOpcodeProperties(t *testing.T) {
	sfu := []Opcode{OpSqrt, OpRsqrt, OpRcp, OpSin, OpCos, OpEx2, OpLg2}
	for _, o := range sfu {
		if !o.IsSFU() {
			t.Errorf("%v not SFU", o)
		}
	}
	for _, o := range []Opcode{OpAdd, OpMul, OpLd, OpBra} {
		if o.IsSFU() {
			t.Errorf("%v wrongly SFU", o)
		}
	}
	for _, o := range []Opcode{OpLd, OpSt, OpAtom} {
		if !o.IsMemory() {
			t.Errorf("%v not memory", o)
		}
	}
	for _, o := range []Opcode{OpBra, OpExit, OpRet} {
		if !o.IsControl() {
			t.Errorf("%v not control", o)
		}
	}
}

func TestDataLoadSpaces(t *testing.T) {
	taint := []MemSpace{SpaceGlobal, SpaceShared, SpaceLocal, SpaceTex}
	for _, s := range taint {
		if !s.IsDataLoadSpace() {
			t.Errorf("%v should taint", s)
		}
	}
	for _, s := range []MemSpace{SpaceParam, SpaceConst, SpaceNone} {
		if s.IsDataLoadSpace() {
			t.Errorf("%v should not taint", s)
		}
	}
}

func TestSpecialRegByName(t *testing.T) {
	for i := SpecialReg(0); i < numSRegs; i++ {
		got, ok := SpecialRegByName(i.String())
		if !ok || got != i {
			t.Errorf("round-trip failed for %v", i)
		}
	}
	if _, ok := SpecialRegByName("%bogus"); ok {
		t.Errorf("bogus name resolved")
	}
}

func TestInstructionAccessors(t *testing.T) {
	ld := &Instruction{Op: OpLd, Space: SpaceGlobal, Dst: Reg(3), Guard: NoGuard}
	ld.Srcs[0] = Mem(5, 8)
	ld.NSrc = 1
	if !ld.IsGlobalLoad() || ld.IsSharedLoad() || ld.IsParamLoad() {
		t.Errorf("load kind predicates wrong")
	}
	if ld.DefReg() != 3 {
		t.Errorf("DefReg = %d", ld.DefReg())
	}
	if r, ok := ld.AddrReg(); !ok || r != 5 {
		t.Errorf("AddrReg = %d,%v", r, ok)
	}
	var buf []int
	srcs := ld.SourceRegs(buf)
	if len(srcs) != 1 || srcs[0] != 5 {
		t.Errorf("SourceRegs = %v", srcs)
	}

	st := &Instruction{Op: OpSt, Space: SpaceGlobal, Guard: NoGuard}
	st.Srcs[0] = Mem(1, 0)
	st.Srcs[1] = Reg(2)
	st.NSrc = 2
	if st.DefReg() != -1 {
		t.Errorf("store DefReg = %d", st.DefReg())
	}
	srcs = st.SourceRegs(nil)
	if len(srcs) != 2 {
		t.Errorf("store SourceRegs = %v", srcs)
	}

	setp := &Instruction{Op: OpSetp, Dst: PredReg(1), Guard: NoGuard}
	if setp.DefReg() != -1 || setp.DefPred() != 1 {
		t.Errorf("setp defs = %d/%d", setp.DefReg(), setp.DefPred())
	}
}

func TestUnitMapping(t *testing.T) {
	cases := []struct {
		in   Instruction
		want FuncUnit
	}{
		{Instruction{Op: OpAdd, Type: U32}, UnitSP},
		{Instruction{Op: OpSin, Type: F32}, UnitSFU},
		{Instruction{Op: OpDiv, Type: F32}, UnitSFU},
		{Instruction{Op: OpDiv, Type: U32}, UnitSP},
		{Instruction{Op: OpLd, Space: SpaceGlobal}, UnitLDST},
		{Instruction{Op: OpAtom, Space: SpaceGlobal}, UnitLDST},
	}
	for _, c := range cases {
		if got := c.in.Unit(); got != c.want {
			t.Errorf("%v unit = %v, want %v", c.in.Op, got, c.want)
		}
	}
}

func TestGuardString(t *testing.T) {
	g := PredGuard{Reg: 2}
	if g.String() != "@%p2 " {
		t.Errorf("guard = %q", g.String())
	}
	g.Negate = true
	if g.String() != "@!%p2 " {
		t.Errorf("negated guard = %q", g.String())
	}
	if NoGuard.String() != "" || NoGuard.Active() {
		t.Errorf("NoGuard wrong")
	}
}

func TestDisassemblyFormats(t *testing.T) {
	in := &Instruction{Op: OpMad, Type: F32, Dst: Reg(0), Guard: NoGuard}
	in.Srcs[0], in.Srcs[1], in.Srcs[2] = Reg(1), Reg(2), FImm(1.5)
	in.NSrc = 3
	if got := in.String(); got != "mad.f32 %r0, %r1, %r2, 1.5" {
		t.Errorf("disasm = %q", got)
	}
	cvt := &Instruction{Op: OpCvt, Type: F32, SrcType: U32, Dst: Reg(0), Guard: NoGuard}
	cvt.Srcs[0] = Reg(1)
	cvt.NSrc = 1
	if got := cvt.String(); got != "cvt.f32.u32 %r0, %r1" {
		t.Errorf("cvt disasm = %q", got)
	}
	atom := &Instruction{Op: OpAtom, Space: SpaceGlobal, Atom: AtomMin, Type: U32, Dst: Reg(0), Guard: NoGuard}
	atom.Srcs[0], atom.Srcs[1] = Mem(1, 0), Reg(2)
	atom.NSrc = 2
	if got := atom.String(); got != "atom.global.min.u32 %r0, [%r1], %r2" {
		t.Errorf("atom disasm = %q", got)
	}
}

func TestOperandString(t *testing.T) {
	cases := []struct {
		o    Operand
		want string
	}{
		{Reg(7), "%r7"},
		{PredReg(1), "%p1"},
		{Imm(-4), "-4"},
		{FImm(0.5), "0.5"},
		{FImm(math.Copysign(0, -1)), "-0.0"},
		{SReg(SrTidX), "%tid.x"},
		{Mem(3, 8), "[%r3+8]"},
		{Mem(3, 0), "[%r3]"},
		{Mem(3, -4), "[%r3-4]"},
		{Mem(-1, 4096), "[4096]"},
		{Param("foo", 4), "[foo+4]"},
		{Param("foo", -8), "[foo-8]"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("operand %+v = %q, want %q", c.o, got, c.want)
		}
	}
	if f := FImm(-1.25).Float(); f != -1.25 {
		t.Errorf("FImm(-1.25).Float() = %v", f)
	}
}

// TestInstructionSize pins the static instruction's footprint on 64-bit
// hosts: a parse carves one per statement, so every byte is paid per
// instruction of every kernel the daemon accepts.
func TestInstructionSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Operand{}); got != 40 {
		t.Errorf("Operand is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(Instruction{}); got != 232 {
		t.Errorf("Instruction is %d bytes, want 232", got)
	}
}

// TestHazardOperands pins the scoreboard view of the operand shapes the issue
// stage meets: sources then destination for registers; destination, guard,
// then sources for predicates.
func TestHazardOperands(t *testing.T) {
	cases := []struct {
		name  string
		in    Instruction
		regs  []int32
		preds []int32
		unit  FuncUnit
	}{
		{"guarded mad", Instruction{Op: OpMad, Type: U32, Guard: PredGuard{Reg: 2}, Dst: Reg(7),
			Srcs: [3]Operand{Reg(1), Imm(4), Reg(3)}, NSrc: 3}, []int32{1, 3, 7}, []int32{2}, UnitSP},
		{"setp", Instruction{Op: OpSetp, Type: S32, Guard: NoGuard, Dst: PredReg(1),
			Srcs: [3]Operand{Reg(4), Reg(5)}, NSrc: 2}, []int32{4, 5}, []int32{1}, UnitSP},
		{"selp", Instruction{Op: OpSelp, Type: U32, Guard: NoGuard, Dst: Reg(0),
			Srcs: [3]Operand{Reg(1), Reg(2), PredReg(3)}, NSrc: 3}, []int32{1, 2, 0}, []int32{3}, UnitSP},
		{"store", Instruction{Op: OpSt, Space: SpaceGlobal, Guard: NoGuard,
			Srcs: [3]Operand{Mem(6, 8), Reg(9)}, NSrc: 2}, []int32{6, 9}, nil, UnitLDST},
		{"absolute load", Instruction{Op: OpLd, Space: SpaceShared, Guard: NoGuard, Dst: Reg(2),
			Srcs: [3]Operand{Mem(-1, 64)}, NSrc: 1}, []int32{2}, nil, UnitLDST},
		{"float div", Instruction{Op: OpDiv, Type: F32, Guard: NoGuard, Dst: Reg(1),
			Srcs: [3]Operand{Reg(1), FImm(2)}, NSrc: 2}, []int32{1, 1}, nil, UnitSFU},
		{"guarded branch", Instruction{Op: OpBra, Guard: PredGuard{Reg: 0, Negate: true}}, nil, []int32{0}, UnitSP},
	}
	for _, c := range cases {
		h := c.in.Hazard()
		if got := h.Regs[:h.NRegs]; !slices.Equal(got, c.regs) {
			t.Errorf("%s: regs %v, want %v", c.name, got, c.regs)
		}
		if got := h.Preds[:h.NPreds]; !slices.Equal(got, c.preds) {
			t.Errorf("%s: preds %v, want %v", c.name, got, c.preds)
		}
		if h.Unit != c.unit {
			t.Errorf("%s: unit %v, want %v", c.name, h.Unit, c.unit)
		}
	}
}
