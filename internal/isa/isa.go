// Package isa defines the PTX-subset instruction set used by the load
// classifier and the GPU simulator. The subset keeps the address-producing
// instruction classes the IISWC'15 paper keys on — ld.param, special
// registers (thread/CTA ids and dimensions), and the data-load family
// (ld.global / ld.shared / ld.local) — plus enough integer, floating-point
// and control-flow operations to express the fifteen benchmark kernels.
package isa

import (
	"fmt"
	"math"
	"strconv"
)

// Opcode enumerates the operations of the PTX subset.
type Opcode uint8

// Opcode values. Arithmetic opcodes are type-polymorphic: the instruction's
// DType selects integer versus floating-point semantics.
const (
	OpNop Opcode = iota
	OpMov
	OpAdd
	OpSub
	OpMul   // low 32 bits for integers
	OpMulHi // high 32 bits of the 64-bit product
	OpMad   // d = a*b + c (low 32 bits for integers)
	OpDiv
	OpRem
	OpMin
	OpMax
	OpAbs
	OpNeg
	OpAnd
	OpOr
	OpXor
	OpNot
	OpShl
	OpShr
	OpSetp // set predicate from comparison
	OpSelp // select by predicate
	OpCvt  // convert between types
	// Special-function-unit operations (transcendentals).
	OpSqrt
	OpRsqrt
	OpRcp
	OpSin
	OpCos
	OpEx2
	OpLg2
	// Memory operations.
	OpLd
	OpSt
	OpAtom
	// Control flow.
	OpBra
	OpBar // bar.sync
	OpExit
	OpRet

	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	OpNop: "nop", OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpMulHi: "mul.hi", OpMad: "mad", OpDiv: "div", OpRem: "rem",
	OpMin: "min", OpMax: "max", OpAbs: "abs", OpNeg: "neg",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShl: "shl", OpShr: "shr", OpSetp: "setp", OpSelp: "selp",
	OpCvt: "cvt", OpSqrt: "sqrt", OpRsqrt: "rsqrt", OpRcp: "rcp",
	OpSin: "sin", OpCos: "cos", OpEx2: "ex2", OpLg2: "lg2",
	OpLd: "ld", OpSt: "st", OpAtom: "atom",
	OpBra: "bra", OpBar: "bar.sync", OpExit: "exit", OpRet: "ret",
}

func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsSFU reports whether the opcode executes on the special function unit.
func (o Opcode) IsSFU() bool {
	switch o {
	case OpSqrt, OpRsqrt, OpRcp, OpSin, OpCos, OpEx2, OpLg2:
		return true
	}
	return false
}

// IsMemory reports whether the opcode is a memory operation (executes on the
// LD/ST unit).
func (o Opcode) IsMemory() bool {
	return o == OpLd || o == OpSt || o == OpAtom
}

// IsControl reports whether the opcode affects control flow.
func (o Opcode) IsControl() bool {
	return o == OpBra || o == OpExit || o == OpRet
}

// DType is the data type qualifier of an instruction (.u32, .s32, .f32, ...).
type DType uint8

// DType values.
const (
	U32 DType = iota
	S32
	F32
	B32 // untyped 32-bit bits
	Pred
	numDTypes
)

var dtypeNames = [numDTypes]string{U32: "u32", S32: "s32", F32: "f32", B32: "b32", Pred: "pred"}

func (t DType) String() string {
	if int(t) < len(dtypeNames) {
		return dtypeNames[t]
	}
	return fmt.Sprintf("t(%d)", uint8(t))
}

// Float reports whether the type has floating-point semantics.
func (t DType) Float() bool { return t == F32 }

// Signed reports whether the type has signed integer semantics.
func (t DType) Signed() bool { return t == S32 }

// MemSpace is the state space of a memory operation.
type MemSpace uint8

// Memory spaces. SpaceNone marks non-memory instructions.
const (
	SpaceNone MemSpace = iota
	SpaceGlobal
	SpaceShared
	SpaceLocal
	SpaceConst
	SpaceParam
	SpaceTex
	numSpaces
)

var spaceNames = [numSpaces]string{
	SpaceNone: "", SpaceGlobal: "global", SpaceShared: "shared",
	SpaceLocal: "local", SpaceConst: "const", SpaceParam: "param",
	SpaceTex: "tex",
}

func (s MemSpace) String() string {
	if int(s) < len(spaceNames) {
		return spaceNames[s]
	}
	return fmt.Sprintf("space(%d)", uint8(s))
}

// IsDataLoadSpace reports whether a load from this space taints dataflow as
// non-deterministic per the paper's classification rule (ld.global, ld.local,
// ld.shared, ld.tex make the consumer non-deterministic; ld.param and
// ld.const do not).
func (s MemSpace) IsDataLoadSpace() bool {
	switch s {
	case SpaceGlobal, SpaceShared, SpaceLocal, SpaceTex:
		return true
	}
	return false
}

// CmpOp is the comparison operator of a setp instruction.
type CmpOp uint8

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	numCmps
)

var cmpNames = [numCmps]string{CmpEQ: "eq", CmpNE: "ne", CmpLT: "lt", CmpLE: "le", CmpGT: "gt", CmpGE: "ge"}

func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// AtomOp is the operation of an atomic instruction.
type AtomOp uint8

// Atomic operations.
const (
	AtomAdd AtomOp = iota
	AtomMin
	AtomMax
	AtomExch
	AtomCAS
	AtomOr
	AtomAnd
	numAtoms
)

var atomNames = [numAtoms]string{AtomAdd: "add", AtomMin: "min", AtomMax: "max", AtomExch: "exch", AtomCAS: "cas", AtomOr: "or", AtomAnd: "and"}

func (a AtomOp) String() string {
	if int(a) < len(atomNames) {
		return atomNames[a]
	}
	return fmt.Sprintf("atom(%d)", uint8(a))
}

// SpecialReg identifies a read-only special register. All special registers
// are parameterized values in the paper's sense: they are fixed when a CTA is
// scheduled and never depend on loaded data.
type SpecialReg uint8

// Special registers.
const (
	SrTidX SpecialReg = iota
	SrTidY
	SrTidZ
	SrNTidX
	SrNTidY
	SrNTidZ
	SrCtaIdX
	SrCtaIdY
	SrCtaIdZ
	SrNCtaIdX
	SrNCtaIdY
	SrNCtaIdZ
	SrLaneId
	SrWarpId
	numSRegs
)

var sregNames = [numSRegs]string{
	SrTidX: "%tid.x", SrTidY: "%tid.y", SrTidZ: "%tid.z",
	SrNTidX: "%ntid.x", SrNTidY: "%ntid.y", SrNTidZ: "%ntid.z",
	SrCtaIdX: "%ctaid.x", SrCtaIdY: "%ctaid.y", SrCtaIdZ: "%ctaid.z",
	SrNCtaIdX: "%nctaid.x", SrNCtaIdY: "%nctaid.y", SrNCtaIdZ: "%nctaid.z",
	SrLaneId: "%laneid", SrWarpId: "%warpid",
}

func (r SpecialReg) String() string {
	if int(r) < len(sregNames) {
		return sregNames[r]
	}
	return fmt.Sprintf("%%sr(%d)", uint8(r))
}

// SpecialRegByName resolves a special-register name such as "%tid.x".
func SpecialRegByName(name string) (SpecialReg, bool) {
	for i, n := range sregNames {
		if n == name {
			return SpecialReg(i), true
		}
	}
	return 0, false
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	OpdNone  OperandKind = iota
	OpdReg               // general-purpose 32-bit register %rN
	OpdPred              // predicate register %pN
	OpdImm               // integer immediate
	OpdFImm              // floating-point immediate
	OpdSReg              // special register
	OpdMem               // memory operand [%rN + off]; Reg < 0 means absolute
	OpdParam             // parameter reference [name + off] (ld.param only)
)

// Operand is a single instruction operand.
type Operand struct {
	Kind  OperandKind
	SReg  SpecialReg // for OpdSReg
	Reg   int        // register index for OpdReg/OpdPred, base register for OpdMem (-1 = none)
	Imm   int64      // immediate value, byte offset for OpdMem/OpdParam, float64 bits for OpdFImm
	Param string     // parameter name for OpdParam
}

// Reg returns a register operand.
func Reg(i int) Operand { return Operand{Kind: OpdReg, Reg: i} }

// PredReg returns a predicate-register operand.
func PredReg(i int) Operand { return Operand{Kind: OpdPred, Reg: i} }

// Imm returns an integer immediate operand.
func Imm(v int64) Operand { return Operand{Kind: OpdImm, Imm: v} }

// FImm returns a floating-point immediate operand.
func FImm(v float64) Operand { return Operand{Kind: OpdFImm, Imm: int64(math.Float64bits(v))} }

// Float returns the value of a floating-point immediate operand.
func (o Operand) Float() float64 { return math.Float64frombits(uint64(o.Imm)) }

// SReg returns a special-register operand.
func SReg(r SpecialReg) Operand { return Operand{Kind: OpdSReg, SReg: r} }

// Mem returns a register-plus-offset memory operand.
func Mem(baseReg int, off int64) Operand {
	return Operand{Kind: OpdMem, Reg: baseReg, Imm: off}
}

// Param returns a parameter-space memory operand.
func Param(name string, off int64) Operand {
	return Operand{Kind: OpdParam, Reg: -1, Imm: off, Param: name}
}

func (o Operand) String() string {
	var buf [48]byte
	return string(o.appendTo(buf[:0]))
}

// appendTo appends the operand's assembly text to dst.
func (o Operand) appendTo(dst []byte) []byte {
	switch o.Kind {
	case OpdNone:
		return append(dst, '_')
	case OpdReg:
		return strconv.AppendInt(append(dst, "%r"...), int64(o.Reg), 10)
	case OpdPred:
		return strconv.AppendInt(append(dst, "%p"...), int64(o.Reg), 10)
	case OpdImm:
		return strconv.AppendInt(dst, o.Imm, 10)
	case OpdFImm:
		// %g prints negative zero as "-0", which would re-parse as the
		// integer 0 and lose the sign.
		if f := o.Float(); f == 0 && math.Signbit(f) {
			return append(dst, "-0.0"...)
		}
		return fmt.Appendf(dst, "%g", o.Float())
	case OpdSReg:
		return append(dst, o.SReg.String()...)
	case OpdMem:
		dst = append(dst, '[')
		if o.Reg < 0 {
			return append(strconv.AppendInt(dst, o.Imm, 10), ']')
		}
		dst = strconv.AppendInt(append(dst, "%r"...), int64(o.Reg), 10)
		return append(appendOffset(dst, o.Imm), ']')
	case OpdParam:
		return append(appendOffset(append(append(dst, '['), o.Param...), o.Imm), ']')
	}
	return append(dst, '?')
}

// appendOffset appends a nonzero byte offset with its sign ("+8", "-4").
func appendOffset(dst []byte, off int64) []byte {
	if off > 0 {
		dst = append(dst, '+')
	}
	if off != 0 {
		dst = strconv.AppendInt(dst, off, 10)
	}
	return dst
}

// PredGuard is the optional @%p / @!%p guard on an instruction.
type PredGuard struct {
	Reg    int // predicate register index; <0 means no guard
	Negate bool
}

// NoGuard is the absent predicate guard.
var NoGuard = PredGuard{Reg: -1}

// Active reports whether a guard is present.
func (g PredGuard) Active() bool { return g.Reg >= 0 }

func (g PredGuard) String() string {
	return string(g.appendTo(nil))
}

// appendTo appends the guard's assembly prefix ("@%p1 ", "@!%p1 ") to dst,
// or nothing when the guard is absent.
func (g PredGuard) appendTo(dst []byte) []byte {
	if !g.Active() {
		return dst
	}
	dst = append(dst, '@')
	if g.Negate {
		dst = append(dst, '!')
	}
	return append(strconv.AppendInt(append(dst, "%p"...), int64(g.Reg), 10), ' ')
}

// InstBytes is the architectural size of one instruction; PCs advance by
// this amount so per-PC statistics print as realistic byte addresses.
const InstBytes = 8

// Instruction is a single decoded PTX-subset instruction.
type Instruction struct {
	Index   int    // position within the kernel body
	PC      uint32 // Index * InstBytes
	Op      Opcode
	Type    DType
	SrcType DType    // cvt source type
	Space   MemSpace // ld/st/atom state space
	Cmp     CmpOp    // setp comparison
	Atom    AtomOp   // atom operation
	Guard   PredGuard
	Dst     Operand
	Srcs    [3]Operand
	NSrc    int
	Label   string // unresolved branch target
	Targ    int    // resolved branch target instruction index
}

// IsGlobalLoad reports whether the instruction is a load from global memory —
// the class of instructions the paper's study restricts its classification to.
func (in *Instruction) IsGlobalLoad() bool {
	return in.Op == OpLd && in.Space == SpaceGlobal
}

// IsSharedLoad reports whether the instruction is a load from shared memory.
func (in *Instruction) IsSharedLoad() bool {
	return in.Op == OpLd && in.Space == SpaceShared
}

// IsParamLoad reports whether the instruction is an ld.param.
func (in *Instruction) IsParamLoad() bool {
	return in.Op == OpLd && in.Space == SpaceParam
}

// WritesReg reports whether the opcode produces a general-register value.
// setp defines a predicate instead.
func (o Opcode) WritesReg() bool {
	switch o {
	case OpSt, OpBra, OpBar, OpExit, OpRet, OpNop, OpSetp:
		return false
	}
	return true
}

// DefReg returns the general register defined by the instruction, or -1.
func (in *Instruction) DefReg() int {
	if in.Op.WritesReg() && in.Dst.Kind == OpdReg {
		return in.Dst.Reg
	}
	return -1
}

// DefPred returns the predicate register defined, or -1.
func (in *Instruction) DefPred() int {
	if in.Op == OpSetp && in.Dst.Kind == OpdPred {
		return in.Dst.Reg
	}
	return -1
}

// SourceRegs appends the general-purpose source register indices of the
// instruction to dst and returns it. Memory operands contribute their base
// register; stores contribute the stored value register.
func (in *Instruction) SourceRegs(dst []int) []int {
	for i := 0; i < in.NSrc; i++ {
		s := in.Srcs[i]
		switch s.Kind {
		case OpdReg:
			dst = append(dst, s.Reg)
		case OpdMem:
			if s.Reg >= 0 {
				dst = append(dst, s.Reg)
			}
		}
	}
	return dst
}

// Hazard is the scoreboard view of a static instruction: the registers whose
// in-flight writes block its issue (RAW on the sources and the guard, WAW on
// the destinations) and the function unit it dispatches to. ptx resolves one
// per instruction when a kernel is assembled, so an issue stage that asks the
// same question many times need not re-walk the operand list.
type Hazard struct {
	Regs   [4]int32 // source registers, then the destination register
	Preds  [5]int32 // destination predicate, guard, predicate sources
	NRegs  uint8
	NPreds uint8
	Unit   FuncUnit
}

// Hazard derives the instruction's scoreboard operands.
func (in *Instruction) Hazard() Hazard {
	h := Hazard{Unit: in.Unit()}
	var buf [len(h.Regs)]int
	regs := in.SourceRegs(buf[:0])
	if d := in.DefReg(); d >= 0 {
		regs = append(regs, d)
	}
	for _, r := range regs {
		h.Regs[h.NRegs] = int32(r)
		h.NRegs++
	}
	addPred := func(p int) {
		h.Preds[h.NPreds] = int32(p)
		h.NPreds++
	}
	if d := in.DefPred(); d >= 0 {
		addPred(d)
	}
	if in.Guard.Active() {
		addPred(in.Guard.Reg)
	}
	for s := 0; s < in.NSrc; s++ {
		if in.Srcs[s].Kind == OpdPred {
			addPred(in.Srcs[s].Reg)
		}
	}
	return h
}

// AddrReg returns the base register of the instruction's memory operand and
// true, if the instruction is a memory operation with a register-based
// address.
func (in *Instruction) AddrReg() (int, bool) {
	if !in.Op.IsMemory() {
		return -1, false
	}
	var m Operand
	if in.Op == OpLd || in.Op == OpAtom {
		m = in.Srcs[0]
	} else { // store: [addr], value
		m = in.Srcs[0]
	}
	if m.Kind == OpdMem && m.Reg >= 0 {
		return m.Reg, true
	}
	return -1, false
}

// String disassembles the instruction.
func (in *Instruction) String() string {
	var buf [96]byte
	return string(in.appendTo(buf[:0]))
}

// appendTo appends the instruction's assembly text to dst.
func (in *Instruction) appendTo(b []byte) []byte {
	b = in.Guard.appendTo(b)
	b = append(b, in.Op.String()...)
	dotted := func(s string) { b = append(append(b, '.'), s...) }
	switch in.Op {
	case OpLd, OpSt, OpAtom:
		dotted(in.Space.String())
		if in.Op == OpAtom {
			dotted(in.Atom.String())
		}
		dotted(in.Type.String())
	case OpSetp:
		dotted(in.Cmp.String())
		dotted(in.Type.String())
	case OpCvt:
		dotted(in.Type.String())
		dotted(in.SrcType.String())
	case OpBra, OpBar, OpExit, OpRet, OpNop:
		// no type suffix
	default:
		dotted(in.Type.String())
	}
	sep := " "
	writeOpd := func(o Operand) {
		if o.Kind == OpdNone {
			return
		}
		b = o.appendTo(append(b, sep...))
		sep = ", "
	}
	writeOpd(in.Dst)
	for i := 0; i < in.NSrc; i++ {
		writeOpd(in.Srcs[i])
	}
	if in.Op == OpBra {
		b = append(append(b, sep...), in.Label...)
	}
	return b
}

// FuncUnit identifies the execution unit an instruction dispatches to.
type FuncUnit uint8

// Function units within an SM.
const (
	UnitSP FuncUnit = iota
	UnitSFU
	UnitLDST
	NumFuncUnits
)

var unitNames = [NumFuncUnits]string{UnitSP: "SP", UnitSFU: "SFU", UnitLDST: "LD/ST"}

func (u FuncUnit) String() string {
	if int(u) < len(unitNames) {
		return unitNames[u]
	}
	return fmt.Sprintf("unit(%d)", uint8(u))
}

// Unit returns the function unit the instruction executes on.
func (in *Instruction) Unit() FuncUnit {
	switch {
	case in.Op.IsMemory():
		return UnitLDST
	case in.Op.IsSFU():
		return UnitSFU
	case in.Op == OpDiv || in.Op == OpRem:
		if in.Type.Float() {
			return UnitSFU
		}
		return UnitSP
	default:
		return UnitSP
	}
}
