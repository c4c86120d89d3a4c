package isa

import "math"

// ExecOp selects the executor of a decoded instruction. It folds the opcode
// with whatever of the data type, conversion source type, state space and
// atomic operation changes the semantics, so an executor switches once per
// warp instruction and never re-inspects the instruction inside its lane
// loop. A setp selects on its operand type here and carries its comparison
// in Decoded.Cmp.
type ExecOp uint8

// Executors.
const (
	// ExInvalid marks an instruction the emulator cannot execute (for
	// example ld.local or a non-global atomic); executing it is an error.
	ExInvalid ExecOp = iota
	ExNop
	ExMov // also cvt between identical or integer types
	ExAdd
	ExAddF
	ExSub
	ExSubF
	ExMul
	ExMulF
	ExMulHiU
	ExMulHiS
	ExMad
	ExMadF
	ExDivU
	ExDivS
	ExDivF
	ExRemU
	ExRemS
	ExMinU
	ExMinS
	ExMinF
	ExMaxU
	ExMaxS
	ExMaxF
	ExAbs
	ExAbsF
	ExNeg
	ExNegF
	ExAnd
	ExOr
	ExXor
	ExNot
	ExShl
	ExShrU
	ExShrS
	ExCvtU32F // cvt.f32.{u32,b32}
	ExCvtS32F // cvt.f32.s32
	ExCvtFU32 // cvt.{u32,b32}.f32, saturating
	ExCvtFS32 // cvt.s32.f32, saturating
	ExSqrt
	ExRsqrt
	ExRcp
	ExSin
	ExCos
	ExEx2
	ExLg2
	ExSetpU
	ExSetpS
	ExSetpF
	ExSelp
	ExLdParam
	ExLdGlobal // ld.global, ld.const and ld.tex
	ExLdShared
	ExStGlobal
	ExStShared
	ExAtom
	ExBra
	ExBar
	ExExit // exit and ret
)

// SourceKind discriminates Source.
type SourceKind uint8

// Source kinds.
const (
	SrcImm   SourceKind = iota // Val holds the bits, the same in every lane
	SrcReg                     // general register Val
	SrcPred                    // predicate register Val, read as 0 or 1
	SrcSReg                    // special register SpecialReg(Val)
	SrcParam                   // parameter word Val, resolved by the kernel
)

// Source is one decoded source operand: where its 32 lane values come from.
// Integer and floating-point immediates are both already 32-bit patterns.
type Source struct {
	Kind SourceKind
	Val  uint32
}

// Decoded is the execution view of a static instruction, resolved once when
// a kernel is assembled. For memory operations Srcs[0] is the address base
// and Disp the byte displacement added to it; st takes its value from
// Srcs[1], atom its operands from Srcs[1] and Srcs[2]. NSrc counts the value
// sources an ALU executor gathers; selp's predicate is Srcs[2] outside that
// count, since it is read as a lane mask.
type Decoded struct {
	Exec ExecOp
	Cmp  CmpOp // setp comparison
	NSrc uint8
	Dst  int32 // destination register (predicate for setp); -1 when none
	Srcs [3]Source
	Disp uint32
}

// Decode resolves the instruction's executor and operands. An ld.param's
// source is left as an unresolved SrcParam: the parameter layout belongs to
// the kernel, which fills in the word index.
func (in *Instruction) Decode() Decoded {
	d := Decoded{Exec: in.execOp(), Cmp: in.Cmp, NSrc: uint8(in.NSrc), Dst: int32(in.DefReg())}
	if in.Op == OpSetp {
		d.Dst = int32(in.DefPred())
	}
	for s := 0; s < in.NSrc; s++ {
		d.Srcs[s] = valueSource(in.Srcs[s])
	}
	switch in.Op {
	case OpLd, OpSt, OpAtom:
		if in.Op == OpLd && in.Space == SpaceParam {
			d.Srcs[0] = Source{Kind: SrcParam}
			break
		}
		// The address operand: a base register plus displacement, or an
		// absolute address when there is no base register.
		a := in.Srcs[0]
		if a.Reg < 0 {
			d.Srcs[0] = Source{Kind: SrcImm, Val: uint32(a.Imm)}
		} else {
			d.Srcs[0] = Source{Kind: SrcReg, Val: uint32(a.Reg)}
			d.Disp = uint32(a.Imm)
		}
	case OpSelp:
		d.NSrc = 2
		if in.Srcs[2].Kind != OpdPred {
			// A non-predicate selector never selects the first source.
			d.Srcs[2] = Source{Kind: SrcImm}
		}
	}
	return d
}

// valueSource decodes a non-memory source operand. Operand kinds that carry
// no value read as zero.
func valueSource(o Operand) Source {
	switch o.Kind {
	case OpdReg:
		return Source{Kind: SrcReg, Val: uint32(o.Reg)}
	case OpdPred:
		return Source{Kind: SrcPred, Val: uint32(o.Reg)}
	case OpdImm:
		return Source{Kind: SrcImm, Val: uint32(o.Imm)}
	case OpdFImm:
		return Source{Kind: SrcImm, Val: math.Float32bits(float32(o.Float()))}
	case OpdSReg:
		return Source{Kind: SrcSReg, Val: uint32(o.SReg)}
	}
	return Source{Kind: SrcImm}
}

// byType picks the unsigned, signed or floating-point variant of an op.
func byType(t DType, u, s, f ExecOp) ExecOp {
	switch {
	case t.Float():
		return f
	case t.Signed():
		return s
	}
	return u
}

func (in *Instruction) execOp() ExecOp {
	t := in.Type
	switch in.Op {
	case OpNop:
		return ExNop
	case OpMov:
		return ExMov
	case OpAdd:
		return byType(t, ExAdd, ExAdd, ExAddF)
	case OpSub:
		return byType(t, ExSub, ExSub, ExSubF)
	case OpMul:
		return byType(t, ExMul, ExMul, ExMulF)
	case OpMulHi:
		return byType(t, ExMulHiU, ExMulHiS, ExMulHiU)
	case OpMad:
		return byType(t, ExMad, ExMad, ExMadF)
	case OpDiv:
		return byType(t, ExDivU, ExDivS, ExDivF)
	case OpRem:
		return byType(t, ExRemU, ExRemS, ExRemU)
	case OpMin:
		return byType(t, ExMinU, ExMinS, ExMinF)
	case OpMax:
		return byType(t, ExMaxU, ExMaxS, ExMaxF)
	case OpAbs:
		return byType(t, ExAbs, ExAbs, ExAbsF)
	case OpNeg:
		return byType(t, ExNeg, ExNeg, ExNegF)
	case OpAnd:
		return ExAnd
	case OpOr:
		return ExOr
	case OpXor:
		return ExXor
	case OpNot:
		return ExNot
	case OpShl:
		return ExShl
	case OpShr:
		return byType(t, ExShrU, ExShrS, ExShrU)
	case OpCvt:
		switch src := in.SrcType; {
		case t == src:
			return ExMov
		case t.Float():
			return byType(src, ExCvtU32F, ExCvtS32F, ExCvtU32F)
		case src.Float():
			return byType(t, ExCvtFU32, ExCvtFS32, ExCvtFU32)
		}
		return ExMov
	case OpSqrt:
		return ExSqrt
	case OpRsqrt:
		return ExRsqrt
	case OpRcp:
		return ExRcp
	case OpSin:
		return ExSin
	case OpCos:
		return ExCos
	case OpEx2:
		return ExEx2
	case OpLg2:
		return ExLg2
	case OpSetp:
		return byType(t, ExSetpU, ExSetpS, ExSetpF)
	case OpSelp:
		return ExSelp
	case OpLd:
		switch in.Space {
		case SpaceParam:
			return ExLdParam
		case SpaceGlobal, SpaceConst, SpaceTex:
			return ExLdGlobal
		case SpaceShared:
			return ExLdShared
		}
	case OpSt:
		switch in.Space {
		case SpaceGlobal:
			return ExStGlobal
		case SpaceShared:
			return ExStShared
		}
	case OpAtom:
		if in.Space == SpaceGlobal && in.Atom < numAtoms {
			return ExAtom
		}
	case OpBra:
		return ExBra
	case OpBar:
		return ExBar
	case OpExit, OpRet:
		return ExExit
	}
	return ExInvalid
}
