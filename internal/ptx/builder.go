package ptx

import (
	"fmt"

	"critload/internal/isa"
)

// Builder constructs kernels programmatically, as an alternative to the
// textual assembler. It is the natural front end for generated kernels
// (tests, fuzzing, tooling); Build resolves labels and validates exactly
// like Parse does.
type Builder struct {
	k       *Kernel
	pending []string
	err     error
	auto    int // counter for generated structured-control-flow labels
}

// NewBuilder starts a kernel with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{k: &Kernel{Name: name, Labels: map[string]int{}}}
}

// Param declares the next kernel parameter.
func (b *Builder) Param(name string, t isa.DType) *Builder {
	if b.err != nil {
		return b
	}
	if _, dup := b.k.ParamOffset(name); dup {
		b.err = fmt.Errorf("ptx: duplicate param %q", name)
		return b
	}
	b.k.Params = append(b.k.Params, ParamDecl{
		Name: name, Type: t, Offset: len(b.k.Params) * ParamSize,
	})
	return b
}

// Shared declares the kernel's static shared-memory size.
func (b *Builder) Shared(bytes int) *Builder {
	b.k.SharedBytes = bytes
	return b
}

// Label marks the next emitted instruction.
func (b *Builder) Label(name string) *Builder {
	if b.err != nil {
		return b
	}
	if _, dup := b.k.Labels[name]; dup {
		b.err = fmt.Errorf("ptx: duplicate label %q", name)
		return b
	}
	for _, p := range b.pending {
		if p == name {
			b.err = fmt.Errorf("ptx: duplicate label %q", name)
			return b
		}
	}
	b.pending = append(b.pending, name)
	return b
}

// emit appends an instruction, binding pending labels.
func (b *Builder) emit(in *isa.Instruction) *Builder {
	if b.err != nil {
		return b
	}
	idx := len(b.k.Insts)
	in.Index = idx
	in.PC = uint32(idx * isa.InstBytes)
	for _, l := range b.pending {
		b.k.Labels[l] = idx
	}
	b.pending = b.pending[:0]
	b.k.Insts = append(b.k.Insts, in)
	return b
}

// inst assembles a generic instruction.
func inst(op isa.Opcode, t isa.DType, dst isa.Operand, srcs ...isa.Operand) *isa.Instruction {
	in := &isa.Instruction{Op: op, Type: t, Dst: dst, Guard: isa.NoGuard, Targ: -1}
	copy(in.Srcs[:], srcs)
	in.NSrc = len(srcs)
	return in
}

// Op emits a typed ALU instruction (mov/add/mul/...; dst first).
func (b *Builder) Op(op isa.Opcode, t isa.DType, dst isa.Operand, srcs ...isa.Operand) *Builder {
	return b.emit(inst(op, t, dst, srcs...))
}

// GuardedOp emits an ALU instruction under a predicate guard.
func (b *Builder) GuardedOp(pred int, negate bool, op isa.Opcode, t isa.DType, dst isa.Operand, srcs ...isa.Operand) *Builder {
	in := inst(op, t, dst, srcs...)
	in.Guard = isa.PredGuard{Reg: pred, Negate: negate}
	return b.emit(in)
}

// Ld emits a load from the given state space.
func (b *Builder) Ld(space isa.MemSpace, t isa.DType, dst isa.Operand, addr isa.Operand) *Builder {
	in := inst(isa.OpLd, t, dst, addr)
	in.Space = space
	return b.emit(in)
}

// LdParam emits an ld.param of a declared parameter.
func (b *Builder) LdParam(dst isa.Operand, param string) *Builder {
	in := inst(isa.OpLd, isa.U32, dst, isa.Param(param, 0))
	in.Space = isa.SpaceParam
	return b.emit(in)
}

// St emits a store to the given state space.
func (b *Builder) St(space isa.MemSpace, t isa.DType, addr, val isa.Operand) *Builder {
	in := inst(isa.OpSt, t, isa.Operand{}, addr, val)
	in.Space = space
	return b.emit(in)
}

// Atom emits a global atomic.
func (b *Builder) Atom(op isa.AtomOp, t isa.DType, dst, addr isa.Operand, srcs ...isa.Operand) *Builder {
	in := inst(isa.OpAtom, t, dst, append([]isa.Operand{addr}, srcs...)...)
	in.Space = isa.SpaceGlobal
	in.Atom = op
	return b.emit(in)
}

// Setp emits a predicate-setting comparison.
func (b *Builder) Setp(cmp isa.CmpOp, t isa.DType, dst int, a, bb isa.Operand) *Builder {
	in := inst(isa.OpSetp, t, isa.PredReg(dst), a, bb)
	in.Cmp = cmp
	return b.emit(in)
}

// Bra emits an unconditional branch to a label.
func (b *Builder) Bra(label string) *Builder {
	in := inst(isa.OpBra, isa.U32, isa.Operand{})
	in.Label = label
	return b.emit(in)
}

// BraIf emits a branch guarded by predicate register pred (negated when
// negate is true).
func (b *Builder) BraIf(pred int, negate bool, label string) *Builder {
	in := inst(isa.OpBra, isa.U32, isa.Operand{})
	in.Label = label
	in.Guard = isa.PredGuard{Reg: pred, Negate: negate}
	return b.emit(in)
}

// Selp emits a select-by-predicate: dst = pred ? a : bb.
func (b *Builder) Selp(t isa.DType, dst, a, bb isa.Operand, pred int) *Builder {
	return b.emit(inst(isa.OpSelp, t, dst, a, bb, isa.PredReg(pred)))
}

// Cvt emits a type conversion from src type st to dst type t.
func (b *Builder) Cvt(t, st isa.DType, dst, src isa.Operand) *Builder {
	in := inst(isa.OpCvt, t, dst, src)
	in.SrcType = st
	return b.emit(in)
}

// Bar emits a bar.sync.
func (b *Builder) Bar() *Builder {
	return b.emit(inst(isa.OpBar, isa.U32, isa.Operand{}))
}

// Len returns the number of instructions emitted so far; the next emitted
// instruction gets this index. Generators use it to record per-instruction
// metadata (e.g. expected load classes) while building.
func (b *Builder) Len() int { return len(b.k.Insts) }

// autoLabel returns a fresh label for structured control flow. The "__"
// prefix keeps it a valid identifier (the generated kernel text must survive
// a Disassemble→Parse round trip); colliding user labels are caught by the
// usual duplicate-label check.
func (b *Builder) autoLabel(kind string) string {
	b.auto++
	return fmt.Sprintf("__%s%d", kind, b.auto)
}

// Loop is an open counted loop started by BeginLoop; End closes it.
type Loop struct {
	b    *Builder
	head string
	cnt  int
	pred int
	trip int64
}

// BeginLoop emits the header of a counted loop: counter register cnt is
// zeroed and the loop head label is placed. The loop body follows; End emits
// the increment, the trip-count test into predicate register pred, and the
// backward branch. Trip counts are immediates, so the loop is uniform across
// lanes and always terminates — exactly the reconverging-CFG shape a kernel
// generator needs.
func (b *Builder) BeginLoop(cnt, pred int, trip int64) *Loop {
	l := &Loop{b: b, head: b.autoLabel("loop"), cnt: cnt, pred: pred, trip: trip}
	b.Op(isa.OpMov, isa.U32, isa.Reg(cnt), isa.Imm(0))
	b.Label(l.head)
	return l
}

// End closes the loop: cnt++, compare against the trip count, branch back
// while cnt < trip.
func (l *Loop) End() *Builder {
	b := l.b
	b.Op(isa.OpAdd, isa.U32, isa.Reg(l.cnt), isa.Reg(l.cnt), isa.Imm(1))
	b.Setp(isa.CmpLT, isa.U32, l.pred, isa.Reg(l.cnt), isa.Imm(l.trip))
	return b.BraIf(l.pred, false, l.head)
}

// If is an open guarded block started by BeginIf; End closes it.
type If struct {
	b    *Builder
	skip string
}

// BeginIf emits a branch that skips the following block when the predicate
// does NOT hold (i.e. the block executes when pred==true, or pred==false
// with negate). End places the skip label on the next emitted instruction,
// so at least one instruction must follow End before Build.
func (b *Builder) BeginIf(pred int, negate bool) *If {
	i := &If{b: b, skip: b.autoLabel("endif")}
	// Branch around the body when the condition fails: the guard on the
	// branch is the negation of the block condition.
	b.BraIf(pred, !negate, i.skip)
	return i
}

// End closes the guarded block.
func (i *If) End() *Builder {
	return i.b.Label(i.skip)
}

// Exit emits an exit.
func (b *Builder) Exit() *Builder {
	return b.emit(inst(isa.OpExit, isa.U32, isa.Operand{}))
}

// Build resolves branch targets, computes register counts and validates the
// kernel.
func (b *Builder) Build() (*Kernel, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.pending) > 0 {
		return nil, fmt.Errorf("ptx: labels %v at end of kernel", b.pending)
	}
	k := b.k
	if err := k.finish(); err != nil {
		return nil, fmt.Errorf("ptx: %w", err)
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}
