package emu

import (
	"fmt"
	"math"

	"critload/internal/isa"
)

// Execute runs the warp's next instruction against env, updating register
// state, memory, and the SIMT stack, and overwrites *step with the execution
// record (the caller owns the Step and may reuse one across calls). Calling
// Execute on a finished warp is a programming error and returns an error.
func (w *Warp) Execute(env *Env, step *Step) error {
	if len(w.stack) == 0 {
		return fmt.Errorf("emu: execute on finished warp")
	}
	top := &w.stack[len(w.stack)-1]
	pc := top.pc
	in := w.kernel.Insts[pc]
	active := top.mask

	exec := active
	if in.Guard.Active() {
		bits := w.preds[in.Guard.Reg]
		if in.Guard.Negate {
			bits = ^bits
		}
		exec &= bits
	}

	*step = Step{Inst: in, Active: active, Exec: exec}
	w.InstructionsExecuted++

	switch in.Op {
	case isa.OpBra:
		w.execBranch(in, pc, active, exec)
	case isa.OpExit, isa.OpRet:
		w.execExit(exec) // removes exec lanes from every stack entry
		// Guard-false lanes, if any, continue at the next instruction.
		if top.mask != 0 {
			top.pc++
		}
		w.normalize()
		step.Exited = w.Done()
		return nil
	case isa.OpBar:
		w.AtBarrier = true
		step.Barrier = true
		top.pc++
	default:
		var err error
		switch in.Op {
		case isa.OpLd:
			err = w.execLoad(env, in, exec, step)
		case isa.OpSt:
			err = w.execStore(env, in, exec, step)
		case isa.OpAtom:
			err = w.execAtomic(env, in, exec, step)
		default:
			w.execALU(env, in, exec)
		}
		if err != nil {
			return fmt.Errorf("emu: %s (PC 0x%x): %w", in, in.PC, err)
		}
		top.pc++
	}
	w.normalize()
	return nil
}

func (w *Warp) execBranch(in *isa.Instruction, pc int, active, exec uint32) {
	taken := exec
	fall := active &^ taken
	top := &w.stack[len(w.stack)-1]
	switch {
	case taken == 0:
		top.pc = pc + 1
	case fall == 0:
		top.pc = in.Targ
	default:
		rpc := w.kernel.ReconvergencePC(pc)
		// Current entry becomes the reconvergence continuation with the
		// union mask; execute the two sides under fresh entries.
		top.pc = rpc
		w.stack = append(w.stack,
			stackEntry{pc: pc + 1, rpc: rpc, mask: fall},
			stackEntry{pc: in.Targ, rpc: rpc, mask: taken},
		)
	}
}

func (w *Warp) execExit(exec uint32) {
	for i := range w.stack {
		w.stack[i].mask &^= exec
	}
}

func (w *Warp) execLoad(env *Env, in *isa.Instruction, exec uint32, step *Step) error {
	src := in.Srcs[0]
	dst := in.Dst.Reg
	switch in.Space {
	case isa.SpaceParam:
		off, ok := w.kernel.ParamOffset(src.Param)
		if !ok {
			return fmt.Errorf("unknown param %q", src.Param)
		}
		byteOff := off + int(src.Imm)
		if byteOff%4 != 0 || byteOff/4 >= len(env.Launch.Params) {
			return fmt.Errorf("param access [%s+%d] out of range", src.Param, src.Imm)
		}
		v := env.Launch.Params[byteOff/4]
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) != 0 {
				w.SetReg(dst, lane, v)
			}
		}
		return nil
	case isa.SpaceGlobal, isa.SpaceConst, isa.SpaceTex:
		step.Mem = in.Space != isa.SpaceConst
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) == 0 {
				continue
			}
			addr := w.effAddr(src, lane)
			step.Addrs[lane] = addr
			w.SetReg(dst, lane, env.Mem.Read32(addr))
		}
		return nil
	case isa.SpaceShared:
		step.Mem = true
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) == 0 {
				continue
			}
			addr := w.effAddr(src, lane)
			step.Addrs[lane] = addr
			v, err := w.sharedRead(addr)
			if err != nil {
				return err
			}
			w.SetReg(dst, lane, v)
		}
		return nil
	default:
		return fmt.Errorf("unsupported load space %s", in.Space)
	}
}

func (w *Warp) execStore(env *Env, in *isa.Instruction, exec uint32, step *Step) error {
	addrOpd := in.Srcs[0]
	valOpd := in.Srcs[1]
	switch in.Space {
	case isa.SpaceGlobal:
		step.Mem = true
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) == 0 {
				continue
			}
			addr := w.effAddr(addrOpd, lane)
			step.Addrs[lane] = addr
			env.Mem.Write32(addr, w.value(env, valOpd, lane))
		}
		return nil
	case isa.SpaceShared:
		step.Mem = true
		for lane := 0; lane < WarpSize; lane++ {
			if exec&(1<<lane) == 0 {
				continue
			}
			addr := w.effAddr(addrOpd, lane)
			step.Addrs[lane] = addr
			if err := w.sharedWrite(addr, w.value(env, valOpd, lane)); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unsupported store space %s", in.Space)
	}
}

func (w *Warp) execAtomic(env *Env, in *isa.Instruction, exec uint32, step *Step) error {
	if in.Space != isa.SpaceGlobal {
		return fmt.Errorf("atomics supported on global memory only")
	}
	step.Mem = true
	dst := in.Dst.Reg
	for lane := 0; lane < WarpSize; lane++ {
		if exec&(1<<lane) == 0 {
			continue
		}
		addr := w.effAddr(in.Srcs[0], lane)
		step.Addrs[lane] = addr
		old := env.Mem.Read32(addr)
		b := w.value(env, in.Srcs[1], lane)
		var nv uint32
		switch in.Atom {
		case isa.AtomAdd:
			nv = old + b
		case isa.AtomMin:
			nv = minByType(in.Type, old, b)
		case isa.AtomMax:
			nv = maxByType(in.Type, old, b)
		case isa.AtomExch:
			nv = b
		case isa.AtomOr:
			nv = old | b
		case isa.AtomAnd:
			nv = old & b
		case isa.AtomCAS:
			c := w.value(env, in.Srcs[2], lane)
			if old == b {
				nv = c
			} else {
				nv = old
			}
		default:
			return fmt.Errorf("unsupported atomic %s", in.Atom)
		}
		env.Mem.Write32(addr, nv)
		if in.Dst.Kind == isa.OpdReg {
			w.SetReg(dst, lane, old)
		}
	}
	return nil
}

func (w *Warp) sharedRead(addr uint32) (uint32, error) {
	sh := w.CTA.Shared
	if int(addr)+4 > len(sh) {
		return 0, fmt.Errorf("shared read at %d beyond %d bytes", addr, len(sh))
	}
	return uint32(sh[addr]) | uint32(sh[addr+1])<<8 | uint32(sh[addr+2])<<16 | uint32(sh[addr+3])<<24, nil
}

func (w *Warp) sharedWrite(addr uint32, v uint32) error {
	sh := w.CTA.Shared
	if int(addr)+4 > len(sh) {
		return fmt.Errorf("shared write at %d beyond %d bytes", addr, len(sh))
	}
	sh[addr] = byte(v)
	sh[addr+1] = byte(v >> 8)
	sh[addr+2] = byte(v >> 16)
	sh[addr+3] = byte(v >> 24)
	return nil
}

// effAddr computes a lane's effective address for a memory operand.
func (w *Warp) effAddr(o isa.Operand, lane int) uint32 {
	if o.Reg < 0 {
		return uint32(o.Imm)
	}
	return w.Reg(o.Reg, lane) + uint32(int32(o.Imm))
}

// value evaluates a non-memory source operand in a lane.
func (w *Warp) value(env *Env, o isa.Operand, lane int) uint32 {
	switch o.Kind {
	case isa.OpdReg:
		return w.Reg(o.Reg, lane)
	case isa.OpdImm:
		return uint32(int32(o.Imm))
	case isa.OpdFImm:
		return math.Float32bits(float32(o.FImm))
	case isa.OpdSReg:
		return w.sregValue(env.Launch, o.SReg, lane)
	case isa.OpdPred:
		if w.Pred(o.Reg, lane) {
			return 1
		}
		return 0
	}
	return 0
}

func (w *Warp) execALU(env *Env, in *isa.Instruction, exec uint32) {
	for lane := 0; lane < WarpSize; lane++ {
		if exec&(1<<lane) == 0 {
			continue
		}
		switch in.Op {
		case isa.OpSetp:
			a := w.value(env, in.Srcs[0], lane)
			b := w.value(env, in.Srcs[1], lane)
			w.SetPred(in.Dst.Reg, lane, compare(in.Type, in.Cmp, a, b))
		case isa.OpSelp:
			a := w.value(env, in.Srcs[0], lane)
			b := w.value(env, in.Srcs[1], lane)
			p := in.Srcs[2]
			v := b
			if p.Kind == isa.OpdPred && w.Pred(p.Reg, lane) {
				v = a
			}
			w.SetReg(in.Dst.Reg, lane, v)
		default:
			w.SetReg(in.Dst.Reg, lane, w.alu(env, in, lane))
		}
	}
}

func (w *Warp) alu(env *Env, in *isa.Instruction, lane int) uint32 {
	val := func(i int) uint32 { return w.value(env, in.Srcs[i], lane) }
	t := in.Type
	switch in.Op {
	case isa.OpMov:
		return val(0)
	case isa.OpAdd:
		if t.Float() {
			return fbits(ffrom(val(0)) + ffrom(val(1)))
		}
		return val(0) + val(1)
	case isa.OpSub:
		if t.Float() {
			return fbits(ffrom(val(0)) - ffrom(val(1)))
		}
		return val(0) - val(1)
	case isa.OpMul:
		if t.Float() {
			return fbits(ffrom(val(0)) * ffrom(val(1)))
		}
		return val(0) * val(1)
	case isa.OpMulHi:
		if t.Signed() {
			return uint32(uint64(int64(int32(val(0)))*int64(int32(val(1)))) >> 32)
		}
		return uint32((uint64(val(0)) * uint64(val(1))) >> 32)
	case isa.OpMad:
		if t.Float() {
			return fbits(ffrom(val(0))*ffrom(val(1)) + ffrom(val(2)))
		}
		return val(0)*val(1) + val(2)
	case isa.OpDiv:
		if t.Float() {
			return fbits(ffrom(val(0)) / ffrom(val(1)))
		}
		b := val(1)
		if b == 0 {
			return 0
		}
		if t.Signed() {
			return uint32(int32(val(0)) / int32(b))
		}
		return val(0) / b
	case isa.OpRem:
		b := val(1)
		if b == 0 {
			return 0
		}
		if t.Signed() {
			return uint32(int32(val(0)) % int32(b))
		}
		return val(0) % b
	case isa.OpMin:
		return minByType(t, val(0), val(1))
	case isa.OpMax:
		return maxByType(t, val(0), val(1))
	case isa.OpAbs:
		if t.Float() {
			return fbits(float32(math.Abs(float64(ffrom(val(0))))))
		}
		v := int32(val(0))
		if v < 0 {
			v = -v
		}
		return uint32(v)
	case isa.OpNeg:
		if t.Float() {
			return fbits(-ffrom(val(0)))
		}
		return uint32(-int32(val(0)))
	case isa.OpAnd:
		return val(0) & val(1)
	case isa.OpOr:
		return val(0) | val(1)
	case isa.OpXor:
		return val(0) ^ val(1)
	case isa.OpNot:
		return ^val(0)
	case isa.OpShl:
		return val(0) << (val(1) & 31)
	case isa.OpShr:
		if t.Signed() {
			return uint32(int32(val(0)) >> (val(1) & 31))
		}
		return val(0) >> (val(1) & 31)
	case isa.OpCvt:
		return convert(in.Type, in.SrcType, val(0))
	case isa.OpSqrt:
		return fbits(float32(math.Sqrt(float64(ffrom(val(0))))))
	case isa.OpRsqrt:
		return fbits(float32(1 / math.Sqrt(float64(ffrom(val(0))))))
	case isa.OpRcp:
		return fbits(1 / ffrom(val(0)))
	case isa.OpSin:
		return fbits(float32(math.Sin(float64(ffrom(val(0))))))
	case isa.OpCos:
		return fbits(float32(math.Cos(float64(ffrom(val(0))))))
	case isa.OpEx2:
		return fbits(float32(math.Exp2(float64(ffrom(val(0))))))
	case isa.OpLg2:
		return fbits(float32(math.Log2(float64(ffrom(val(0))))))
	case isa.OpNop:
		return 0
	}
	return 0
}

func ffrom(bits uint32) float32 { return math.Float32frombits(bits) }
func fbits(f float32) uint32    { return math.Float32bits(f) }

func convert(dst, src isa.DType, v uint32) uint32 {
	switch {
	case dst == src:
		return v
	case dst.Float() && src == isa.S32:
		return fbits(float32(int32(v)))
	case dst.Float():
		return fbits(float32(v))
	case src.Float() && dst == isa.S32:
		return uint32(int32(ffrom(v)))
	case src.Float():
		f := ffrom(v)
		if f < 0 {
			return 0
		}
		return uint32(f)
	default:
		return v
	}
}

func compare(t isa.DType, c isa.CmpOp, a, b uint32) bool {
	var lt, eq bool
	switch {
	case t.Float():
		fa, fb := ffrom(a), ffrom(b)
		lt, eq = fa < fb, fa == fb
	case t.Signed():
		lt, eq = int32(a) < int32(b), a == b
	default:
		lt, eq = a < b, a == b
	}
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
	return false
}

func minByType(t isa.DType, a, b uint32) uint32 {
	switch {
	case t.Float():
		if ffrom(a) < ffrom(b) {
			return a
		}
		return b
	case t.Signed():
		if int32(a) < int32(b) {
			return a
		}
		return b
	default:
		if a < b {
			return a
		}
		return b
	}
}

func maxByType(t isa.DType, a, b uint32) uint32 {
	switch {
	case t.Float():
		if ffrom(a) > ffrom(b) {
			return a
		}
		return b
	case t.Signed():
		if int32(a) > int32(b) {
			return a
		}
		return b
	default:
		if a > b {
			return a
		}
		return b
	}
}
