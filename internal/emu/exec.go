package emu

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"critload/internal/isa"
)

// The executor runs each warp instruction from its decoded form
// (isa.Decoded, resolved once per kernel by ptx): every source is gathered
// into a [WarpSize]uint32 once, the executor is selected once, and one tight
// loop runs over all lanes. Lanes outside the exec mask may be computed but
// are never written. Memory accesses, shared-memory bounds errors and
// atomics stay strictly per exec lane, in ascending lane order.

// lanes is one value per lane of a warp.
type lanes = [WarpSize]uint32

// laneIDs is %laneid in every lane.
var laneIDs = func() (l lanes) {
	for i := range l {
		l[i] = uint32(i)
	}
	return l
}()

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
	d := &w.decoded[pc]
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

	switch d.Exec {
	case isa.ExBra:
		w.execBranch(in, pc, active, exec)
	case isa.ExExit:
		w.execExit(exec) // removes exec lanes from every stack entry
		// Guard-false lanes, if any, continue at the next instruction.
		if top.mask != 0 {
			top.pc++
		}
		w.normalize()
		step.Exited = w.Done()
		return nil
	case isa.ExBar:
		w.AtBarrier = true
		step.Barrier = true
		top.pc++
	default:
		var err error
		switch d.Exec {
		case isa.ExLdParam:
			var buf lanes
			w.scatter(d.Dst, exec, w.gather(env, d.Srcs[0], &buf))
		case isa.ExLdGlobal:
			step.Mem = in.Space != isa.SpaceConst
			w.loadGlobal(env, d, exec, step)
		case isa.ExLdShared:
			step.Mem = true
			err = w.loadShared(env, d, exec, step)
		case isa.ExStGlobal:
			step.Mem = true
			w.storeGlobal(env, d, exec, step)
		case isa.ExStShared:
			step.Mem = true
			err = w.storeShared(env, d, exec, step)
		case isa.ExAtom:
			step.Mem = true
			w.execAtomic(env, in, d, exec, step)
		case isa.ExInvalid:
			err = unsupported(in)
		default:
			if exec != 0 {
				w.execALU(env, d, exec)
			}
		}
		if err != nil {
			return fmt.Errorf("emu: %s (PC 0x%x): %w", in, in.PC, err)
		}
		top.pc++
	}
	w.normalize()
	return nil
}

func unsupported(in *isa.Instruction) error {
	switch in.Op {
	case isa.OpLd:
		return fmt.Errorf("unsupported load space %s", in.Space)
	case isa.OpSt:
		return fmt.Errorf("unsupported store space %s", in.Space)
	case isa.OpAtom:
		if in.Space != isa.SpaceGlobal {
			return fmt.Errorf("atomics supported on global memory only")
		}
		return fmt.Errorf("unsupported atomic %s", in.Atom)
	}
	return fmt.Errorf("unsupported instruction")
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

// row returns general register r of every lane.
func (w *Warp) row(r int) *lanes { return (*lanes)(w.regs[r*WarpSize:]) }

func broadcast(out *lanes, v uint32) {
	for i := range out {
		out[i] = v
	}
}

// gather returns a decoded source's value in every lane: a register or
// %laneid is read in place, anything else is filled into buf.
func (w *Warp) gather(env *Env, s isa.Source, buf *lanes) *lanes {
	switch s.Kind {
	case isa.SrcImm:
		broadcast(buf, s.Val)
	case isa.SrcReg:
		return w.row(int(s.Val))
	case isa.SrcPred:
		p := w.preds[s.Val]
		for i := range buf {
			buf[i] = p >> i & 1
		}
	case isa.SrcSReg:
		return w.sreg(env.Launch, isa.SpecialReg(s.Val), buf)
	case isa.SrcParam:
		broadcast(buf, env.Launch.Params[s.Val])
	}
	return buf
}

// sreg reads a special register in every lane: the per-lane ones from the
// tables built with the warp, the rest from the launch and the CTA.
func (w *Warp) sreg(l *Launch, sr isa.SpecialReg, buf *lanes) *lanes {
	var v int
	switch sr {
	case isa.SrTidX, isa.SrTidY, isa.SrTidZ:
		for i, t := range &w.tid[sr-isa.SrTidX] {
			buf[i] = uint32(t)
		}
		return buf
	case isa.SrLaneId:
		return &laneIDs
	case isa.SrNTidX:
		v = l.Block.X
	case isa.SrNTidY:
		v = l.Block.Y
	case isa.SrNTidZ:
		v = l.Block.Z
	case isa.SrCtaIdX:
		v = w.CTA.Coord.X
	case isa.SrCtaIdY:
		v = w.CTA.Coord.Y
	case isa.SrCtaIdZ:
		v = w.CTA.Coord.Z
	case isa.SrNCtaIdX:
		v = l.Grid.X
	case isa.SrNCtaIdY:
		v = l.Grid.Y
	case isa.SrNCtaIdZ:
		v = l.Grid.Z
	case isa.SrWarpId:
		v = int(w.Index)
	}
	broadcast(buf, uint32(v))
	return buf
}

// address computes a memory operand's effective address in every lane.
func (w *Warp) address(env *Env, d *isa.Decoded, out *lanes) {
	base := w.gather(env, d.Srcs[0], out)
	for i := range out {
		out[i] = base[i] + d.Disp
	}
}

// scatter writes r to the destination register in the exec lanes, copying
// the whole row when every lane executed.
func (w *Warp) scatter(dst int32, exec uint32, r *lanes) {
	if dst < 0 {
		return
	}
	row := w.row(int(dst))
	if exec == FullMask {
		*row = *r
		return
	}
	for m := exec; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m) & (WarpSize - 1)
		row[i] = r[i]
	}
}

func (w *Warp) loadGlobal(env *Env, d *isa.Decoded, exec uint32, step *Step) {
	var addr, r lanes
	w.address(env, d, &addr)
	for m := exec; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m) & (WarpSize - 1)
		step.Addrs[i] = addr[i]
		r[i] = env.Mem.Read32(addr[i])
	}
	w.scatter(d.Dst, exec, &r)
}

func (w *Warp) loadShared(env *Env, d *isa.Decoded, exec uint32, step *Step) error {
	var addr, r lanes
	w.address(env, d, &addr)
	sh := w.CTA.Shared
	for m := exec; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m) & (WarpSize - 1)
		a := addr[i]
		step.Addrs[i] = a
		if int(a)+4 > len(sh) {
			return fmt.Errorf("shared read at %d beyond %d bytes", a, len(sh))
		}
		r[i] = binary.LittleEndian.Uint32(sh[a:])
	}
	w.scatter(d.Dst, exec, &r)
	return nil
}

func (w *Warp) storeGlobal(env *Env, d *isa.Decoded, exec uint32, step *Step) {
	var addr, buf lanes
	w.address(env, d, &addr)
	v := w.gather(env, d.Srcs[1], &buf)
	for m := exec; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m) & (WarpSize - 1)
		step.Addrs[i] = addr[i]
		env.Mem.Write32(addr[i], v[i])
	}
}

func (w *Warp) storeShared(env *Env, d *isa.Decoded, exec uint32, step *Step) error {
	var addr, buf lanes
	w.address(env, d, &addr)
	v := w.gather(env, d.Srcs[1], &buf)
	sh := w.CTA.Shared
	for m := exec; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m) & (WarpSize - 1)
		a := addr[i]
		step.Addrs[i] = a
		if int(a)+4 > len(sh) {
			return fmt.Errorf("shared write at %d beyond %d bytes", a, len(sh))
		}
		binary.LittleEndian.PutUint32(sh[a:], v[i])
	}
	return nil
}

func (w *Warp) execAtomic(env *Env, in *isa.Instruction, d *isa.Decoded, exec uint32, step *Step) {
	var addr, bufB, bufC, old lanes
	w.address(env, d, &addr)
	b := w.gather(env, d.Srcs[1], &bufB)
	c := w.gather(env, d.Srcs[2], &bufC)
	for m := exec; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m) & (WarpSize - 1)
		a := addr[i]
		step.Addrs[i] = a
		o := env.Mem.Read32(a)
		var nv uint32
		switch in.Atom {
		case isa.AtomAdd:
			nv = o + b[i]
		case isa.AtomMin:
			nv = minByType(in.Type, o, b[i])
		case isa.AtomMax:
			nv = maxByType(in.Type, o, b[i])
		case isa.AtomExch:
			nv = b[i]
		case isa.AtomOr:
			nv = o | b[i]
		case isa.AtomAnd:
			nv = o & b[i]
		case isa.AtomCAS:
			nv = o
			if o == b[i] {
				nv = c[i]
			}
		}
		env.Mem.Write32(a, nv)
		old[i] = o
	}
	w.scatter(d.Dst, exec, &old)
}

// execALU runs a register-to-register instruction: gather, one loop over
// the lanes, scatter. setp merges its lane mask into the predicate instead.
func (w *Warp) execALU(env *Env, d *isa.Decoded, exec uint32) {
	var bufA, bufB, bufC, r lanes
	a, b, c := &bufA, &bufB, &bufC
	switch d.NSrc {
	case 3:
		c = w.gather(env, d.Srcs[2], c)
		fallthrough
	case 2:
		b = w.gather(env, d.Srcs[1], b)
		fallthrough
	case 1:
		a = w.gather(env, d.Srcs[0], a)
	}
	switch d.Exec {
	case isa.ExNop:
		return
	case isa.ExSetpU, isa.ExSetpS, isa.ExSetpF:
		m := setpMask(d, a, b)
		p := &w.preds[d.Dst]
		*p = *p&^exec | m&exec
		return
	case isa.ExMov:
		w.scatter(d.Dst, exec, a)
		return
	case isa.ExSelp:
		var sel uint32
		if s := d.Srcs[2]; s.Kind == isa.SrcPred {
			sel = w.preds[s.Val]
		}
		for i := range r {
			if sel>>i&1 != 0 {
				r[i] = a[i]
			} else {
				r[i] = b[i]
			}
		}
	case isa.ExAdd:
		for i := range r {
			r[i] = a[i] + b[i]
		}
	case isa.ExAddF:
		for i := range r {
			r[i] = fbits(ffrom(a[i]) + ffrom(b[i]))
		}
	case isa.ExSub:
		for i := range r {
			r[i] = a[i] - b[i]
		}
	case isa.ExSubF:
		for i := range r {
			r[i] = fbits(ffrom(a[i]) - ffrom(b[i]))
		}
	case isa.ExMul:
		for i := range r {
			r[i] = a[i] * b[i]
		}
	case isa.ExMulF:
		for i := range r {
			r[i] = fbits(ffrom(a[i]) * ffrom(b[i]))
		}
	case isa.ExMulHiU:
		for i := range r {
			r[i] = uint32(uint64(a[i]) * uint64(b[i]) >> 32)
		}
	case isa.ExMulHiS:
		for i := range r {
			r[i] = uint32(uint64(int64(int32(a[i]))*int64(int32(b[i]))) >> 32)
		}
	case isa.ExMad:
		for i := range r {
			r[i] = a[i]*b[i] + c[i]
		}
	case isa.ExMadF:
		for i := range r {
			r[i] = fbits(ffrom(a[i])*ffrom(b[i]) + ffrom(c[i]))
		}
	case isa.ExDivU:
		for i := range r {
			if b[i] != 0 {
				r[i] = a[i] / b[i]
			}
		}
	case isa.ExDivS:
		for i := range r {
			if b[i] != 0 {
				r[i] = uint32(int32(a[i]) / int32(b[i]))
			}
		}
	case isa.ExDivF:
		for i := range r {
			r[i] = fbits(ffrom(a[i]) / ffrom(b[i]))
		}
	case isa.ExRemU:
		for i := range r {
			if b[i] != 0 {
				r[i] = a[i] % b[i]
			}
		}
	case isa.ExRemS:
		for i := range r {
			if b[i] != 0 {
				r[i] = uint32(int32(a[i]) % int32(b[i]))
			}
		}
	case isa.ExMinU:
		for i := range r {
			r[i] = min(a[i], b[i])
		}
	case isa.ExMinS:
		for i := range r {
			r[i] = uint32(min(int32(a[i]), int32(b[i])))
		}
	case isa.ExMinF:
		for i := range r {
			r[i] = minByType(isa.F32, a[i], b[i])
		}
	case isa.ExMaxU:
		for i := range r {
			r[i] = max(a[i], b[i])
		}
	case isa.ExMaxS:
		for i := range r {
			r[i] = uint32(max(int32(a[i]), int32(b[i])))
		}
	case isa.ExMaxF:
		for i := range r {
			r[i] = maxByType(isa.F32, a[i], b[i])
		}
	case isa.ExAbs:
		for i := range r {
			v := int32(a[i])
			if v < 0 {
				v = -v
			}
			r[i] = uint32(v)
		}
	case isa.ExAbsF:
		for i := range r {
			r[i] = fbits(float32(math.Abs(float64(ffrom(a[i])))))
		}
	case isa.ExNeg:
		for i := range r {
			r[i] = -a[i]
		}
	case isa.ExNegF:
		for i := range r {
			r[i] = fbits(-ffrom(a[i]))
		}
	case isa.ExAnd:
		for i := range r {
			r[i] = a[i] & b[i]
		}
	case isa.ExOr:
		for i := range r {
			r[i] = a[i] | b[i]
		}
	case isa.ExXor:
		for i := range r {
			r[i] = a[i] ^ b[i]
		}
	case isa.ExNot:
		for i := range r {
			r[i] = ^a[i]
		}
	case isa.ExShl:
		for i := range r {
			r[i] = a[i] << (b[i] & 31)
		}
	case isa.ExShrU:
		for i := range r {
			r[i] = a[i] >> (b[i] & 31)
		}
	case isa.ExShrS:
		for i := range r {
			r[i] = uint32(int32(a[i]) >> (b[i] & 31))
		}
	case isa.ExCvtU32F:
		for i := range r {
			r[i] = fbits(float32(a[i]))
		}
	case isa.ExCvtS32F:
		for i := range r {
			r[i] = fbits(float32(int32(a[i])))
		}
	case isa.ExCvtFU32:
		for i := range r {
			r[i] = f32ToU32(ffrom(a[i]))
		}
	case isa.ExCvtFS32:
		for i := range r {
			r[i] = f32ToS32(ffrom(a[i]))
		}
	case isa.ExSqrt:
		for i := range r {
			r[i] = fbits(float32(math.Sqrt(float64(ffrom(a[i])))))
		}
	case isa.ExRsqrt:
		for i := range r {
			r[i] = fbits(float32(1 / math.Sqrt(float64(ffrom(a[i])))))
		}
	case isa.ExRcp:
		for i := range r {
			r[i] = fbits(1 / ffrom(a[i]))
		}
	case isa.ExSin:
		for i := range r {
			r[i] = fbits(float32(math.Sin(float64(ffrom(a[i])))))
		}
	case isa.ExCos:
		for i := range r {
			r[i] = fbits(float32(math.Cos(float64(ffrom(a[i])))))
		}
	case isa.ExEx2:
		for i := range r {
			r[i] = fbits(float32(math.Exp2(float64(ffrom(a[i])))))
		}
	case isa.ExLg2:
		for i := range r {
			r[i] = fbits(float32(math.Log2(float64(ffrom(a[i])))))
		}
	}
	w.scatter(d.Dst, exec, &r)
}

// setpMask compares a and b in every lane and returns the lanes where d's
// comparison holds. gt is "neither lt nor eq" and ge is "not lt", so a NaN
// operand makes ne, gt and ge hold.
func setpMask(d *isa.Decoded, a, b *lanes) uint32 {
	var lt, eq uint32
	switch d.Exec {
	case isa.ExSetpU:
		for i := range a {
			lt |= b2u(a[i] < b[i]) << i
			eq |= b2u(a[i] == b[i]) << i
		}
	case isa.ExSetpS:
		for i := range a {
			lt |= b2u(int32(a[i]) < int32(b[i])) << i
			eq |= b2u(a[i] == b[i]) << i
		}
	case isa.ExSetpF:
		for i := range a {
			fa, fb := ffrom(a[i]), ffrom(b[i])
			lt |= b2u(fa < fb) << i
			eq |= b2u(fa == fb) << i
		}
	}
	switch d.Cmp {
	case isa.CmpEQ:
		return eq
	case isa.CmpNE:
		return ^eq
	case isa.CmpLT:
		return lt
	case isa.CmpLE:
		return lt | eq
	case isa.CmpGT:
		return ^(lt | eq)
	case isa.CmpGE:
		return ^lt
	}
	return 0
}

func b2u(c bool) uint32 {
	if c {
		return 1
	}
	return 0
}

func ffrom(bits uint32) float32 { return math.Float32frombits(bits) }
func fbits(f float32) uint32    { return math.Float32bits(f) }

// f32ToS32 is cvt.s32.f32 with PTX's saturating semantics: truncate toward
// zero, clamp to the int32 range, NaN converts to 0. A plain Go conversion
// leaves the out-of-range and NaN results to the platform.
func f32ToS32(f float32) uint32 {
	switch {
	case f != f:
		return 0
	case f <= math.MinInt32:
		return 1 << 31
	case f >= -math.MinInt32:
		return math.MaxInt32
	}
	return uint32(int32(f))
}

// f32ToU32 is cvt.u32.f32 with PTX's saturating semantics: truncate toward
// zero, clamp to the uint32 range, NaN converts to 0.
func f32ToU32(f float32) uint32 {
	switch {
	case !(f > 0): // NaN, zero and negatives
		return 0
	case f >= 1<<32:
		return math.MaxUint32
	}
	return uint32(f)
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
