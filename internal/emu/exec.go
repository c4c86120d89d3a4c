package emu

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"critload/internal/isa"
	"critload/internal/mem"
)

// The executor runs each warp instruction from its decoded form
// (isa.Decoded, resolved once per kernel by ptx) and does no work its result
// does not need:
//   - A register source (and %laneid) is read in place. Any other source is
//     filled into the Step's scratch, which the caller reuses, so no
//     instruction zeroes a buffer. The register-immediate forms of the hot
//     integer ops read the immediate as a scalar.
//   - When every lane executes, results are written straight into the
//     destination row: lane i reads only lane i of its sources, so a
//     destination that is also a source is safe. Under a partial mask every
//     lane is computed into scratch and only the exec lanes are scattered.
//   - A global load or store looks up the page of its first exec lane's
//     word once and accesses every word wholly inside that page directly;
//     any other word (in another page, or straddling a page end) goes
//     through mem.Read32 or mem.Write32.
//
// Memory accesses, shared-memory bounds errors and atomics stay strictly per
// exec lane, in ascending lane order.

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
// record (the caller owns the Step and reuses one across calls; its scratch
// is the executor's lane storage). Calling Execute on a finished warp is a
// programming error and returns an error.
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

	step.Inst, step.Active, step.Exec = in, active, exec
	step.Mem, step.Barrier, step.Exited = false, false, false
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
			w.move(env, d, exec, &step.scratch[0])
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
				w.execALU(env, d, exec, &step.scratch)
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

// dest returns where an instruction writing register dst under exec
// computes its lanes: the register row itself when every lane executes, buf
// otherwise.
func (w *Warp) dest(dst int32, exec uint32, buf *lanes) *lanes {
	if exec == FullMask && dst >= 0 {
		return w.row(int(dst))
	}
	return buf
}

// scatter writes r to the destination register in the exec lanes: nothing
// when r is the row itself (computed in place by way of dest), the whole
// row when every lane executed.
func (w *Warp) scatter(dst int32, exec uint32, r *lanes) {
	if dst < 0 {
		return
	}
	row := w.row(int(dst))
	if row == r {
		return
	}
	if exec == FullMask {
		*row = *r
		return
	}
	for m := exec; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m) & (WarpSize - 1)
		row[i] = r[i]
	}
}

// move copies a one-source value (mov, ld.param) into the destination; an
// immediate, parameter or special register is filled straight into the row
// when every lane executes.
func (w *Warp) move(env *Env, d *isa.Decoded, exec uint32, buf *lanes) {
	w.scatter(d.Dst, exec, w.gather(env, d.Srcs[0], w.dest(d.Dst, exec, buf)))
}

// firstPage returns the base address of the page holding the first exec
// lane's word, and the page itself, looked up once for the whole warp:
// mapped first when write is set, nil when a load finds it unmapped (it
// reads as zeros). A lane's word lies wholly inside that page when
// addr-base <= PageSize-4; any other word goes through Read32 or Write32.
// exec must not be empty.
func firstPage(m *mem.Memory, exec uint32, addr *lanes, write bool) (uint32, *[mem.PageSize]byte) {
	base := addr[bits.TrailingZeros32(exec)&(WarpSize-1)] &^ (mem.PageSize - 1)
	return base, m.Page(base, write)
}

func (w *Warp) loadGlobal(env *Env, d *isa.Decoded, exec uint32, step *Step) {
	addr := &step.Addrs
	w.address(env, d, addr)
	if exec == 0 {
		return
	}
	r := w.dest(d.Dst, exec, &step.scratch[0])
	base, p := firstPage(env.Mem, exec, addr, false)
	for m := exec; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m) & (WarpSize - 1)
		switch off := addr[i] - base; {
		case off > mem.PageSize-4:
			r[i] = env.Mem.Read32(addr[i])
		case p == nil:
			r[i] = 0
		default:
			r[i] = binary.LittleEndian.Uint32(p[off:])
		}
	}
	w.scatter(d.Dst, exec, r)
}

func (w *Warp) loadShared(env *Env, d *isa.Decoded, exec uint32, step *Step) error {
	addr, r := &step.Addrs, &step.scratch[0]
	w.address(env, d, addr)
	sh := w.CTA.Shared
	for m := exec; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m) & (WarpSize - 1)
		a := addr[i]
		if uint64(a)+4 > uint64(len(sh)) {
			return fmt.Errorf("shared read at %d beyond %d bytes", a, len(sh))
		}
		r[i] = binary.LittleEndian.Uint32(sh[a:])
	}
	w.scatter(d.Dst, exec, r)
	return nil
}

func (w *Warp) storeGlobal(env *Env, d *isa.Decoded, exec uint32, step *Step) {
	addr := &step.Addrs
	w.address(env, d, addr)
	if exec == 0 {
		return
	}
	v := w.gather(env, d.Srcs[1], &step.scratch[0])
	base, p := firstPage(env.Mem, exec, addr, true)
	for m := exec; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m) & (WarpSize - 1)
		if off := addr[i] - base; off <= mem.PageSize-4 {
			binary.LittleEndian.PutUint32(p[off:], v[i])
		} else {
			env.Mem.Write32(addr[i], v[i])
		}
	}
}

func (w *Warp) storeShared(env *Env, d *isa.Decoded, exec uint32, step *Step) error {
	addr := &step.Addrs
	w.address(env, d, addr)
	v := w.gather(env, d.Srcs[1], &step.scratch[0])
	sh := w.CTA.Shared
	for m := exec; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m) & (WarpSize - 1)
		a := addr[i]
		if uint64(a)+4 > uint64(len(sh)) {
			return fmt.Errorf("shared write at %d beyond %d bytes", a, len(sh))
		}
		binary.LittleEndian.PutUint32(sh[a:], v[i])
	}
	return nil
}

func (w *Warp) execAtomic(env *Env, in *isa.Instruction, d *isa.Decoded, exec uint32, step *Step) {
	addr, sc := &step.Addrs, &step.scratch
	w.address(env, d, addr)
	b := w.gather(env, d.Srcs[1], &sc[1])
	c := w.gather(env, d.Srcs[2], &sc[2])
	old := &sc[3]
	for m := exec; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m) & (WarpSize - 1)
		a := addr[i]
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
	w.scatter(d.Dst, exec, old)
}

// execALU runs a register-to-register instruction: one loop over the lanes
// into dest, then scatter. setp merges its lane mask into the predicate
// instead. sc[0..2] take the gathered sources, sc[3] a partial mask's
// results.
func (w *Warp) execALU(env *Env, d *isa.Decoded, exec uint32, sc *[4]lanes) {
	switch d.Exec {
	case isa.ExNop:
		return
	case isa.ExMov:
		w.move(env, d, exec, &sc[0])
		return
	}
	a, b, c := w.gather(env, d.Srcs[0], &sc[0]), &sc[1], &sc[2]
	switch d.Exec {
	case isa.ExSetpU, isa.ExSetpS, isa.ExSetpF:
		m := setpMask(d, a, w.gather(env, d.Srcs[1], b))
		p := &w.preds[d.Dst]
		*p = *p&^exec | m&exec
		return
	}
	r := w.dest(d.Dst, exec, &sc[3])
	if d.NSrc == 2 && d.Srcs[1].Kind == isa.SrcImm && aluImm(d.Exec, r, a, d.Srcs[1].Val) {
		w.scatter(d.Dst, exec, r)
		return
	}
	switch d.NSrc {
	case 3:
		c = w.gather(env, d.Srcs[2], c)
		fallthrough
	case 2:
		b = w.gather(env, d.Srcs[1], b)
	}
	switch d.Exec {
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
			var q uint32
			if b[i] != 0 {
				q = a[i] / b[i]
			}
			r[i] = q
		}
	case isa.ExDivS:
		for i := range r {
			var q uint32
			if b[i] != 0 {
				q = uint32(int32(a[i]) / int32(b[i]))
			}
			r[i] = q
		}
	case isa.ExDivF:
		for i := range r {
			r[i] = fbits(ffrom(a[i]) / ffrom(b[i]))
		}
	case isa.ExRemU:
		for i := range r {
			var q uint32
			if b[i] != 0 {
				q = a[i] % b[i]
			}
			r[i] = q
		}
	case isa.ExRemS:
		for i := range r {
			var q uint32
			if b[i] != 0 {
				q = uint32(int32(a[i]) % int32(b[i]))
			}
			r[i] = q
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
	w.scatter(d.Dst, exec, r)
}

// aluImm runs the register-immediate form of a hot integer op, reading the
// immediate v as a scalar, and reports false for any other op.
func aluImm(op isa.ExecOp, r, a *lanes, v uint32) bool {
	switch op {
	case isa.ExAdd:
		for i := range r {
			r[i] = a[i] + v
		}
	case isa.ExSub:
		for i := range r {
			r[i] = a[i] - v
		}
	case isa.ExMul:
		for i := range r {
			r[i] = a[i] * v
		}
	case isa.ExAnd:
		for i := range r {
			r[i] = a[i] & v
		}
	case isa.ExOr:
		for i := range r {
			r[i] = a[i] | v
		}
	case isa.ExXor:
		for i := range r {
			r[i] = a[i] ^ v
		}
	case isa.ExShl:
		for i := range r {
			r[i] = a[i] << (v & 31)
		}
	case isa.ExShrU:
		for i := range r {
			r[i] = a[i] >> (v & 31)
		}
	case isa.ExShrS:
		for i := range r {
			r[i] = uint32(int32(a[i]) >> (v & 31))
		}
	default:
		return false
	}
	return true
}

// setpMask compares a and b in every lane and returns the lanes where d's
// comparison holds. It computes only the relation the comparison needs: ne is
// "not eq", gt is "not le" (neither lt nor eq) and ge is "not lt", so a NaN
// operand makes ne, gt and ge hold.
func setpMask(d *isa.Decoded, a, b *lanes) uint32 {
	rel := d.Cmp
	switch rel {
	case isa.CmpNE:
		rel = isa.CmpEQ
	case isa.CmpGT:
		rel = isa.CmpLE
	case isa.CmpGE:
		rel = isa.CmpLT
	}
	var m uint32
	switch {
	case d.Exec == isa.ExSetpF:
		switch rel {
		case isa.CmpEQ:
			for i := WarpSize - 1; i >= 0; i-- {
				m = m<<1 | b2u(ffrom(a[i]) == ffrom(b[i]))
			}
		case isa.CmpLT:
			for i := WarpSize - 1; i >= 0; i-- {
				m = m<<1 | b2u(ffrom(a[i]) < ffrom(b[i]))
			}
		case isa.CmpLE:
			for i := WarpSize - 1; i >= 0; i-- {
				m = m<<1 | b2u(ffrom(a[i]) <= ffrom(b[i]))
			}
		}
	case rel == isa.CmpEQ: // signed or unsigned alike
		for i := WarpSize - 1; i >= 0; i-- {
			m = m<<1 | b2u(a[i] == b[i])
		}
	case d.Exec == isa.ExSetpS:
		switch rel {
		case isa.CmpLT:
			for i := WarpSize - 1; i >= 0; i-- {
				m = m<<1 | b2u(int32(a[i]) < int32(b[i]))
			}
		case isa.CmpLE:
			for i := WarpSize - 1; i >= 0; i-- {
				m = m<<1 | b2u(int32(a[i]) <= int32(b[i]))
			}
		}
	default:
		switch rel {
		case isa.CmpLT:
			for i := WarpSize - 1; i >= 0; i-- {
				m = m<<1 | b2u(a[i] < b[i])
			}
		case isa.CmpLE:
			for i := WarpSize - 1; i >= 0; i-- {
				m = m<<1 | b2u(a[i] <= b[i])
			}
		}
	}
	if rel != d.Cmp {
		m = ^m
	}
	return m
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
