package sm

import (
	"fmt"

	"critload/internal/coalesce"
	"critload/internal/emu"
	"critload/internal/isa"
	"critload/internal/memreq"
)

// issue runs every warp scheduler once; each may issue at most one
// instruction per cycle.
func (s *SM) issue(now int64) error {
	for sched := 0; sched < s.cfg.NumSchedulers; sched++ {
		var wc *warpCtx
		if s.readySets {
			wc = s.pickReady(sched, now)
		} else {
			wc = s.pickWarp(sched, now)
		}
		if wc == nil {
			continue
		}
		// Before the issue, so that retireCTA clears it again if this is the
		// instruction that retires the warp's CTA.
		if s.cfg.Policy == GTO {
			s.greedy[sched] = wc
		}
		if err := s.issueWarp(wc, now); err != nil {
			return err
		}
		s.lastIssue = now
	}
	return nil
}

// eligible reports whether the warp can issue this cycle.
func (s *SM) eligible(wc *warpCtx, now int64) bool {
	if wc.w.AtBarrier {
		return false
	}
	in := wc.w.NextInst()
	if in == nil {
		return false
	}
	if !wc.scoreboardReady(in) {
		return false
	}
	u := in.Unit()
	if u == isa.UnitLDST {
		return !s.ldstBusy(now)
	}
	return s.unitBusyUntil[u] <= now
}

// pickWarp selects the next warp for a scheduler according to the policy.
// Warps are partitioned over schedulers by arrival order (age modulo
// scheduler count), as on Fermi. This scan is the naive engine's pick and the
// definition the fast-forward engine's pickReady must match.
func (s *SM) pickWarp(sched int, now int64) *warpCtx {
	mine := s.schedWarps[sched]
	if len(mine) == 0 {
		return nil
	}
	if s.cfg.Policy == GTO {
		// Greedy: stay on the last warp while it can issue.
		if g := s.greedy[sched]; g != nil && s.eligible(g, now) {
			return g
		}
		// Then oldest first; schedWarps is already in arrival order.
		for _, wc := range mine {
			if s.eligible(wc, now) {
				return wc
			}
		}
		return nil
	}
	// Loose round-robin.
	start := s.rr[sched] % len(mine)
	for i := 0; i < len(mine); i++ {
		wc := mine[(start+i)%len(mine)]
		if s.eligible(wc, now) {
			s.rr[sched] = (start + i + 1) % len(mine)
			return wc
		}
	}
	return nil
}

// issueWarp functionally executes the warp's next instruction and models its
// timing consequences.
func (s *SM) issueWarp(wc *warpCtx, now int64) error {
	var step emu.Step
	if err := wc.w.Execute(s.env, &step); err != nil {
		return fmt.Errorf("sm %d: %w", s.ID, err)
	}
	s.InstructionsIssued++
	in := step.Inst
	s.col.WarpInsts++
	s.col.ThreadInsts += uint64(step.ExecCount())
	switch {
	case in.IsSharedLoad():
		s.col.SLoadWarps++
	case in.Op == isa.OpSt && in.Space == isa.SpaceGlobal:
		s.col.GStoreWarps++
	}

	switch {
	case in.Op == isa.OpBar:
		s.maybeReleaseBarrier(wc.cta)
	case in.Op.IsControl():
		// Branches/exit have no destination and no unit occupancy beyond
		// the issue slot.
	case in.Op == isa.OpLd && (in.Space == isa.SpaceParam || in.Space == isa.SpaceConst):
		// Parameter/constant accesses hit the small constant cache.
		s.unitBusyUntil[isa.UnitLDST] = now + 1
		s.scheduleWriteback(wc, in, wbConst, now)
	case in.Op.IsMemory() && in.Space == isa.SpaceShared:
		s.unitBusyUntil[isa.UnitLDST] = now + 1
		if in.Op == isa.OpLd {
			s.scheduleWriteback(wc, in, wbShared, now)
		}
	case in.Op.IsMemory():
		s.issueGlobalMemOp(wc, &step, now)
	case in.Unit() == isa.UnitSFU:
		s.unitBusyUntil[isa.UnitSFU] = now + s.cfg.SFUInit
		s.scheduleWriteback(wc, in, wbSFU, now)
	default:
		s.unitBusyUntil[isa.UnitSP] = now + s.cfg.SPInit
		s.scheduleWriteback(wc, in, wbSP, now)
	}

	if s.readySets {
		s.refreshReady(wc) // new instruction, and pending counters just rose
	}
	if step.Exited {
		s.retireWarp(wc)
	}
	return nil
}

func (s *SM) retireWarp(wc *warpCtx) {
	wc.cta.liveWarps--
	if wc.cta.liveWarps == 0 {
		s.retireCTA(wc.cta)
	}
}

// maybeReleaseBarrier releases the CTA barrier once every live warp arrived.
func (s *SM) maybeReleaseBarrier(cc *ctaCtx) {
	for _, w := range cc.cta.Warps {
		if !w.Done() && !w.AtBarrier {
			return
		}
	}
	cc.cta.ReleaseBarrier()
	if s.readySets {
		for _, wc := range s.warps {
			if wc.cta == cc {
				s.refreshReady(wc)
			}
		}
	}
}

// issueGlobalMemOp coalesces a global-space memory instruction into block
// requests and enqueues the op into the LD/ST pipeline.
func (s *SM) issueGlobalMemOp(wc *warpCtx, step *emu.Step, now int64) {
	in := step.Inst
	s.accScratch = coalesce.CoalesceInto(s.accScratch[:0], step.Exec, &step.Addrs)
	accs := s.accScratch
	if len(accs) == 0 {
		// Fully predicated-off memory op: nothing to do.
		s.unitBusyUntil[isa.UnitLDST] = now + 1
		return
	}
	op := s.getOp()
	op.warp, op.inst, op.issued, op.firstAcc = wc, in, now, -1
	wc.cta.refs++
	switch in.Op {
	case isa.OpLd:
		op.kind = opGlobalLoad
		op.isLoad = true
		op.nonDet = s.classify != nil && s.classify(in.PC)
	case isa.OpAtom:
		op.kind = opAtomic
		op.isLoad = in.Dst.Kind == isa.OpdReg
	default:
		op.kind = opGlobalStore
	}

	kind := memreq.Load
	switch op.kind {
	case opGlobalStore:
		kind = memreq.Store
	case opAtomic:
		kind = memreq.Atomic
	}
	for _, a := range accs {
		s.nextReqID++
		r := s.pool.Get()
		r.ID = uint64(s.ID)<<48 | s.nextReqID
		r.Block = a.Block
		r.Kind = kind
		r.SM = s.ID
		r.Partition = s.backend.PartitionOf(s.ID, a.Block)
		r.PC = in.PC
		r.Kernel = s.kernelName
		r.NonDet = op.nonDet
		r.Lanes = a.LaneCount()
		r.Issued = now
		op.reqs = append(op.reqs, r)
	}
	if op.isLoad {
		// Loads (and value-returning atomics) hold their destination until
		// the last response arrives.
		reg := in.DefReg()
		if reg >= 0 {
			wc.pendingReg[reg]++
		}
		op.pending = len(op.reqs)
		s.inflight += len(op.reqs)
		for _, r := range op.reqs {
			r.OpSlot = op.slot
		}
		if op.kind == opGlobalLoad {
			cat := op.category()
			s.col.Requests[cat] += uint64(len(op.reqs))
			s.col.GLoadWarps[cat]++
			s.col.GLoadThreads[cat] += uint64(step.ExecCount())
		}
	}
	s.ldstQ.Push(op)
	s.unitBusyUntil[isa.UnitLDST] = now + 1
}
