package sm

import (
	"critload/internal/cache"
	"critload/internal/icnt"
	"critload/internal/memreq"
	"critload/internal/stats"
)

// stepLDST advances the memory pipeline one cycle: local hit completions,
// then one L1 access attempt for the oldest op that still has requests to
// present (strictly in order, as in the paper: "trailing requests must wait
// even longer until cache resources are available").
func (s *SM) stepLDST(now int64) {
	s.processHits(now)

	// Fully accepted ops at the head have left the issue stage and only
	// wait for responses; drop them from the queue.
	for s.ldstQ.Len() > 0 && s.ldstQ.Peek().next >= len(s.ldstQ.Peek().reqs) {
		s.ldstQ.Pop()
	}
	if s.ldstQ.Len() == 0 {
		return
	}
	op := s.ldstQ.Peek()
	r := op.reqs[op.next]
	switch op.kind {
	case opGlobalStore:
		s.tryStore(op, r, now)
	default:
		s.tryLoad(op, r, now)
	}
	// Ops that finished presenting all requests leave the issue queue so
	// the next op can start next cycle.
	if op.next >= len(op.reqs) {
		s.ldstQ.Pop()
		if op.kind == opGlobalStore {
			// Stores retire at acceptance; nothing outstanding. Their
			// requests are recycled downstream when the DRAM channel issues
			// them, so only the op itself returns to the free list here.
			s.putOp(op)
			return
		}
		if !op.isLoad {
			// Atomic without a destination: nothing tracks the op, and its
			// requests retire individually as ownerless replies.
			s.putOp(op)
		}
		// A load op now only waits for its responses; the last one
		// completes it (completeRequest).
	}
}

// tryLoad presents one load/atomic request to the L1 (or, for
// non-deterministic loads under the Section X.A bypass, straight to the
// request network).
func (s *SM) tryLoad(op *memOp, r *memreq.Request, now int64) {
	if s.cfg.NonDetBypassL1 && op.nonDet {
		if !s.backend.CanInject(s.ID) {
			if op.kind == opGlobalLoad {
				s.col.RecordL1Outcome(op.category(), cache.RsrvFailICNT)
			}
			return
		}
		r.BypassL1 = true
		r.AcceptedL1 = now
		r.InjectedICNT = now
		s.backend.Inject(r, icnt.ControlFlits, now)
		if op.kind == opGlobalLoad {
			s.col.RecordL1Outcome(op.category(), cache.Miss)
		}
		op.noteAccept(now)
		op.next++
		return
	}
	inject := func() bool {
		if !s.backend.CanInject(s.ID) {
			return false
		}
		r.InjectedICNT = now
		s.backend.Inject(r, icnt.ControlFlits, now)
		return true
	}
	outcome := s.L1.Access(r, now, inject)
	if op.kind == opGlobalLoad {
		s.col.RecordL1Outcome(op.category(), outcome)
	}
	if !outcome.Accepted() {
		return
	}
	r.AcceptedL1 = now
	if outcome == cache.Hit {
		r.Serviced = memreq.LvlL1
		s.hitEvents.Push(timedReq{at: now + s.cfg.L1.HitLatency, req: r})
	}
	if outcome == cache.Miss && s.cfg.PrefetchNextLine {
		s.tryPrefetch(r, now)
	}
	op.noteAccept(now)
	op.next++
}

// tryPrefetch issues a best-effort next-line prefetch after a demand miss.
// It competes for the same tag, MSHR and interconnect resources as demand
// requests and is dropped silently when any reservation fails. The fill
// completes through the normal reply path; demand accesses that arrive in
// the meantime merge on the reserved line as hit-reserved.
func (s *SM) tryPrefetch(demand *memreq.Request, now int64) {
	block := demand.Block + uint32(s.cfg.L1.LineBytes)
	s.nextReqID++
	pf := s.pool.Get()
	pf.ID = uint64(s.ID)<<48 | s.nextReqID
	pf.Block = block
	pf.Kind = memreq.Load
	pf.SM = s.ID
	pf.Partition = s.backend.PartitionOf(s.ID, block)
	pf.PC = demand.PC
	pf.Kernel = s.kernelName
	pf.NonDet = demand.NonDet
	pf.Prefetch = true
	pf.Issued = now
	inject := func() bool {
		if !s.backend.CanInject(s.ID) {
			return false
		}
		pf.InjectedICNT = now
		s.backend.Inject(pf, icnt.ControlFlits, now)
		return true
	}
	// The prefetch probe's outcome is deliberately not recorded in the
	// Figure 3 statistics: the paper's cycle accounting covers demand
	// accesses only.
	switch s.L1.Access(pf, now, inject) {
	case cache.Miss:
		s.col.Prefetches++
	case cache.HitReserved:
		// Merged onto an in-flight line: retires as a fill target later.
	default:
		s.pool.Put(pf) // not retained by the cache: recycle immediately
	}
}

// tryStore injects one write-through store request into the request network
// (no L1 allocation on the Fermi write-no-allocate path).
func (s *SM) tryStore(op *memOp, r *memreq.Request, now int64) {
	if !s.backend.CanInject(s.ID) {
		return
	}
	r.AcceptedL1 = now
	r.InjectedICNT = now
	s.backend.Inject(r, icnt.DataFlits, now)
	op.noteAccept(now)
	op.next++
}

func (op *memOp) noteAccept(now int64) {
	if op.firstAcc < 0 {
		op.firstAcc = now
	}
	op.lastAcc = now
}

// processHits completes locally-serviced (L1 hit) requests whose latency
// elapsed.
func (s *SM) processHits(now int64) {
	for s.hitEvents.Len() > 0 && s.hitEvents.Peek().at <= now {
		r := s.hitEvents.Pop().req
		r.Returned = now
		s.completeRequest(r, now)
	}
}

// HandleReply receives a response from the reply network: it fills the L1
// line and completes every request merged on it.
func (s *SM) HandleReply(r *memreq.Request, now int64) {
	if r.Kind == memreq.Store {
		return // write acks are not modeled
	}
	// A completing load can clear a scoreboard hazard right now; the stall
	// cache's deadlines know nothing about external arrivals.
	s.stallUntil = 0
	if r.BypassL1 {
		r.Returned = now
		s.completeRequest(r, now)
		return
	}
	targets := s.L1.Fill(r.Block, now)
	for _, t := range targets {
		t.Returned = now
		if t.Serviced == memreq.LvlNone {
			// Merged (hit-reserved) requests inherit the primary's level.
			t.Serviced = r.Serviced
		}
		s.completeRequest(t, now)
	}
}

// completeRequest accounts one returned response toward its owning warp op
// and completes the op when the last response arrives.
func (s *SM) completeRequest(r *memreq.Request, now int64) {
	if s.tracer != nil {
		s.tracer.Add(r)
	}
	if r.OpSlot == 0 {
		// Ownerless responses (prefetches, atomics without a destination)
		// are terminal once traced.
		s.pool.Put(r)
		return
	}
	op := s.ops[r.OpSlot-1]
	s.inflight--
	if op.pending--; op.pending > 0 {
		return
	}
	s.completeLoadOp(op, now)
}

// releaseOp recycles a completed op and its requests; every response has
// been recorded and traced by the time this runs.
func (s *SM) releaseOp(op *memOp) {
	for _, r := range op.reqs {
		s.pool.Put(r)
	}
	s.putOp(op)
}

// completeLoadOp writes back the load and folds its timing into the
// turnaround statistics (Fig 5-7 decomposition).
func (s *SM) completeLoadOp(op *memOp, now int64) {
	if reg := op.inst.DefReg(); reg >= 0 {
		op.warp.pendingReg[reg]--
		if s.readySets {
			s.refreshReady(op.warp)
		}
	}
	if op.kind != opGlobalLoad {
		s.releaseOp(op) // atomics are not part of the paper's load statistics
		return
	}

	total := now - op.issued
	var unloaded int64
	var firstRet, lastRet int64 = 1 << 62, 0
	var icntGapSum int64
	var missCount int64
	for _, r := range op.reqs {
		if u := s.lat.Unloaded(r.Serviced); u > unloaded {
			unloaded = u
		}
		if r.Returned < firstRet {
			firstRet = r.Returned
		}
		if r.Returned > lastRet {
			lastRet = r.Returned
		}
		if r.ArrivedL2 > 0 && r.InjectedICNT > 0 {
			if g := r.ArrivedL2 - r.InjectedICNT - s.lat.Icnt; g > 0 {
				icntGapSum += g
			}
			missCount++
		}
	}
	if unloaded > total {
		unloaded = total
	}
	rsrvPrev := op.firstAcc - op.issued
	rsrvCurr := op.lastAcc - op.firstAcc
	if rsrvPrev < 0 {
		rsrvPrev = 0
	}
	rec := stats.LoadOpRecord{
		NReq:     len(op.reqs),
		Total:    total,
		Unloaded: unloaded,
		RsrvPrev: rsrvPrev,
		RsrvCurr: rsrvCurr,
		GapL2Icnt: func() int64 {
			if lastRet >= firstRet && firstRet < 1<<62 {
				return lastRet - firstRet
			}
			return 0
		}(),
	}
	if missCount > 0 {
		rec.GapIcntL2 = icntGapSum / missCount
	}
	p := s.pcStats[op.inst.Index]
	if p == nil {
		p = s.col.LoadPC(s.kernelName, op.inst.PC, op.nonDet)
		s.pcStats[op.inst.Index] = p
	}
	s.col.RecordLoadOp(p, rec)
	s.releaseOp(op)
}
