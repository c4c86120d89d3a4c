package sm

import (
	"critload/internal/cache"
	"critload/internal/icnt"
	"critload/internal/memreq"
	"critload/internal/stats"
)

// headFail is the LD/ST head's refused attempt of the last cycle: what a
// parked SM repeats in every frozen cycle (accountIdle).
type headFail struct {
	outcome cache.Outcome
	cat     stats.Category
	fig3    bool // a global load: recorded in the Figure 3 outcomes
	l1      bool // presented to the L1: counted in L1.Accesses
	icnt    bool // refused injection: a free slot can accept it without a fill
}

// stepLDST advances the memory pipeline one cycle: local hit completions,
// then one L1 access attempt for the oldest op that still has requests to
// present (strictly in order, as in the paper: "trailing requests must wait
// even longer until cache resources are available"). It reports whether that
// attempt was refused, leaving the refusal in s.fail.
func (s *SM) stepLDST(now int64) (refused bool) {
	s.processHits(now)

	// Fully accepted ops at the head have left the issue stage and only
	// wait for responses; drop them from the queue.
	for s.ldstQ.Len() > 0 && s.ldstQ.Peek().next >= len(s.ldstQ.Peek().reqs) {
		s.ldstQ.Pop()
	}
	if s.ldstQ.Len() == 0 {
		return false
	}
	op := s.ldstQ.Peek()
	r := op.reqs[op.next]
	accepted := false
	switch op.kind {
	case opGlobalStore:
		accepted = s.tryStore(op, r, now)
	default:
		accepted = s.tryLoad(op, r, now)
	}
	if !accepted {
		return true
	}
	// Ops that finished presenting all requests leave the issue queue so
	// the next op can start next cycle.
	if op.next >= len(op.reqs) {
		s.ldstQ.Pop()
		if !op.isLoad {
			// Stores retire at acceptance; nothing outstanding. Their
			// requests are recycled downstream when the DRAM channel issues
			// them, so only the op itself returns to the free list here. An
			// atomic without a destination is tracked by nothing either: its
			// requests retire individually as ownerless replies.
			s.putOp(op)
		}
		// A load op now only waits for its responses; the last one
		// completes it (completeRequest).
	}
	return false
}

// refuse records the head's refused attempt: in the Figure 3 outcomes for a
// global load, and in s.fail for the park that may follow.
func (s *SM) refuse(op *memOp, o cache.Outcome, l1 bool) {
	s.fail = headFail{outcome: o, cat: op.category(), fig3: op.kind == opGlobalLoad,
		l1: l1, icnt: o == cache.RsrvFailICNT}
	if s.fail.fig3 {
		s.col.RecordL1Outcome(s.fail.cat, o)
	}
}

// tryLoad presents one load/atomic request to the L1 (or, for
// non-deterministic loads under the Section X.A bypass, straight to the
// request network) and reports whether it was accepted.
func (s *SM) tryLoad(op *memOp, r *memreq.Request, now int64) bool {
	if s.cfg.NonDetBypassL1 && op.nonDet {
		if !s.backend.CanInject(s.ID) {
			s.refuse(op, cache.RsrvFailICNT, false)
			return false
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
		return true
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
	if !outcome.Accepted() {
		s.refuse(op, outcome, true)
		return false
	}
	if op.kind == opGlobalLoad {
		s.col.RecordL1Outcome(op.category(), outcome)
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
	return true
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
// (no L1 allocation on the Fermi write-no-allocate path) and reports whether
// the network took it. A refused store counts nowhere.
func (s *SM) tryStore(op *memOp, r *memreq.Request, now int64) bool {
	if !s.backend.CanInject(s.ID) {
		s.refuse(op, cache.RsrvFailICNT, false)
		return false
	}
	r.AcceptedL1 = now
	r.InjectedICNT = now
	s.backend.Inject(r, icnt.DataFlits, now)
	op.noteAccept(now)
	op.next++
	return true
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
	// A completing load can clear a scoreboard hazard right now, and a fill
	// frees the tag or MSHR a parked head waits for; the stall cache's
	// deadlines know nothing about external arrivals.
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
