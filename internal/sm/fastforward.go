package sm

import (
	"math"

	"critload/internal/isa"
)

// NextEvent reports the earliest cycle after now at which this SM's
// observable state (or any statistic it records) can change, assuming the SM
// was just stepped at now and no replies arrive before the reported cycle.
// math.MaxInt64 means the SM is fully event-driven until something external
// (a reply, a CTA launch) reaches it. Underestimating is safe — the engine
// merely steps a cycle in which nothing happens, exactly as the serial loop
// would — but overestimating would skip observable work, so every path here
// is conservative.
func (s *SM) NextEvent(now int64) int64 {
	// An instruction issued this cycle usually means another can issue next
	// cycle; claiming so without scanning the warps is a safe underestimate.
	if s.lastIssue == now {
		return now + 1
	}
	// While the stall cache is valid the SM is frozen or parked: the horizon
	// computed when it was set still holds, no scan needed. A parked head's
	// refusals are batch-accounted, so they do not bound the horizon; an
	// injection slot freeing is the request network's own event.
	if s.stallUntil > now+1 {
		return s.stallUntil
	}
	// An LD/ST queue that is not parked presents an access next cycle, and
	// every attempt mutates the Figure 3 outcome counters.
	if s.ldstQ.Len() > 0 {
		return now + 1
	}
	return s.wakeAt(now)
}

// wakeAt returns the earliest cycle after now at which an internal deadline
// falls due: a writeback or L1-hit head, or a busy function unit freeing for
// a warp that waits only on it. Warps blocked by the scoreboard wake via a
// writeback or reply event, both covered elsewhere; warps at a barrier wake
// via another warp's issue. Under a full LD/ST queue the LD/ST unit is left
// out: its warps wait for the queue's head, which only an accepted access
// moves.
func (s *SM) wakeAt(now int64) int64 {
	// Every event queue is a FIFO ring, so each head is its earliest deadline.
	horizon := int64(math.MaxInt64)
	for c := range s.wb {
		if s.wb[c].Len() > 0 {
			horizon = min(horizon, s.wb[c].Peek().at)
		}
	}
	if s.hitEvents.Len() > 0 {
		horizon = min(horizon, s.hitEvents.Peek().at)
	}
	ldstFull := s.ldstQ.Len() >= s.cfg.LDSTQueueCap
	if s.readySets {
		return max(s.readyUnitFree(horizon, ldstFull), now+1)
	}
	for _, wc := range s.warps {
		if wc.w.AtBarrier {
			continue
		}
		in := wc.w.NextInst()
		if in == nil || !wc.scoreboardReady(in) || ldstFull && in.Unit() == isa.UnitLDST {
			continue
		}
		horizon = min(horizon, s.unitBusyUntil[in.Unit()])
	}
	return max(horizon, now+1)
}

// FlushIdle folds the open idle window's cycles before end into the
// occupancy statistics, so the collector holds every cycle before end exactly
// as the per-cycle recording of the naive engine would. It also drops the
// stall cache: the next Step, at end or later, is a real one and opens a new
// window if the SM is still frozen. The GPU calls it on every return from a
// launch, with end the first cycle it did not step.
func (s *SM) FlushIdle(end int64) {
	s.foldIdle(end)
	s.stallUntil = 0
}

// foldIdle accounts the open idle window's cycles before end and closes it,
// unparking the SM.
func (s *SM) foldIdle(end int64) {
	if s.idleFrom != 0 {
		s.accountIdle(s.idleFrom, end-s.idleFrom)
		s.idleFrom = 0
		s.parked = false
	}
}

// accountIdle folds n frozen cycles starting at from into the statistics,
// producing byte-identical counters to n per-cycle steps. Nothing issues
// while the SM is frozen and its LD/ST queue does not move, so each unit's
// busy cycles are just the clamped tail of its busy-until horizon, except
// that a full queue keeps the LD/ST unit busy throughout. A parked head
// repeats its refusal once per cycle: tryLoad records it in Figure 3 for a
// global load, and the L1 counts it unless it never reached the L1 (a
// bypassing load or a store refused by the network).
func (s *SM) accountIdle(from, n int64) {
	s.col.RecordSMCycles(uint64(n))
	for u := range s.unitBusyUntil {
		busy := min(max(s.unitBusyUntil[u]-from, 0), n)
		if isa.FuncUnit(u) == isa.UnitLDST && s.ldstQ.Len() >= s.cfg.LDSTQueueCap {
			busy = n
		}
		if busy > 0 {
			s.col.RecordUnitCycles(isa.FuncUnit(u), uint64(busy))
		}
	}
	if !s.parked {
		return
	}
	f := s.fail
	if f.fig3 {
		s.col.RecordL1Refusals(f.cat, f.outcome, uint64(n))
	}
	if f.l1 {
		s.L1.Accesses[f.outcome] += uint64(n)
	}
}
