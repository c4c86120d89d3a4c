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
	// A non-empty LD/ST queue retries an access every cycle, and every
	// attempt mutates the Figure 3 outcome counters: unskippable.
	if s.ldstQ.Len() > 0 {
		return now + 1
	}
	// An instruction issued this cycle usually means another can issue next
	// cycle; claiming so without scanning the warps is a safe underestimate.
	if s.lastIssue == now {
		return now + 1
	}
	// While the stall cache is valid the SM is frozen: the horizon computed
	// when it was set still holds, no scan needed.
	if s.stallUntil > now+1 {
		return s.stallUntil
	}
	horizon := int64(math.MaxInt64)
	for i := range s.wbEvents {
		if t := s.wbEvents[i].at; t < horizon {
			horizon = t
		}
	}
	if s.hitEvents.Len() > 0 {
		horizon = min(horizon, s.hitEvents.Peek().at) // FIFO: the head is the earliest
	}
	// Warps blocked only by a busy function unit wake when it frees. Warps
	// blocked by the scoreboard wake via a writeback or reply event, both
	// covered elsewhere; warps at a barrier wake via another warp's issue.
	if s.readySets {
		return max(s.readyUnitFree(horizon), now+1)
	}
	for _, wc := range s.warps {
		if wc.w.AtBarrier {
			continue
		}
		in := wc.w.NextInst()
		if in == nil || !wc.scoreboardReady(in) {
			continue
		}
		t := s.unitBusyUntil[in.Unit()]
		if t <= now {
			return now + 1 // eligible immediately
		}
		if t < horizon {
			horizon = t
		}
	}
	if horizon <= now {
		horizon = now + 1
	}
	return horizon
}

// AccountIdle folds a skipped window of n cycles starting at from into the
// occupancy statistics, producing byte-identical counters to n per-cycle
// recordOccupancy calls. The fast-forward contract guarantees the LD/ST
// queue stays empty across the window, so each unit's busy cycles are just
// the clamped tail of its busy-until horizon.
func (s *SM) AccountIdle(from, n int64) {
	s.col.RecordSMCycles(uint64(n))
	for u := range s.unitBusyUntil {
		if busy := min(max(s.unitBusyUntil[u]-from, 0), n); busy > 0 {
			s.col.RecordUnitCycles(isa.FuncUnit(u), uint64(busy))
		}
	}
}
