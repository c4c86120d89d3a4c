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

// foldIdle accounts the open idle window's cycles before end and closes it.
func (s *SM) foldIdle(end int64) {
	if s.idleFrom != 0 {
		s.accountIdle(s.idleFrom, end-s.idleFrom)
		s.idleFrom = 0
	}
}

// accountIdle folds n frozen cycles starting at from into the occupancy
// statistics, producing byte-identical counters to n per-cycle
// recordOccupancy calls. Nothing issues while the SM is frozen and its LD/ST
// queue stays empty, so each unit's busy cycles are just the clamped tail of
// its busy-until horizon.
func (s *SM) accountIdle(from, n int64) {
	s.col.RecordSMCycles(uint64(n))
	for u := range s.unitBusyUntil {
		if busy := min(max(s.unitBusyUntil[u]-from, 0), n); busy > 0 {
			s.col.RecordUnitCycles(isa.FuncUnit(u), uint64(busy))
		}
	}
}
