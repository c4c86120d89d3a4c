package sm

import (
	"math/bits"

	"critload/internal/isa"
)

// Scheduler ready sets, the fast-forward engine's replacement for the
// every-cycle eligible() scan (the naive engine keeps the scan, which is the
// executable definition of what follows).
//
// Invariant: bit p of ready[sched][u] is set exactly when the warp
// wc = schedWarps[sched][p] satisfies
//
//	!wc.w.AtBarrier && wc.w.NextInst() != nil &&
//	wc.scoreboardReady(wc.w.NextInst()) && wc.w.NextInst().Unit() == u
//
// Whether unit u can accept an instruction is deliberately not part of the
// set: pickReady evaluates unitBusyUntil and ldstBusy at pick time, so an
// issue by scheduler 0 still blocks scheduler 1 in the same cycle.
//
// Only these events can change a side of the invariant, and each one
// re-evaluates the warps it touches:
//
//   - the warp's own issue (issueWarp): the only caller of Warp.Execute, so
//     the only thing that moves its SIMT stack or sets AtBarrier, and the only
//     place its pending counters rise;
//   - a writeback (processWritebacks) or a load/atomic completion
//     (completeLoadOp): the only places pending counters fall — replies reach
//     the scoreboard through completeLoadOp alone;
//   - a barrier release (maybeReleaseBarrier), for every warp of the CTA;
//   - a CTA launch (new positions appended) and a CTA retire (positions
//     renumbered, renumberReady).
type readySet [isa.NumFuncUnits]uint64

// notReady is warpCtx.readyIn for a warp in none of its scheduler's sets.
const notReady = -1

// hazardFree is scoreboardReady over an instruction's resolved operands.
func (wc *warpCtx) hazardFree(h *isa.Hazard) bool {
	for _, r := range h.Regs[:h.NRegs] {
		if wc.pendingReg[r] > 0 {
			return false
		}
	}
	for _, p := range h.Preds[:h.NPreds] {
		if wc.pendingPred[p] > 0 {
			return false
		}
	}
	return true
}

// refreshReady re-evaluates one warp after an event and moves its bit. A
// finished warp is in no set and stays there, so late writebacks for a warp
// whose CTA already retired never touch a recycled position.
func (s *SM) refreshReady(wc *warpCtx) {
	want := int8(notReady)
	if pc := wc.w.PC(); pc >= 0 && !wc.w.AtBarrier {
		if h := &wc.cta.hazards[pc]; wc.hazardFree(h) {
			want = int8(h.Unit)
		}
	}
	if want == wc.readyIn {
		return
	}
	set, bit := &s.ready[wc.sched], uint64(1)<<wc.pos
	if wc.readyIn != notReady {
		set[wc.readyIn] &^= bit
	}
	if want != notReady {
		set[want] |= bit
	}
	wc.readyIn = want
}

// renumberReady rebuilds positions and sets after retireCTA compacted
// schedWarps; readiness itself did not change.
func (s *SM) renumberReady() {
	for sched, mine := range s.schedWarps {
		s.ready[sched] = readySet{}
		for pos, wc := range mine {
			wc.pos = pos
			if wc.readyIn != notReady {
				s.ready[sched][wc.readyIn] |= 1 << pos
			}
		}
	}
}

// pickReady is pickWarp over the ready sets: OR the sets of the units that
// are free now, then apply the policy to the word.
func (s *SM) pickReady(sched int, now int64) *warpCtx {
	set := &s.ready[sched]
	var m uint64
	if s.unitBusyUntil[isa.UnitSP] <= now {
		m |= set[isa.UnitSP]
	}
	if s.unitBusyUntil[isa.UnitSFU] <= now {
		m |= set[isa.UnitSFU]
	}
	if !s.ldstBusy(now) {
		m |= set[isa.UnitLDST]
	}
	if m == 0 {
		return nil
	}
	mine := s.schedWarps[sched]
	if s.cfg.Policy == GTO {
		// Greedy, then oldest: positions are arrival order.
		if g := s.greedy[sched]; g != nil && m>>g.pos&1 != 0 {
			return g
		}
		return mine[bits.TrailingZeros64(m)]
	}
	// Loose round-robin: first ready position at or after the cursor, else
	// wrap to the lowest.
	start := s.rr[sched] % len(mine)
	pos := bits.TrailingZeros64(m)
	if hi := m >> start << start; hi != 0 {
		pos = bits.TrailingZeros64(hi)
	}
	s.rr[sched] = (pos + 1) % len(mine)
	return mine[pos]
}

// readyUnitFree returns the earliest cycle at which a function unit with a
// scoreboard-ready warp waiting on it is free (possibly in the past), or
// horizon when there is none sooner; wakeAt's warp term. skipLDST leaves the
// LD/ST unit out.
func (s *SM) readyUnitFree(horizon int64, skipLDST bool) int64 {
	for sched := range s.ready {
		for u, set := range s.ready[sched] {
			if skipLDST && isa.FuncUnit(u) == isa.UnitLDST {
				continue
			}
			if set != 0 && s.unitBusyUntil[u] < horizon {
				horizon = s.unitBusyUntil[u]
			}
		}
	}
	return horizon
}
