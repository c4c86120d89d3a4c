package sm

import (
	"critload/internal/checkpoint"
	"critload/internal/isa"
)

// snapTag marks one SM section of a checkpoint payload.
const snapTag = 0x534D3030 // "SM00"

// Snapshot serializes the SM state that persists across kernel-launch
// boundaries: the private L1 (tags, LRU timestamps, outcome counters), the
// function-unit busy horizons (an instruction issued near the end of a launch
// can occupy a unit past the boundary), the scheduler cursors and warp-age
// counter (they decide future scheduling order), the stall cache, and the
// monotonic counters. Everything else — warps, CTAs, the LD/ST queue, event
// queues, in-flight requests — is empty at a boundary by the drain contract,
// and snapshotting a busy SM is a caller bug. So is snapshotting an SM whose
// idle window is still open: its cycles would be missing from the collector
// saved beside it (FlushIdle closes it).
func (s *SM) Snapshot(w *checkpoint.Writer) {
	if !s.Idle() || len(s.ctas) != 0 {
		panic("sm: snapshot of a busy SM")
	}
	if s.idleFrom != 0 {
		panic("sm: snapshot with an open idle window")
	}
	w.Tag(snapTag)
	s.L1.Snapshot(w)
	w.Int(len(s.unitBusyUntil))
	for u := range s.unitBusyUntil {
		w.I64(s.unitBusyUntil[u])
	}
	w.Int(len(s.rr))
	for _, v := range s.rr {
		w.Int(v)
	}
	w.Int(s.age)
	w.I64(s.lastIssue)
	w.I64(s.stallUntil)
	w.U64(s.nextReqID)
	w.U64(s.InstructionsIssued)
}

// Restore loads a snapshot into an identically-configured, idle SM.
func (s *SM) Restore(r *checkpoint.Reader) error {
	if !s.Idle() || len(s.ctas) != 0 {
		r.Failf("sm: restore into a busy SM")
		return r.Err()
	}
	r.Tag(snapTag)
	if err := s.L1.Restore(r); err != nil {
		return err
	}
	if n := r.Int(); r.Err() == nil && n != int(isa.NumFuncUnits) {
		r.Failf("sm: snapshot has %d function units, want %d", n, int(isa.NumFuncUnits))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for u := range s.unitBusyUntil {
		s.unitBusyUntil[u] = r.I64()
	}
	if n := r.Int(); r.Err() == nil && n != len(s.rr) {
		r.Failf("sm: snapshot has %d schedulers, SM has %d", n, len(s.rr))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i := range s.rr {
		s.rr[i] = r.Int()
	}
	s.age = r.Int()
	s.lastIssue = r.I64()
	s.stallUntil = r.I64()
	s.nextReqID = r.U64()
	s.InstructionsIssued = r.U64()
	return r.Err()
}
