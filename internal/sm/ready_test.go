package sm

import (
	"bytes"
	"fmt"
	"testing"

	"critload/internal/emu"
	"critload/internal/mem"
	"critload/internal/memreq"
	"critload/internal/ptx"
	"critload/internal/stats"
)

// rig is one SM under a scripted backend: CTAs of a grid are handed out as
// resources allow, and every injected load is answered replyAfter cycles
// later, replies first in the cycle as the GPU loop delivers them.
type rig struct {
	s       *SM
	mb      *mockBackend
	l       *emu.Launch
	nextCTA int
	replied int
}

const replyAfter = 40

func newRig(t *testing.T, cfg Config, fastForward bool, k *ptx.Kernel, grid, block int, params ...uint32) *rig {
	t.Helper()
	mb := &mockBackend{}
	s, err := New(0, cfg, testLat(), mb, stats.New())
	if err != nil {
		t.Fatal(err)
	}
	s.SetFastForward(fastForward)
	l := &emu.Launch{Kernel: k, Grid: emu.Dim1(grid), Block: emu.Dim1(block), Params: params}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	s.SetKernel(&emu.Env{Mem: mem.New(), Launch: l}, k.Name, nil)
	return &rig{s: s, mb: mb, l: l}
}

// step runs one cycle and reports whether the rig still has work.
func (r *rig) step(t *testing.T, now int64) bool {
	t.Helper()
	for r.replied < len(r.mb.injected) && r.mb.injected[r.replied].InjectedICNT+replyAfter <= now {
		req := r.mb.injected[r.replied]
		req.Serviced = memreq.LvlL2
		r.s.HandleReply(req, now)
		r.replied++
	}
	if err := r.s.Step(now); err != nil {
		t.Fatalf("Step(%d): %v", now, err)
	}
	for r.nextCTA < r.l.Grid.Count() && r.s.CanAccept(r.l) {
		r.s.LaunchCTA(r.l, r.nextCTA)
		r.nextCTA++
	}
	return r.nextCTA < r.l.Grid.Count() || !r.s.Idle() || r.replied < len(r.mb.injected)
}

// drain steps the rig until it has no work left.
func (r *rig) drain(t *testing.T) {
	t.Helper()
	for now := int64(0); r.step(t, now); now++ {
		if now > 1_000_000 {
			t.Fatal("SM never drained")
		}
	}
}

// scanReadySets evaluates the ready-set invariant from scratch with the
// naive engine's predicates.
func scanReadySets(s *SM) ([]readySet, error) {
	want := make([]readySet, len(s.schedWarps))
	for sched, mine := range s.schedWarps {
		for pos, wc := range mine {
			if wc.sched != sched || wc.pos != pos {
				return nil, fmt.Errorf("warp age %d records position %d/%d, is at %d/%d",
					wc.age, wc.sched, wc.pos, sched, pos)
			}
			if wc.w.AtBarrier {
				continue
			}
			if in := wc.w.NextInst(); in != nil && wc.scoreboardReady(in) {
				want[sched][in.Unit()] |= 1 << pos
			}
		}
	}
	return want, nil
}

var readyFixtures = []struct {
	name        string
	src         string
	shared      int
	grid, block int
	params      []uint32
	// blockNet makes the request network refuse injections over this window.
	blockFrom, blockTo int64
}{
	{name: "alu", grid: 1, block: 256, src: `
.kernel alu
    mov.u32 %r0, 1;
    add.u32 %r1, %r0, 2;
    mul.u32 %r2, %r1, %r1;
    exit;
`},
	{name: "raw+sfu", grid: 1, block: 128, src: `
.kernel raw
    mov.f32  %r0, 2.0;
    sqrt.f32 %r1, %r0;
    add.f32  %r2, %r1, %r0;
    sqrt.f32 %r3, %r2;
    setp.lt.u32 %p0, %r3, 9;
@%p0 add.u32 %r4, %r3, 1;
    exit;
`},
	{name: "uncoalesced+blocked-net", grid: 1, block: 192, params: []uint32{1 << 20}, blockFrom: 30, blockTo: 120, src: `
.kernel scatter
.param .u32 a
    mov.u32      %r0, %tid.x;
    shl.u32      %r1, %r0, 7;
    ld.param.u32 %r2, [a];
    add.u32      %r3, %r2, %r1;
    ld.global.u32 %r4, [%r3];
    add.u32      %r5, %r4, 1;
    st.global.u32 [%r3], %r5;
    exit;
`},
	{name: "barrier", grid: 2, block: 128, shared: 128 * 4, src: `
.kernel bar1
    mov.u32      %r0, %tid.x;
    shl.u32      %r1, %r0, 2;
    st.shared.u32 [%r1], %r0;
    bar.sync;
    mov.u32      %r2, 127;
    sub.u32      %r3, %r2, %r0;
    shl.u32      %r4, %r3, 2;
    ld.shared.u32 %r5, [%r4];
    bar.sync;
    add.u32      %r6, %r5, 1;
    exit;
`},
	// CTAs retire with loads in flight, on three times as many CTAs as the
	// SM has slots; see recycleFixtures.
	{name: "retire-with-queued-load", grid: 24, block: 64, params: []uint32{1 << 20},
		blockFrom: 5, blockTo: 100, src: fmt.Sprintf(deadLoadSrc, 3)},
	{name: "retire-awaiting-reply", grid: 24, block: 64, params: []uint32{1 << 20},
		src: fmt.Sprintf(deadLoadSrc, 2)},
	// CTAs loop ctaid-many times, so they retire out of launch order while
	// later ones are still being launched: positions renumber under live warps.
	{name: "multi-cta-retire", grid: 24, block: 96, params: []uint32{1 << 16}, src: `
.kernel stagger
.param .u32 a
    mov.u32      %r0, %ctaid.x;
    rem.u32      %r0, %r0, 5;
    ld.param.u32 %r2, [a];
    mov.u32      %r3, %tid.x;
    shl.u32      %r3, %r3, 2;
    add.u32      %r3, %r3, %r2;
LOOP:
    setp.eq.u32  %p0, %r0, 0;
@%p0 bra DONE;
    ld.global.u32 %r4, [%r3];
    add.u32      %r3, %r3, %r4;
    sub.u32      %r0, %r0, 1;
    bra LOOP;
DONE:
    exit;
`},
}

// TestReadySetsMatchScan drives a fast-forward SM and a naive twin through
// the same script in lockstep. After every cycle the fast-forward SM's ready
// sets must equal the invariant evaluated from scratch, and the two must have
// issued the same number of instructions and report the same horizon.
func TestReadySetsMatchScan(t *testing.T) {
	for _, pol := range []Policy{LRR, GTO} {
		for _, fx := range readyFixtures {
			t.Run(pol.String()+"/"+fx.name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Policy = pol
				k := mustKernel(t, fx.src)
				k.SharedBytes = fx.shared
				fast := newRig(t, cfg, true, k, fx.grid, fx.block, fx.params...)
				naive := newRig(t, cfg, false, k, fx.grid, fx.block, fx.params...)
				if !fast.s.readySets || naive.s.readySets {
					t.Fatal("ready sets must follow SetFastForward")
				}
				for now := int64(0); ; now++ {
					if now > 200000 {
						t.Fatal("SM never drained")
					}
					blocked := fx.blockFrom <= now && now < fx.blockTo
					fast.mb.blocked, naive.mb.blocked = blocked, blocked
					more := fast.step(t, now)
					if naive.step(t, now) != more {
						t.Fatalf("cycle %d: engines disagree on being done", now)
					}
					want, err := scanReadySets(fast.s)
					if err != nil {
						t.Fatalf("cycle %d: %v", now, err)
					}
					for sched := range want {
						if fast.s.ready[sched] != want[sched] {
							t.Fatalf("cycle %d scheduler %d: ready sets %x, scan says %x",
								now, sched, fast.s.ready[sched], want[sched])
						}
					}
					if f, n := fast.s.InstructionsIssued, naive.s.InstructionsIssued; f != n {
						t.Fatalf("cycle %d: issued %d under ready sets, %d under the scan", now, f, n)
					}
					if f, n := fast.s.NextEvent(now), naive.s.NextEvent(now); f != n {
						t.Fatalf("cycle %d: NextEvent %d under ready sets, %d under the scan", now, f, n)
					}
					if !more {
						break
					}
				}
				if fast.s.InstructionsIssued == 0 || fast.mb.finished != fx.grid {
					t.Fatalf("fixture did not run: %d instructions, %d/%d CTAs",
						fast.s.InstructionsIssued, fast.mb.finished, fx.grid)
				}
			})
		}
	}
}

// TestIdleAccountingMatchesNaive drives a fast-forward SM and a naive twin
// through the ready-set fixtures in lockstep. A frozen fast-forward SM
// records no occupancy until its idle window is folded in, so at irregular
// cycles and at drain the test flushes it; both collectors must then hold the
// same SM cycles and per-unit busy cycles. After every step neither SM may
// still hold a due writeback. Each fixture also runs with SPInit 0, under
// which both schedulers issue to the SP unit in one cycle and two SP
// writebacks fall due together.
//
// Each of these hand mutations fails this test or
// TestFastForwardMatchesSerialLoop:
//   - the idle window opened at now instead of now+1 (here: a cycle counted
//     twice);
//   - the FlushIdle at the end of GPU.LaunchKernel dropped (there: the last
//     frozen cycles of each launch go missing);
//   - processWritebacks popping at most one event per ring per cycle (here,
//     under SPInit 0: a due writeback left queued).
func TestIdleAccountingMatchesNaive(t *testing.T) {
	for _, pol := range []Policy{LRR, GTO} {
		for _, spInit := range []int64{DefaultConfig().SPInit, 0} {
			for _, fx := range readyFixtures {
				t.Run(fmt.Sprintf("%v/spinit%d/%s", pol, spInit, fx.name), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Policy, cfg.SPInit = pol, spInit
					k := mustKernel(t, fx.src)
					k.SharedBytes = fx.shared
					fast := newRig(t, cfg, true, k, fx.grid, fx.block, fx.params...)
					naive := newRig(t, cfg, false, k, fx.grid, fx.block, fx.params...)
					var maxLag uint64 // cycles the fast SM had yet to account
					flushAndCompare := func(now int64) {
						t.Helper()
						fast.s.FlushIdle(now + 1)
						f, n := fast.s.col, naive.s.col
						if f.SMCycles != n.SMCycles || f.UnitBusy != n.UnitBusy {
							t.Fatalf("cycle %d: %d SM cycles, unit busy %v after the flush; naive %d, %v",
								now, f.SMCycles, f.UnitBusy, n.SMCycles, n.UnitBusy)
						}
					}
					for now := int64(0); ; now++ {
						if now > 200000 {
							t.Fatal("SM never drained")
						}
						blocked := fx.blockFrom <= now && now < fx.blockTo
						fast.mb.blocked, naive.mb.blocked = blocked, blocked
						more := fast.step(t, now)
						if naive.step(t, now) != more {
							t.Fatalf("cycle %d: engines disagree on being done", now)
						}
						for _, s := range []*SM{fast.s, naive.s} {
							for c := range s.wb {
								if s.wb[c].Len() > 0 && s.wb[c].Peek().at <= now {
									t.Fatalf("cycle %d: a class %d writeback due at %d is still queued",
										now, c, s.wb[c].Peek().at)
								}
							}
						}
						maxLag = max(maxLag, naive.s.col.SMCycles-fast.s.col.SMCycles)
						if !more {
							flushAndCompare(now)
							break
						}
						if now%37 == 0 {
							flushAndCompare(now)
						}
					}
					// alu issues in every cycle until it exits, so it never freezes.
					if maxLag == 0 && fx.name != "alu" {
						t.Error("the fast-forward SM never froze; no idle window was exercised")
					}
				})
			}
		}
	}
}

// TestSnapshotUnchangedByReadySets runs the multi-CTA fixture to the launch
// boundary with and without ready sets (both under the stall cache) and
// requires identical snapshot bytes: the sets are derived state, empty at a
// boundary, and leave the serialized scheduler cursors where the scan does.
func TestSnapshotUnchangedByReadySets(t *testing.T) {
	fx := readyFixtures[len(readyFixtures)-1]
	var snaps [2][]byte
	for i, sets := range []bool{true, false} {
		r := newRig(t, DefaultConfig(), true, mustKernel(t, fx.src), fx.grid, fx.block, fx.params...)
		r.s.readySets = sets
		r.drain(t)
		for sched := range r.s.ready {
			if r.s.ready[sched] != (readySet{}) {
				t.Errorf("scheduler %d: ready sets %x on an idle SM", sched, r.s.ready[sched])
			}
		}
		snaps[i] = snapBytes(t, r.s)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Errorf("snapshot differs with ready sets: %d vs %d bytes", len(snaps[0]), len(snaps[1]))
	}
}

// TestQueueCapacityStaysBounded is ring.TestCapacityStaysBounded's SM-level
// sibling: the LD/ST queue, the hit-event queue and the four writeback queues
// are rings whose capacity follows their depth (LDSTQueueCap, L1.HitLatency,
// at most NumSchedulers pushes per cycle for a class's latency), not the
// traffic through them.
func TestQueueCapacityStaysBounded(t *testing.T) {
	k := mustKernel(t, `
.kernel hits
.param .u32 a
    ld.param.u32 %r0, [a];
    mov.u32      %r1, 2000;
LOOP:
    ld.global.u32 %r2, [%r0];
    ld.global.u32 %r3, [%r0+128];
    sub.u32      %r1, %r1, 1;
    setp.ne.u32  %p0, %r1, 0;
@%p0 bra LOOP;
    exit;
`)
	r := newRig(t, DefaultConfig(), true, k, 1, 256, 4096)
	r.drain(t)
	hits := r.s.col.L1Outcomes[stats.Det][0]
	if hits < 10000 {
		t.Fatalf("only %d L1 hits; the queues were not exercised", hits)
	}
	if c := r.s.ldstQ.Cap(); c > 2*r.s.cfg.LDSTQueueCap {
		t.Errorf("ldstQ capacity %d for a queue bounded at %d", c, r.s.cfg.LDSTQueueCap)
	}
	if c := r.s.hitEvents.Cap(); int64(c) > 2*r.s.cfg.L1.HitLatency {
		t.Errorf("hitEvents capacity %d with a hit latency of %d cycles", c, r.s.cfg.L1.HitLatency)
	}

	// Every warp keeps all four writeback classes busy for 500 iterations.
	k = mustKernel(t, `
.kernel classes
.param .u32 n
    mov.u32       %r0, %tid.x;
    shl.u32       %r1, %r0, 2;
    st.shared.u32 [%r1], %r0;
    ld.param.u32  %r2, [n];
LOOP:
    ld.param.u32  %r3, [n];
    ld.shared.u32 %r4, [%r1];
    sqrt.f32      %r5, %r4;
    add.u32       %r6, %r3, %r4;
    sub.u32       %r2, %r2, 1;
    setp.ne.u32   %p0, %r2, 0;
@%p0 bra LOOP;
    exit;
`)
	k.SharedBytes = 256 * 4
	r = newRig(t, DefaultConfig(), true, k, 1, 256, 500)
	r.drain(t)
	if n := r.s.col.SLoadWarps; n != 8*500 {
		t.Fatalf("%d shared-load warps, want %d; the fixture did not run", n, 8*500)
	}
	for c := range r.s.wb {
		bound := 2 * int64(r.s.cfg.NumSchedulers) * r.s.wbLat[c]
		if n := r.s.wb[c].Cap(); n == 0 || int64(n) > bound {
			t.Errorf("writeback class %d: capacity %d, want 1..%d", c, n, bound)
		}
	}
}

// frozenSM returns an SM whose 48 warps all wait on loads that are never
// answered, with every cycle before the returned one stepped. Under
// fast-forward it is frozen until a reply arrives.
func frozenSM(tb testing.TB, fastForward bool) (*SM, int64) {
	tb.Helper()
	prog, err := ptx.Parse(`
.kernel frozen
.param .u32 a
    mov.u32      %r0, %tid.x;
    shl.u32      %r1, %r0, 2;
    ld.param.u32 %r2, [a];
    add.u32      %r3, %r2, %r1;
    ld.global.u32 %r4, [%r3];       // one block per warp
    add.u32      %r5, %r4, 1;       // every warp: blocked on the unanswered load
    exit;
`)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(0, DefaultConfig(), testLat(), &mockBackend{}, stats.New())
	if err != nil {
		tb.Fatal(err)
	}
	s.SetFastForward(fastForward)
	l := &emu.Launch{Kernel: prog.Kernels[0], Grid: emu.Dim1(1), Block: emu.Dim1(48 * emu.WarpSize), Params: []uint32{1 << 20}}
	s.SetKernel(&emu.Env{Mem: mem.New(), Launch: l}, "frozen", nil)
	s.LaunchCTA(l, 0)
	now := int64(0)
	for ; now < 1000; now++ {
		if err := s.Step(now); err != nil {
			tb.Fatal(err)
		}
	}
	if s.InstructionsIssued != 48*5 || fastForward && now >= s.stallUntil {
		tb.Fatalf("not frozen: %d issued, stalled until %d at cycle %d", s.InstructionsIssued, s.stallUntil, now)
	}
	return s, now
}

// TestFrozenStepDoesNotAllocate pins the frozen path: steps of a frozen SM
// and the flush that folds their occupancy in allocate nothing, and the flush
// leaves the collector holding every cycle stepped.
func TestFrozenStepDoesNotAllocate(t *testing.T) {
	s, now := frozenSM(t, true)
	frozen := func() {
		for i := 0; i < 64; i++ {
			if err := s.Step(now); err != nil {
				t.Fatal(err)
			}
			now++
		}
		s.FlushIdle(now)
	}
	if n := testing.AllocsPerRun(100, frozen); n != 0 {
		t.Errorf("frozen steps and a flush allocate %v times", n)
	}
	if c := s.col.SMCycles; c != uint64(now) {
		t.Errorf("%d SM cycles recorded after stepping cycles 0..%d", c, now-1)
	}
}

// BenchmarkSMFrozen is the frozen-SM layer: one op is a Step of an SM whose
// 48 warps all wait on unanswered loads. Under fast-forward it is one compare
// (the idle window accounts the cycle later); the naive engine, which never
// freezes, runs the full step.
func BenchmarkSMFrozen(b *testing.B) {
	for _, ff := range []bool{true, false} {
		name := "naive"
		if ff {
			name = "fastforward"
		}
		b.Run(name, func(b *testing.B) {
			s, now := frozenSM(b, ff)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(now); err != nil {
					b.Fatal(err)
				}
				now++
			}
			b.StopTimer()
			s.FlushIdle(now)
			if s.InstructionsIssued != 48*5 || s.col.SMCycles != uint64(now) {
				b.Fatalf("%d issued, %d SM cycles over %d cycles", s.InstructionsIssued, s.col.SMCycles, now)
			}
		})
	}
}

// BenchmarkSMIssue is the ledger's "sm issue" layer in the regime the paper
// studies: one SM, 48 resident warps all scoreboard-blocked behind an
// outstanding load, and an LD/ST queue whose head retries a reservation
// failure every cycle (so neither the stall cache nor cycle skipping can
// engage). One op is one SM.Step.
func BenchmarkSMIssue(b *testing.B) {
	prog, err := ptx.Parse(`
.kernel stalled
.param .u32 a
    mov.u32      %r0, %tid.x;
    shl.u32      %r1, %r0, 2;
    ld.param.u32 %r2, [a];
    add.u32      %r3, %r2, %r1;
    ld.global.u32 %r4, [%r3];       // one block per warp: 48 MSHR entries
    bar.sync;
    setp.ge.u32  %p0, %r0, 128;
@%p0 bra WAIT;
    ld.global.u32 %r6, [%r3+65536]; // warps 0-3: no MSHR left, stuck at the queue head
WAIT:
    add.u32      %r5, %r4, 1;       // every warp: blocked on the unanswered load
    exit;
`)
	if err != nil {
		b.Fatal(err)
	}
	for _, ff := range []bool{true, false} {
		name := "naive"
		if ff {
			name = "fastforward"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.L1.MSHREntries = 48
			s, err := New(0, cfg, testLat(), &mockBackend{}, stats.New())
			if err != nil {
				b.Fatal(err)
			}
			s.SetFastForward(ff)
			l := &emu.Launch{Kernel: prog.Kernels[0], Grid: emu.Dim1(1), Block: emu.Dim1(48 * emu.WarpSize), Params: []uint32{1 << 20}}
			s.SetKernel(&emu.Env{Mem: mem.New(), Launch: l}, "stalled", nil)
			s.LaunchCTA(l, 0)
			now := int64(0)
			for ; now < 2000; now++ { // replies never come: reach the steady stall
				if err := s.Step(now); err != nil {
					b.Fatal(err)
				}
			}
			issued := s.InstructionsIssued
			if s.ldstQ.Len() != 4 || issued != 48*8+4 {
				b.Fatalf("not in the stalled regime: %d ops queued, %d issued", s.ldstQ.Len(), issued)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(now); err != nil {
					b.Fatal(err)
				}
				now++
			}
			if s.InstructionsIssued != issued {
				b.Fatalf("warps issued during the stall")
			}
		})
	}
}
