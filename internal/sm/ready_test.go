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
// sibling: the LD/ST queue and the hit-event queue are rings whose capacity
// follows their depth (LDSTQueueCap, L1.HitLatency), not the traffic through
// them.
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
