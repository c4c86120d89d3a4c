package sm

import (
	"bytes"
	"fmt"
	"testing"

	"critload/internal/checkpoint"
	"critload/internal/emu"
	"critload/internal/mem"
	"critload/internal/memreq"
	"critload/internal/stats"
)

// deadLoadSrc is the kernel of the CTA-recycling fixtures. Every CTA issues
// one load into %r4. Even CTAs never read it: they exit, and so retire, with
// the load still in flight. Odd CTAs wait for it, so a late completion of an
// even CTA's load that reached a reused context would clear an odd CTA's
// scoreboard early. shift sets the addresses: 2 keeps a warp's load in one
// request, 3 spreads it over two.
const deadLoadSrc = `
.kernel deadload
.param .u32 a
    mov.u32      %%r0, %%tid.x;
    shl.u32      %%r1, %%r0, %d;
    ld.param.u32 %%r2, [a];
    add.u32      %%r3, %%r2, %%r1;
    mov.u32      %%r5, %%ctaid.x;
    rem.u32      %%r5, %%r5, 2;
    setp.eq.u32  %%p0, %%r5, 0;
    ld.global.u32 %%r4, [%%r3];
@%%p0 exit;
    add.u32      %%r6, %%r4, 1;
    exit;
`

// recycleFixtures retire CTAs with a dead load on more CTAs than the SM has
// slots (8), so the fast-forward SM reuses contexts while loads of their
// previous CTAs are in flight.
var recycleFixtures = []struct {
	name               string
	shift              int
	blockFrom, blockTo int64
}{
	// The network refuses injections for a while: the warps' requests wait
	// in the LD/ST queue while their CTAs retire.
	{name: "retire-with-queued-load", shift: 3, blockFrom: 5, blockTo: 100},
	// One request per warp, accepted at once: the CTA retires while the load
	// awaits its reply.
	{name: "retire-awaiting-reply", shift: 2},
}

func collectorBytes(t *testing.T, c *stats.Collector) []byte {
	t.Helper()
	w := checkpoint.NewWriter()
	c.Snapshot(w)
	return w.Bytes()
}

// TestRecycledCTAsMatchNaive drives a fast-forward SM, which reuses retired
// CTA contexts, and a naive twin, which allocates every one fresh, through
// the recycling fixtures in lockstep. They must issue the same instructions
// every cycle and end with identical statistics. The fixtures must really
// retire CTAs with references in flight, and the fast SM must really reuse.
//
// A context freed at retire regardless of refs fails this test,
// TestReadySetsMatchScan and TestIdleAccountingMatchesNaive on both
// fixtures; TestFastForwardMatchesSerialLoop does not catch it.
func TestRecycledCTAsMatchNaive(t *testing.T) {
	for _, pol := range []Policy{LRR, GTO} {
		for _, fx := range recycleFixtures {
			t.Run(pol.String()+"/"+fx.name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Policy = pol
				k := mustKernel(t, fmt.Sprintf(deadLoadSrc, fx.shift))
				const grid = 24
				fast := newRig(t, cfg, true, k, grid, 64, 1<<20)
				naive := newRig(t, cfg, false, k, grid, 64, 1<<20)
				contexts := [2]map[*ctaCtx]bool{{}, {}}
				retiredInFlight := false
				var now int64
				for ; ; now++ {
					if now > 200000 {
						t.Fatal("SM never drained")
					}
					blocked := fx.blockFrom <= now && now < fx.blockTo
					fast.mb.blocked, naive.mb.blocked = blocked, blocked
					more := fast.step(t, now)
					if naive.step(t, now) != more {
						t.Fatalf("cycle %d: engines disagree on being done", now)
					}
					if f, n := fast.s.InstructionsIssued, naive.s.InstructionsIssued; f != n {
						t.Fatalf("cycle %d: %d instructions issued reusing contexts, %d allocating them", now, f, n)
					}
					for i, r := range []*rig{fast, naive} {
						for _, cc := range r.s.ctas {
							contexts[i][cc] = true
						}
					}
					for cc := range contexts[0] {
						retiredInFlight = retiredInFlight || cc.retired && cc.refs > 0
					}
					if !more {
						break
					}
				}
				fast.s.FlushIdle(now + 1)
				if !bytes.Equal(collectorBytes(t, fast.s.col), collectorBytes(t, naive.s.col)) {
					t.Error("statistics differ between reused and fresh contexts")
				}
				if !retiredInFlight {
					t.Error("no CTA retired with a writeback or load in flight")
				}
				if f, n := len(contexts[0]), len(contexts[1]); f >= grid || n != grid {
					t.Errorf("%d contexts under fast-forward, %d naive; want fewer than %d and %d", f, n, grid, grid)
				}
			})
		}
	}
}

// TestLaunchCTADoesNotAllocate pins the launch path under fast-forward:
// after one warm launch, run and retire, launching a CTA into a reused
// context, running it to its last reply and retiring it allocate nothing.
func TestLaunchCTADoesNotAllocate(t *testing.T) {
	s, mb, _ := newTestSM(t)
	s.SetFastForward(true)
	s.SetPool(&memreq.Pool{})
	k := mustKernel(t, fmt.Sprintf(deadLoadSrc, 2))
	l := &emu.Launch{Kernel: k, Grid: emu.Dim1(2), Block: emu.Dim1(256), Params: []uint32{1 << 20}}
	s.SetKernel(&emu.Env{Mem: mem.New(), Launch: l}, k.Name, nil)
	now := int64(0)
	cycle := func() {
		s.LaunchCTA(l, 1) // odd: every warp waits for its load
		for ; !s.Idle(); now++ {
			for _, r := range mb.injected {
				if r.InjectedICNT+replyAfter == now {
					r.Serviced = memreq.LvlL2
					s.HandleReply(r, now)
				}
			}
			if err := s.Step(now); err != nil {
				t.Fatal(err)
			}
		}
		mb.injected = mb.injected[:0]
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("a launch, run and retire allocate %v times", n)
	}
	if mb.finished != 22 || len(s.ctaFree) != 1 {
		t.Errorf("%d CTAs retired, %d contexts free; want 22, 1", mb.finished, len(s.ctaFree))
	}
}
