package sm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"critload/internal/checkpoint"
	"critload/internal/emu"
	"critload/internal/mem"
	"critload/internal/memreq"
	"critload/internal/stats"
)

// sharedNet is a request network two SMs share: it holds at most limit
// unanswered loads across both and answers each latency cycles after its
// injection. A fill at one SM therefore frees an injection slot for the
// other, which may be parked on a refused injection.
type sharedNet struct {
	limit    int
	latency  int64
	injected []*memreq.Request
	replied  int
}

func (n *sharedNet) CanInject(int) bool { return len(n.injected)-n.replied < n.limit }

func (n *sharedNet) Inject(r *memreq.Request, flits int64, now int64) {
	n.injected = append(n.injected, r)
}

func (n *sharedNet) PartitionOf(smID int, block uint32) int { return int(block/128) % 6 }

func (n *sharedNet) CTAFinished(smID int, cta *emu.CTA) {}

// newSharedPair builds two SMs on one sharedNet and one collector, as the
// GPU builds its SMs. SM 0 runs one warp of spreadLoadSrc and SM 1 six, one
// block per thread, so once SM 0 has presented all its requests the replies
// to them free slots only SM 1 wants.
func newSharedPair(t *testing.T, fastForward bool) ([2]*SM, *sharedNet) {
	t.Helper()
	net := &sharedNet{limit: 8, latency: 60}
	col := stats.New()
	k := mustKernel(t, fmt.Sprintf(spreadLoadSrc, 7))
	var sms [2]*SM
	for i, block := range []int{32, 192} {
		s, err := New(i, DefaultConfig(), testLat(), net, col)
		if err != nil {
			t.Fatal(err)
		}
		s.SetFastForward(fastForward)
		l := &emu.Launch{Kernel: k, Grid: emu.Dim1(1), Block: emu.Dim1(block), Params: []uint32{uint32(i+1) << 20}}
		s.SetKernel(&emu.Env{Mem: mem.New(), Launch: l}, k.Name, nil)
		s.LaunchCTA(l, 0)
		sms[i] = s
	}
	return sms, net
}

// stepShared runs one cycle of a pair: replies first, each to its own SM,
// then the SMs in index order. It returns which SMs received a reply and
// whether the pair still has work.
func stepShared(t *testing.T, sms [2]*SM, net *sharedNet, now int64) (replied [2]bool, more bool) {
	t.Helper()
	for net.replied < len(net.injected) && net.injected[net.replied].InjectedICNT+net.latency <= now {
		r := net.injected[net.replied]
		r.Serviced = memreq.LvlL2
		sms[r.SM].HandleReply(r, now)
		replied[r.SM] = true
		net.replied++
	}
	for _, s := range sms {
		if err := s.Step(now); err != nil {
			t.Fatalf("SM %d Step(%d): %v", s.ID, now, err)
		}
	}
	return replied, !sms[0].Idle() || !sms[1].Idle()
}

// TestParkWokenByAnotherSMsFill drives a fast-forward pair of SMs and a naive
// pair through the shared network in lockstep. SM 1 parks on refused
// injections; a fill at SM 0 frees the slot it waits for, and only the
// frozen test's re-read of CanInject can wake it. Every cycle both pairs must
// have issued the same instructions, a parked SM's horizon must equal its
// naive twin's state scanned from scratch, and at drain the shared
// collectors and the L1 counters must be identical.
func TestParkWokenByAnotherSMsFill(t *testing.T) {
	fast, fastNet := newSharedPair(t, true)
	naive, naiveNet := newSharedPair(t, false)
	wokenByOther := 0
	for now := int64(0); ; now++ {
		if now > 100000 {
			t.Fatal("the pair never drained")
		}
		waiting, from := fast[1].parked && fast[1].fail.icnt, fast[1].idleFrom
		replied, more := stepShared(t, fast, fastNet, now)
		if _, m := stepShared(t, naive, naiveNet, now); m != more {
			t.Fatalf("cycle %d: the pairs disagree on being done", now)
		}
		if waiting && replied[0] && !replied[1] && fast[1].idleFrom != from {
			wokenByOther++
		}
		for i := range fast {
			f, n := fast[i], naive[i]
			if f.InstructionsIssued != n.InstructionsIssued {
				t.Fatalf("cycle %d SM %d: issued %d under fast-forward, %d naive",
					now, i, f.InstructionsIssued, n.InstructionsIssued)
			}
			want := n.NextEvent(now)
			if f.parked {
				want = scanWake(n, now)
			}
			if got := f.NextEvent(now); got != want {
				t.Fatalf("cycle %d SM %d: NextEvent %d, want %d (parked %v)", now, i, got, want, f.parked)
			}
		}
		if !more {
			for i := range fast {
				fast[i].FlushIdle(now + 1)
				if fast[i].L1.Accesses != naive[i].L1.Accesses {
					t.Errorf("SM %d: L1 accesses %v, naive %v", i, fast[i].L1.Accesses, naive[i].L1.Accesses)
				}
			}
			if !bytes.Equal(collectorBytes(t, fast[0].col), collectorBytes(t, naive[0].col)) {
				t.Error("collectors differ at drain")
			}
			break
		}
	}
	if wokenByOther == 0 {
		t.Error("no fill at SM 0 ever woke SM 1 from an injection park")
	}
}

// TestSnapshotPanicsOnParkedSM: a parked SM's window holds refusals that
// neither the collector nor the L1 has yet, so it refuses to serialize.
func TestSnapshotPanicsOnParkedSM(t *testing.T) {
	fast, net := newSharedPair(t, true)
	for now := int64(0); !fast[1].parked; now++ {
		if now > 1000 {
			t.Fatal("SM 1 never parked")
		}
		stepShared(t, fast, net, now)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "parked") {
			t.Fatalf("Snapshot of a parked SM: panic %q, want one naming the park", msg)
		}
	}()
	fast[1].Snapshot(checkpoint.NewWriter())
}
