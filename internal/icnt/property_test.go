package icnt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"critload/internal/memreq"
)

// Property: under random injection patterns, the network conserves packets
// (injected = delivered + pending), never delivers before inject+latency,
// and per-source delivery order is FIFO.
func TestQuickNetworkConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Latency:       int64(rng.Intn(16)),
			InputQueueCap: 1 + rng.Intn(8),
		}
		numSrc := 1 + rng.Intn(6)
		numDst := 1 + rng.Intn(6)

		type stamp struct {
			src      int
			id       uint64
			injected int64
		}
		var delivered []stamp
		n := MustNew(numSrc, numDst, cfg, func(p *Packet, now int64) {
			delivered = append(delivered, stamp{src: p.Src, id: p.Req.ID})
		})

		injectTimes := map[uint64]int64{}
		var nextID uint64
		for cyc := int64(0); cyc < 300; cyc++ {
			// Random injections this cycle.
			for tries := rng.Intn(4); tries > 0; tries-- {
				src := rng.Intn(numSrc)
				if !n.CanInject(src) {
					continue
				}
				nextID++
				r := &memreq.Request{ID: nextID}
				if n.Inject(src, rng.Intn(numDst), r, int64(1+rng.Intn(4)), cyc) {
					injectTimes[r.ID] = cyc
				}
			}
			before := len(delivered)
			n.Step(cyc)
			// Latency respected: everything delivered this cycle was
			// injected at least Latency cycles ago.
			for _, d := range delivered[before:] {
				if cyc-injectTimes[d.id] < cfg.Latency {
					return false
				}
			}
		}
		// Drain.
		for cyc := int64(300); cyc < 1000 && n.Pending() > 0; cyc++ {
			n.Step(cyc)
		}
		if n.Pending() != 0 {
			return false
		}
		if uint64(len(delivered)) != n.Delivered || n.Injected != n.Delivered {
			return false
		}
		// FIFO per source.
		lastID := make(map[int]uint64)
		for _, d := range delivered {
			if d.id <= lastID[d.src] {
				return false
			}
			lastID[d.src] = d.id
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStepMatchesFullRotatingScan checks Step's walk over the non-empty
// sources against the walk it replaced: every source in the rotating order
// now%numSrc, now%numSrc+1, … whether its queue holds a packet or not. Two
// networks take the same random traffic from up to 150 sources (three
// bitset words) to 3 destinations, so ports contend and the arbitration
// order decides who delivers; one is stepped by Step, the other by the full
// scan, and both must deliver the same packets at the same cycles in the
// same order. NextEvent's walk must match a full scan's horizon too. The
// stepped network runs with the fast-forward quiet cache, as in the GPU.
func TestStepMatchesFullRotatingScan(t *testing.T) {
	type delivery struct {
		id  uint64
		dst int
		at  int64
	}
	for _, numSrc := range []int{1, 14, 64, 65, 150} {
		rng := rand.New(rand.NewSource(int64(numSrc)))
		var got, want []delivery
		cfg := Config{Latency: 3, InputQueueCap: 4}
		fast := MustNew(numSrc, 3, cfg, func(p *Packet, now int64) {
			got = append(got, delivery{p.Req.ID, p.Dst, now})
		})
		ref := MustNew(numSrc, 3, cfg, func(p *Packet, now int64) {
			want = append(want, delivery{p.Req.ID, p.Dst, now})
		})
		fast.SetFastForward(true)
		var id uint64
		for now := int64(0); now < 2000; now++ {
			for tries := rng.Intn(numSrc/4 + 2); tries > 0; tries-- {
				src, dst, flits := rng.Intn(numSrc), rng.Intn(3), int64(1+rng.Intn(4))
				if fast.CanInject(src) != ref.CanInject(src) {
					t.Fatalf("%d sources, cycle %d: source %d CanInject differs", numSrc, now, src)
				}
				if fast.CanInject(src) {
					id++
					r := &memreq.Request{ID: id}
					fast.Inject(src, dst, r, flits, now)
					ref.Inject(src, dst, r, flits, now)
				}
			}
			fast.Step(now)
			rr := int(now % int64(numSrc))
			for i := 0; i < numSrc; i++ {
				if src := (rr + i) % numSrc; ref.queues[src].Len() > 0 {
					ref.tryDeliver(src, now)
				}
			}
			h := int64(math.MaxInt64)
			for src := range ref.queues {
				if ref.queues[src].Len() > 0 {
					h = min(h, ref.headReady(src, now))
				}
			}
			if f := ref.NextEvent(now); f != h {
				t.Fatalf("%d sources, cycle %d: NextEvent %d, full scan %d", numSrc, now, f, h)
			}
		}
		if len(want) < 500 || len(got) != len(want) {
			t.Fatalf("%d sources: %d deliveries, full scan %d", numSrc, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d sources: delivery %d is %+v, full scan %+v", numSrc, i, got[i], want[i])
			}
		}
	}
}
