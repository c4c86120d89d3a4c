// Package icnt models the on-chip interconnection network between the SMs
// and the memory partitions: finite per-source input buffers (whose
// exhaustion is the paper's "reservation fail by interconnection"), a fixed
// traversal latency, flit-serialized transfers, and per-port bandwidth of one
// packet in flight at a time. Two instances are used: the request network
// (SM → partition) and the reply network (partition → SM).
package icnt

import (
	"fmt"
	"math"

	"critload/internal/memreq"
	"critload/internal/ring"
)

// Config sizes one network instance.
type Config struct {
	Latency       int64 // traversal latency in cycles
	InputQueueCap int   // per-source input buffer slots
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Latency < 0 || c.InputQueueCap <= 0 {
		return fmt.Errorf("icnt: bad config %+v", c)
	}
	return nil
}

// ControlFlits is the size of an address-only packet (read request).
const ControlFlits = 1

// DataFlits is the size of a packet carrying one 128-byte block (read reply
// or write request).
const DataFlits = 4

// Packet is one message in flight.
type Packet struct {
	Req     *memreq.Request
	Src     int
	Dst     int
	Flits   int64
	readyAt int64 // earliest delivery cycle (injection + latency)
}

// DeliverFunc receives a packet at its destination. The *Packet points into
// network-owned scratch storage and is valid only for the duration of the
// call; callbacks must copy any fields they need to retain.
type DeliverFunc func(p *Packet, now int64)

// Network is a crossbar-style network with per-source FIFO input buffers.
// Input buffers are ring buffers holding packets by value, so steady-state
// traffic allocates nothing and popping the head never pins the whole
// backing array (the `q = q[1:]` retention the naive representation had).
type Network struct {
	cfg     Config
	numSrc  int
	numDst  int
	queues  []ring.Buffer[Packet]
	srcBusy []int64 // source port transmitting until this cycle
	dstBusy []int64 // destination port receiving until this cycle
	deliver DeliverFunc
	// pending counts queued packets across all sources, so stepping or
	// scanning an empty network is O(1) instead of a walk over every queue.
	pending int
	// Quiet cache, enabled only under the fast-forward engine (the naive
	// loop stays a dumb oracle): after a scan, quietUntil holds the earliest
	// cycle a delivery can happen — no head packet is ready and no port frees
	// before it — so Step returns immediately until then. An injection can
	// change the answer and resets it.
	fastForward bool
	quietUntil  int64
	// scratch carries the packet being delivered; handing callbacks a pointer
	// to this reusable slot (valid only for the duration of the call) keeps
	// delivery allocation-free now that queues store packets by value.
	scratch Packet

	// Statistics.
	Injected   uint64
	Delivered  uint64
	TotalDelay int64 // accumulated (deliver - inject - latency) queueing delay
}

// New builds a network delivering packets via the given callback.
func New(numSrc, numDst int, cfg Config, deliver DeliverFunc) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numSrc <= 0 || numDst <= 0 {
		return nil, fmt.Errorf("icnt: bad port counts %d×%d", numSrc, numDst)
	}
	if deliver == nil {
		return nil, fmt.Errorf("icnt: nil deliver callback")
	}
	return &Network{
		cfg: cfg, numSrc: numSrc, numDst: numDst,
		queues:  make([]ring.Buffer[Packet], numSrc),
		srcBusy: make([]int64, numSrc),
		dstBusy: make([]int64, numDst),
		deliver: deliver,
	}, nil
}

// MustNew builds a network or panics; for static configurations.
func MustNew(numSrc, numDst int, cfg Config, deliver DeliverFunc) *Network {
	n, err := New(numSrc, numDst, cfg, deliver)
	if err != nil {
		panic(err)
	}
	return n
}

// CanInject reports whether source src has a free input-buffer slot. This is
// the check behind the cache's RsrvFailICNT outcome.
func (n *Network) CanInject(src int) bool {
	return n.queues[src].Len() < n.cfg.InputQueueCap
}

// Inject enqueues a packet; it returns false when the input buffer is full.
func (n *Network) Inject(src, dst int, req *memreq.Request, flits int64, now int64) bool {
	if !n.CanInject(src) {
		return false
	}
	if dst < 0 || dst >= n.numDst {
		panic(fmt.Sprintf("icnt: bad destination %d", dst))
	}
	n.queues[src].Push(Packet{
		Req: req, Src: src, Dst: dst, Flits: flits,
		readyAt: now + n.cfg.Latency,
	})
	n.pending++
	n.quietUntil = 0
	n.Injected++
	return true
}

// SetFastForward enables the quiet cache that lets Step elide provably
// fruitless delivery scans; only the fast-forward engine turns it on, so the
// serial differential-testing oracle keeps scanning every cycle.
func (n *Network) SetFastForward(on bool) { n.fastForward = on }

// Step advances the network one cycle: every source may deliver its head
// packet when its transmit port, the packet's destination port, and the
// traversal latency all allow it. Head-of-line blocking is intentional. The
// rotating arbitration start is derived from the cycle number — not from a
// per-Step counter — so skipping dead cycles cannot shift the round-robin
// phase relative to the serial loop.
func (n *Network) Step(now int64) {
	if n.pending == 0 {
		return
	}
	if now < n.quietUntil {
		return // no head packet ready and no port free before quietUntil
	}
	rr := int(now % int64(n.numSrc))
	for i := 0; i < n.numSrc; i++ {
		src := (rr + i) % n.numSrc
		q := &n.queues[src]
		if q.Len() == 0 {
			continue
		}
		p := q.Peek()
		if p.readyAt > now || n.srcBusy[src] > now || n.dstBusy[p.Dst] > now {
			continue
		}
		q.Pop()
		n.pending--
		n.srcBusy[src] = now + p.Flits
		n.dstBusy[p.Dst] = now + p.Flits
		n.Delivered++
		n.TotalDelay += now - p.readyAt
		n.scratch = p
		n.deliver(&n.scratch, now)
	}
	if n.fastForward {
		n.quietUntil = n.NextEvent(now)
	}
}

// NextEvent reports the earliest cycle after now at which the network can
// deliver a packet, or math.MaxInt64 when nothing is in flight. The contract
// (docs/PERFORMANCE.md) assumes the network was just stepped at now and that
// no new packets are injected before the reported cycle; under those
// conditions nothing observable happens at any cycle in (now, NextEvent).
func (n *Network) NextEvent(now int64) int64 {
	if n.pending == 0 {
		return math.MaxInt64
	}
	// A valid quiet cache is this function's own answer, computed when the
	// network was last scanned; nothing has changed since (injections reset
	// it), so skip the re-scan.
	if n.quietUntil > now+1 {
		return n.quietUntil
	}
	horizon := int64(math.MaxInt64)
	for src := 0; src < n.numSrc; src++ {
		q := &n.queues[src]
		if q.Len() == 0 {
			continue
		}
		p := q.Peek()
		t := p.readyAt
		if b := n.srcBusy[src]; b > t {
			t = b
		}
		if b := n.dstBusy[p.Dst]; b > t {
			t = b
		}
		if t <= now {
			t = now + 1
		}
		if t < horizon {
			horizon = t
		}
	}
	return horizon
}

// Pending returns the total number of queued packets, a quiescence check for
// the simulation main loop and tests.
func (n *Network) Pending() int { return n.pending }

// QueueLen returns the occupancy of one source queue.
func (n *Network) QueueLen(src int) int { return n.queues[src].Len() }
