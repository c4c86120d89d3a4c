package gpu

import (
	"critload/internal/cache"
	"critload/internal/dram"
	"critload/internal/icnt"
	"critload/internal/memreq"
	"critload/internal/ring"
	"critload/internal/stats"
)

// partition is one memory partition: an L2 cache slice backed by one DRAM
// channel, fed by the request network and answering on the reply network.
// All three internal queues are ring buffers: popping a head must not pin
// the rest of the backing array the way the `q = q[1:]` slice idiom does.
type partition struct {
	id  int
	g   *GPU
	l2  *cache.Cache
	ch  *dram.Controller
	inQ ring.Buffer[*memreq.Request] // requests delivered by the request network

	// L2 hits completing after the L2 latency; deadlines are monotonic (one
	// serviced access per cycle, constant latency), so the head is the
	// earliest.
	hitQ ring.Buffer[timedReq]
	// Responses waiting to enter the reply network.
	replyQ ring.Buffer[*memreq.Request]

	// Hoisted state for the L2 miss-injection hook: the request and cycle
	// travel through fields and a method value bound once at construction,
	// instead of a fresh closure per serviced access.
	injReq *memreq.Request
	injNow int64
	injFn  func() bool

	// Quiet cache, written only under the fast-forward engine (the naive
	// loop stays a dumb oracle: quiet then stays 0 and never gates anything).
	// It holds a conservative lower bound on the partition's next action,
	// computed after each step; receive invalidates it. A non-empty replyQ
	// pins it to now+1 because the reply network freeing an input slot is an
	// external wake this cache cannot see.
	quiet int64
}

type timedReq struct {
	at  int64
	req *memreq.Request
}

func newPartition(id int, g *GPU) *partition {
	p := &partition{id: id, g: g, l2: cache.MustNew(g.cfg.L2)}
	p.ch = dram.MustNew(g.cfg.DRAM, p.dramDone)
	// Write-through stores end their life at the DRAM bank; recycle them there.
	p.ch.SetReleaser(g.pool.Put)
	p.injFn = p.tryEnqueueDRAM
	return p
}

// receive accepts a packet delivered by the request network.
func (p *partition) receive(r *memreq.Request) {
	p.inQ.Push(r)
	p.quiet = 0
}

// dramDone handles a completed DRAM read: fill the L2 and queue replies for
// every merged request.
func (p *partition) dramDone(r *memreq.Request, now int64) {
	targets := p.l2.Fill(r.Block, now)
	for _, t := range targets {
		t.DoneL2 = now
		if t.Serviced == memreq.LvlNone {
			t.Serviced = memreq.LvlDRAM
		}
		p.replyQ.Push(t)
	}
}

// tryEnqueueDRAM atomically claims a DRAM queue slot for the request in
// p.injReq; it is the injection hook handed to the L2 on every miss.
func (p *partition) tryEnqueueDRAM() bool {
	if !p.ch.CanAccept() {
		return false
	}
	p.ch.Enqueue(p.injReq, p.injNow)
	return true
}

// step advances the partition one cycle. Under fast-forward a valid quiet
// cache elides the whole body: nothing can complete, retry, or inject before
// p.quiet, so skipping the scans is observably identical to running them —
// the same argument that lets the engine skip whole cycles. The cache is
// refreshed after every real step; receive (the only external input path)
// invalidates it.
func (p *partition) step(now int64) {
	if now < p.quiet {
		return
	}
	p.stepOnce(now)
	if p.g.cfg.FastForward {
		p.quiet = p.quietHorizon(now)
	}
}

func (p *partition) stepOnce(now int64) {
	p.ch.Step(now)

	// L2 hits whose latency elapsed become replies.
	for p.hitQ.Len() > 0 && p.hitQ.Peek().at <= now {
		e := p.hitQ.Pop()
		e.req.DoneL2 = now
		p.replyQ.Push(e.req)
	}

	// Inject one reply per cycle into the reply network.
	if p.replyQ.Len() > 0 {
		r := p.replyQ.Peek()
		if p.g.replyNet.Inject(p.id, r.SM, r, icnt.DataFlits, now) {
			p.replyQ.Pop()
		}
	}

	// Service one incoming request per cycle (head of line; reservation
	// failures leave it in place for retry).
	if p.inQ.Len() == 0 {
		return
	}
	r := p.inQ.Peek()
	if r.Kind == memreq.Store {
		// Write-through: stores go straight to the DRAM channel.
		if p.ch.CanAccept() {
			p.ch.Enqueue(r, now)
			p.inQ.Pop()
		}
		return
	}
	p.injReq, p.injNow = r, now
	outcome := p.l2.Access(r, now, p.injFn)
	if r.Kind == memreq.Load && !r.Prefetch {
		p.g.Col.RecordL2Outcome(stats.CatOf(r.NonDet), outcome, p.id)
	}
	if !outcome.Accepted() {
		return // retry next cycle
	}
	if outcome == cache.Hit {
		r.Serviced = memreq.LvlL2
		p.hitQ.Push(timedReq{at: now + p.g.cfg.L2.HitLatency, req: r})
	}
	p.inQ.Pop()
}

// quietHorizon computes the value cached in p.quiet: a conservative lower
// bound on the partition's next action. It differs from nextEvent in one
// place — a pending reply pins it to now+1 outright, because whether the
// reply network can accept it later is external state the cache would not
// see change. nextEvent may instead lean on the reply network's own horizon
// for that case, since the engine takes the minimum across components.
func (p *partition) quietHorizon(now int64) int64 {
	if p.inQ.Len() > 0 || p.replyQ.Len() > 0 {
		return now + 1
	}
	horizon := p.ch.NextEvent(now)
	if p.hitQ.Len() > 0 {
		if t := p.hitQ.Peek().at; t < horizon {
			horizon = t
		}
	}
	if horizon <= now {
		horizon = now + 1
	}
	return horizon
}

// nextEvent reports the earliest cycle after now at which the partition's
// observable state (or a statistic it records) can change, assuming it was
// just stepped at now and nothing arrives before the reported cycle. A
// non-empty input queue pins the horizon to now+1: every retry of the head
// request mutates the L2 outcome counters.
func (p *partition) nextEvent(now int64) int64 {
	// A valid quiet cache is already a sound answer (it only ever
	// underestimates relative to this scan), so skip the re-scan.
	if p.quiet > now+1 {
		return p.quiet
	}
	if p.inQ.Len() > 0 {
		return now + 1
	}
	horizon := p.ch.NextEvent(now)
	if p.hitQ.Len() > 0 {
		if t := p.hitQ.Peek().at; t < horizon {
			horizon = t
		}
	}
	// A pending reply only matters when the network can take it; when the
	// input buffer is full, the reply network's own horizon covers the slot
	// freeing up.
	if p.replyQ.Len() > 0 && p.g.replyNet.CanInject(p.id) {
		return now + 1
	}
	if horizon <= now {
		horizon = now + 1
	}
	return horizon
}

// idle reports whether the partition has no in-flight work.
func (p *partition) idle() bool {
	return p.inQ.Len() == 0 && p.hitQ.Len() == 0 && p.replyQ.Len() == 0 &&
		p.ch.Pending() == 0 && p.l2.PendingMisses() == 0
}
