// Package dram models one GDDR5-like memory channel per memory partition: a
// finite request queue, banked storage with open-row policy, an FR-FCFS
// (row-hit-first) scheduler, and an unloaded access latency matching the
// paper's Table II configuration. Contention here produces the "wasted
// cycles in L2 and DRAMs" component of the paper's turnaround decomposition.
package dram

import (
	"fmt"
	"math"

	"critload/internal/memreq"
)

// Config sizes one DRAM channel.
type Config struct {
	AccessLatency  int64 // unloaded access latency (Table II: 100 cycles)
	BurstCycles    int64 // bank/data-bus occupancy per 128-byte access
	RowMissPenalty int64 // extra occupancy on a row-buffer miss
	Banks          int
	RowBytes       int // bytes covered by one open row within a bank
	QueueCap       int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.AccessLatency <= 0 || c.BurstCycles <= 0 || c.Banks <= 0 ||
		c.RowBytes <= 0 || c.QueueCap <= 0 || c.RowMissPenalty < 0 {
		return fmt.Errorf("dram: bad config %+v", c)
	}
	return nil
}

// DefaultConfig returns the Table II-derived channel configuration.
func DefaultConfig() Config {
	return Config{
		AccessLatency:  100,
		BurstCycles:    8,
		RowMissPenalty: 30,
		Banks:          16,
		RowBytes:       2048,
		QueueCap:       32,
	}
}

// DoneFunc receives a completed request.
type DoneFunc func(r *memreq.Request, now int64)

type bank struct {
	busyUntil int64
	openRow   int64 // -1 = closed
}

type inflight struct {
	req     *memreq.Request
	readyAt int64
}

// queued is one waiting request with its enqueue cycle (for the wait
// statistic) and its bank and row, decoded once at Enqueue because the
// scheduler and NextEvent read them for every queued entry every cycle.
type queued struct {
	req  *memreq.Request
	at   int64
	bank int
	row  int64
}

// Controller is one memory channel's controller.
type Controller struct {
	cfg      Config
	queue    []queued
	banks    []bank
	inflight []inflight
	done     DoneFunc
	// release, when set, receives write-through stores as they issue: a
	// store's lifetime ends at the bank (no reply is modeled), so the owner
	// can recycle the request. See memreq.Pool.
	release func(r *memreq.Request)

	// Statistics.
	Serviced  uint64
	RowHits   uint64
	RowMisses uint64
	TotalWait int64 // accumulated queue wait (issue - enqueue)
}

// New builds a controller delivering completions via done.
func New(cfg Config, done DoneFunc) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if done == nil {
		return nil, fmt.Errorf("dram: nil done callback")
	}
	c := &Controller{cfg: cfg, done: done}
	c.banks = make([]bank, cfg.Banks)
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	return c, nil
}

// SetReleaser installs a hook receiving store requests at issue time, when
// their lifecycle ends (nil disables). Read-class requests are never passed
// to it; they retire through the reply path. The hook runs inside Step.
func (c *Controller) SetReleaser(release func(r *memreq.Request)) { c.release = release }

// MustNew builds a controller or panics; for static configurations.
func MustNew(cfg Config, done DoneFunc) *Controller {
	c, err := New(cfg, done)
	if err != nil {
		panic(err)
	}
	return c
}

// CanAccept reports whether the request queue has room; this backs the L2's
// miss-injection check.
func (c *Controller) CanAccept() bool { return len(c.queue) < c.cfg.QueueCap }

// Enqueue adds a request; callers must check CanAccept first.
func (c *Controller) Enqueue(r *memreq.Request, now int64) {
	if !c.CanAccept() {
		panic("dram: enqueue on full queue")
	}
	b, row := c.bankAndRow(r.Block)
	c.queue = append(c.queue, queued{req: r, at: now, bank: b, row: row})
}

func (c *Controller) bankAndRow(block uint32) (int, int64) {
	line := int64(block) / 128
	b := int(line) % c.cfg.Banks
	row := int64(block) / int64(c.cfg.RowBytes) / int64(c.cfg.Banks)
	return b, row
}

// Step advances the channel one cycle: completes finished accesses and
// issues at most one queued request, preferring row-buffer hits (FR-FCFS).
func (c *Controller) Step(now int64) {
	// Deliver completions.
	kept := c.inflight[:0]
	for _, f := range c.inflight {
		if f.readyAt <= now {
			c.done(f.req, now)
		} else {
			kept = append(kept, f)
		}
	}
	c.inflight = kept

	if len(c.queue) == 0 {
		return
	}
	// First ready row-hit, else first ready request (FCFS fallback).
	pick := -1
	for i := range c.queue {
		b, row := c.queue[i].bank, c.queue[i].row
		if c.banks[b].busyUntil > now {
			continue
		}
		if c.banks[b].openRow == row {
			pick = i
			break
		}
		if pick < 0 {
			pick = i
		}
	}
	if pick < 0 {
		return
	}
	q := c.queue[pick]
	c.queue = append(c.queue[:pick], c.queue[pick+1:]...)
	r, b, row := q.req, q.bank, q.row
	occupancy := c.cfg.BurstCycles
	latency := c.cfg.AccessLatency
	if c.banks[b].openRow == row {
		c.RowHits++
	} else {
		c.RowMisses++
		occupancy += c.cfg.RowMissPenalty
		latency += c.cfg.RowMissPenalty
	}
	c.banks[b].openRow = row
	c.banks[b].busyUntil = now + occupancy
	c.Serviced++
	c.TotalWait += now - q.at

	if r.Kind == memreq.Store {
		// Writes complete silently once issued; the bank occupancy above is
		// their entire cost, and the request's lifetime ends here.
		if c.release != nil {
			c.release(r)
		}
		return
	}
	c.inflight = append(c.inflight, inflight{req: r, readyAt: now + latency})
}

// NextEvent reports the earliest cycle after now at which the channel can
// make progress — the earliest in-flight completion, or the first cycle a
// queued request's bank is free — or math.MaxInt64 when it is empty. The
// contract (docs/PERFORMANCE.md) assumes the channel was just stepped at now
// and nothing is enqueued before the reported cycle.
func (c *Controller) NextEvent(now int64) int64 {
	horizon := int64(math.MaxInt64)
	for i := range c.inflight {
		t := c.inflight[i].readyAt
		if t <= now {
			t = now + 1
		}
		if t < horizon {
			horizon = t
		}
	}
	for i := range c.queue {
		t := c.banks[c.queue[i].bank].busyUntil
		if t <= now {
			t = now + 1
		}
		if t < horizon {
			horizon = t
		}
	}
	return horizon
}

// Pending reports queued plus in-flight requests, a quiescence check.
func (c *Controller) Pending() int { return len(c.queue) + len(c.inflight) }
