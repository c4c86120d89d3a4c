// Package memreq defines the memory request that flows through the timing
// hierarchy (L1 → interconnect → L2 → DRAM → reply). Requests carry the
// originating load's classification and the timestamps needed for the
// paper's turnaround decomposition (Figures 5-7).
package memreq

import "fmt"

// Kind discriminates request types.
type Kind uint8

// Request kinds.
const (
	Load Kind = iota
	Store
	Atomic
)

func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Atomic:
		return "atomic"
	}
	return "?"
}

// Level records where a request was serviced.
type Level uint8

// Service levels.
const (
	LvlNone Level = iota
	LvlL1
	LvlL2
	LvlDRAM
)

func (l Level) String() string {
	switch l {
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	case LvlDRAM:
		return "DRAM"
	}
	return "none"
}

// Request is one coalesced 128-byte block access in flight.
type Request struct {
	ID        uint64
	Block     uint32 // 128-byte-aligned address
	Kind      Kind
	SM        int
	Partition int    // destination memory partition
	PC        uint32 // originating instruction PC
	Kernel    string // originating kernel (for per-PC statistics)
	NonDet    bool   // classification of the originating global load
	Lanes     int    // number of lanes merged into this request
	// BypassL1 marks requests routed around the L1 (the Section X.A
	// instruction-specific optimization for non-deterministic loads); their
	// replies complete directly instead of filling an L1 line.
	BypassL1 bool
	// Prefetch marks speculative next-line requests; they are excluded from
	// the demand-access statistics.
	Prefetch bool
	// OpSlot is the issuing SM's handle for the warp op that waits on this
	// request's response; 0 marks an ownerless request (a store, a prefetch,
	// an atomic without a destination), whose reply is terminal.
	OpSlot uint32

	// Timestamps, in core cycles. A zero value means "not reached".
	Issued       int64 // warp op dispatched to the LD/ST unit
	AcceptedL1   int64 // L1 accepted the access (hit or miss reservation)
	InjectedICNT int64 // miss injected into the request network
	ArrivedL2    int64 // arrived at the memory partition
	DoneL2       int64 // response ready at the partition (L2 hit or DRAM fill)
	Returned     int64 // response delivered back at the SM

	Serviced Level

	// pooled guards against double-Put: it is set while the request sits on
	// a free list and cleared when Get hands it out again. A double Put
	// would alias one request under two owners and corrupt timing state in
	// ways that surface far from the bug, so it panics immediately instead.
	pooled bool
}

func (r *Request) String() string {
	return fmt.Sprintf("req#%d %s block %#x sm%d part%d pc=0x%x nondet=%v",
		r.ID, r.Kind, r.Block, r.SM, r.Partition, r.PC, r.NonDet)
}

// Pool is a free list of Requests for the timing simulator's hot path: a
// memory-bound run creates one Request per coalesced access, and recycling
// them at retirement keeps the steady-state allocation rate near zero.
//
// Ownership rules (see docs/PERFORMANCE.md):
//   - A Pool belongs to one GPU instance and is not safe for concurrent use;
//     the simulator is single-threaded per device by design.
//   - Put hands a request back once it is terminal: the last reply for its
//     warp op retired at the SM, the write-through store issued at the DRAM
//     channel, or an ownerless reply (prefetch, dst-less atomic) completed.
//   - Put does not clear the request — Get does — so reads of an
//     already-released request remain valid until the pool reuses it within
//     the same cycle's event processing. No component may *write* to a
//     request after Put.
//
// A nil *Pool is valid and degrades to plain allocation (no recycling).
type Pool struct {
	free []*Request
}

// Get returns a zeroed request, reusing a recycled one when available.
func (p *Pool) Get() *Request {
	if p == nil {
		return &Request{}
	}
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*r = Request{}
		return r
	}
	return &Request{}
}

// Put recycles a terminal request. It tolerates nil receivers and nil
// requests so call sites need no guards, but panics on a double Put — a
// request may only be released by its single terminal owner.
func (p *Pool) Put(r *Request) {
	if p == nil || r == nil {
		return
	}
	if r.pooled {
		panic("memreq: double Put of request " + r.String())
	}
	r.pooled = true
	p.free = append(p.free, r)
}

// FreeLen reports the number of recycled requests currently pooled (a
// testing aid).
func (p *Pool) FreeLen() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}
