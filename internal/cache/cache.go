// Package cache models the GPU's set-associative caches with the exact
// access semantics the paper measures (Figure 3): a lookup either hits, hits
// a reserved (in-flight) line, misses after reserving a tag + MSHR entry +
// interconnect slot, or fails one of the three reservations and must retry.
package cache

import (
	"fmt"

	"critload/internal/memreq"
)

// Config sizes one cache instance.
type Config struct {
	Bytes       int // total capacity
	LineBytes   int // line size (128 in the paper's configuration)
	Ways        int // associativity
	MSHREntries int // distinct outstanding miss blocks
	MSHRTargets int // merged requests per MSHR entry
	HitLatency  int64
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Bytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	lines := c.Bytes / c.LineBytes
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	if c.MSHREntries <= 0 || c.MSHRTargets <= 0 {
		return fmt.Errorf("cache: non-positive MSHR config %+v", c)
	}
	if c.MSHREntries > maxMSHREntries {
		return fmt.Errorf("cache: %d MSHR entries exceed %d", c.MSHREntries, maxMSHREntries)
	}
	return nil
}

// Outcome is the result of one cache access attempt.
type Outcome uint8

// Access outcomes, matching the categories of Figure 3.
const (
	Hit Outcome = iota
	HitReserved
	Miss
	RsrvFailTag  // no evictable way: all candidate lines are in flight
	RsrvFailMSHR // MSHR entries exhausted, or merge-target list full
	RsrvFailICNT // downstream injection (interconnect / DRAM queue) refused
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{
	Hit: "hit", HitReserved: "hit-reserved", Miss: "miss",
	RsrvFailTag: "rsrv-fail-tag", RsrvFailMSHR: "rsrv-fail-mshr",
	RsrvFailICNT: "rsrv-fail-icnt",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Accepted reports whether the access was taken by the cache (no retry
// needed).
func (o Outcome) Accepted() bool { return o == Hit || o == HitReserved || o == Miss }

// IsReservationFail reports whether the outcome is one of the three
// reservation failures.
func (o Outcome) IsReservationFail() bool {
	return o == RsrvFailTag || o == RsrvFailMSHR || o == RsrvFailICNT
}

type lineState uint8

const (
	invalid lineState = iota
	valid
	reserved // tag allocated, data in flight
)

// maxMSHREntries is the largest MSHR file a line's 16-bit entry index can
// name.
const maxMSHREntries = 1 << 16

type line struct {
	tag     uint32 // block address
	state   lineState
	mshr    uint16 // the line's MSHR entry while reserved
	lastUse int64
}

type mshrEntry struct {
	targets []*memreq.Request // primary miss first; capacity MSHRTargets
}

// Cache is one cache instance (used for both L1D and L2 slices).
type Cache struct {
	cfg     Config
	numSets int
	lines   []line // every set's ways, set s at lines[s*Ways : (s+1)*Ways]

	// mshrs is the MSHR file, a fixed slab of MSHREntries entries. A
	// reserved line names its entry; free holds the indices of the unused
	// ones, lowest on top. Each entry's target list is its window of one
	// slab of MSHREntries × MSHRTargets pointers, so no miss allocates.
	mshrs []mshrEntry
	free  []uint16

	// Aggregate statistics (monotonic counters).
	Accesses  [NumOutcomes]uint64
	FillCount uint64
}

// New builds a cache; the configuration must be valid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.Bytes / cfg.LineBytes / cfg.Ways
	c := &Cache{
		cfg:     cfg,
		numSets: numSets,
		lines:   make([]line, numSets*cfg.Ways),
		mshrs:   make([]mshrEntry, cfg.MSHREntries),
		free:    make([]uint16, cfg.MSHREntries),
	}
	targets := make([]*memreq.Request, cfg.MSHREntries*cfg.MSHRTargets)
	for i := range c.mshrs {
		c.mshrs[i].targets = targets[i*cfg.MSHRTargets : i*cfg.MSHRTargets : (i+1)*cfg.MSHRTargets]
	}
	for i := range c.free {
		c.free[i] = uint16(cfg.MSHREntries - 1 - i)
	}
	return c, nil
}

// MustNew builds a cache or panics; for static configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() int64 { return c.cfg.HitLatency }

// set returns the ways of the set block maps to.
func (c *Cache) set(block uint32) []line {
	i := int(block/uint32(c.cfg.LineBytes)) % c.numSets * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways : i+c.cfg.Ways]
}

// Access attempts one (load-class) request against the cache. For misses,
// tryInject is called after tag and MSHR reservations succeed; it must
// atomically claim the downstream slot and return whether it did. On any
// reservation failure the cache state is unchanged and the caller must retry
// in a later cycle.
func (c *Cache) Access(r *memreq.Request, now int64, tryInject func() bool) Outcome {
	if r.Block%uint32(c.cfg.LineBytes) != 0 {
		panic(fmt.Sprintf("cache: unaligned block address %#x", r.Block))
	}
	set := c.set(r.Block)

	// Tag probe.
	for i := range set {
		ln := &set[i]
		if ln.state == invalid || ln.tag != r.Block {
			continue
		}
		if ln.state == valid {
			ln.lastUse = now
			c.Accesses[Hit]++
			return Hit
		}
		// Line is reserved: merge into its MSHR entry if space remains.
		e := &c.mshrs[ln.mshr]
		if len(e.targets) >= c.cfg.MSHRTargets {
			c.Accesses[RsrvFailMSHR]++
			return RsrvFailMSHR
		}
		e.targets = append(e.targets, r)
		c.Accesses[HitReserved]++
		return HitReserved
	}

	// Miss: find a victim way (invalid first, else LRU among valid lines;
	// reserved lines cannot be evicted — that is the tag reservation fail).
	victim := -1
	var oldest int64 = 1<<63 - 1
	for i := range set {
		switch set[i].state {
		case invalid:
			victim = i
			oldest = -1 // settled
		case valid:
			if set[i].lastUse < oldest {
				victim = i
				oldest = set[i].lastUse
			}
		}
	}
	if victim < 0 {
		c.Accesses[RsrvFailTag]++
		return RsrvFailTag
	}
	if len(c.free) == 0 {
		c.Accesses[RsrvFailMSHR]++
		return RsrvFailMSHR
	}
	if tryInject != nil && !tryInject() {
		c.Accesses[RsrvFailICNT]++
		return RsrvFailICNT
	}
	id := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	e := &c.mshrs[id]
	e.targets = append(e.targets[:0], r)
	set[victim] = line{tag: r.Block, state: reserved, mshr: id, lastUse: now}
	c.Accesses[Miss]++
	return Miss
}

// Fill completes an outstanding miss for block: the reserved line becomes
// valid, its MSHR entry is freed, and all merged requests are returned
// (primary miss first). Filling a block with no outstanding reservation is a
// simulator bug.
//
// The returned slice aliases the freed entry's storage and is valid only
// until the next Access on this cache, which may take the entry again;
// callers must finish iterating (or copy) before presenting another access.
func (c *Cache) Fill(block uint32, now int64) []*memreq.Request {
	set := c.set(block)
	for i := range set {
		if set[i].state == reserved && set[i].tag == block {
			id := set[i].mshr
			set[i] = line{tag: block, state: valid, lastUse: now}
			c.FillCount++
			c.free = append(c.free, id)
			return c.mshrs[id].targets
		}
	}
	panic(fmt.Sprintf("cache: fill of %#x without a reserved line", block))
}

// Contains reports whether block is present and valid (a testing aid).
func (c *Cache) Contains(block uint32) bool {
	set := c.set(block)
	for i := range set {
		if set[i].state == valid && set[i].tag == block {
			return true
		}
	}
	return false
}

// PendingMisses returns the number of allocated MSHR entries.
func (c *Cache) PendingMisses() int { return len(c.mshrs) - len(c.free) }

// InvalidateAll clears the cache contents but keeps in-flight reservations;
// used between kernel launches where GPUs flush L1.
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		if c.lines[i].state == valid {
			c.lines[i].state = invalid
		}
	}
}
