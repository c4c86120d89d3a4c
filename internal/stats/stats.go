// Package stats collects the measurements behind every table and figure of
// the paper: per-category (deterministic / non-deterministic) load and
// request counts (Fig 1, 2), L1 cache-cycle outcome breakdowns (Fig 3),
// function-unit occupancy (Fig 4), load turnaround decompositions (Fig 5-7),
// cache miss ratios (Fig 8), shared-memory usage (Fig 9), and block-level
// access maps for cold-miss and inter-CTA locality analysis (Fig 10-12).
package stats

import (
	"sort"

	"critload/internal/cache"
	"critload/internal/coalesce"
	"critload/internal/emu"
	"critload/internal/isa"
)

// Category indexes the paper's two load classes.
type Category int

// Load categories.
const (
	Det Category = iota
	NonDet
	NumCats
)

func (c Category) String() string {
	if c == Det {
		return "D"
	}
	return "N"
}

// CatOf converts the non-deterministic flag to a Category.
func CatOf(nonDet bool) Category {
	if nonDet {
		return NonDet
	}
	return Det
}

// Classifier reports whether the global load at a PC of the current kernel
// is non-deterministic. Implementations come from the dataflow package.
type Classifier func(pc uint32) bool

// TurnaroundAgg accumulates the Figure 5 decomposition for one category.
type TurnaroundAgg struct {
	Ops       uint64
	Total     int64 // dispatch → writeback
	Unloaded  int64 // latency with an idle memory system
	RsrvPrev  int64 // waiting before the first request is accepted (previous warps)
	RsrvCurr  int64 // first acceptance → last acceptance (current warp's own burst)
	MemSystem int64 // remainder: icnt/L2/DRAM contention and imbalance
}

// Mean returns the four per-op mean components (unloaded, prev, curr, mem).
func (t TurnaroundAgg) Mean() (unloaded, prev, curr, memsys float64) {
	if t.Ops == 0 {
		return 0, 0, 0, 0
	}
	n := float64(t.Ops)
	return float64(t.Unloaded) / n, float64(t.RsrvPrev) / n,
		float64(t.RsrvCurr) / n, float64(t.MemSystem) / n
}

// MeanTotal returns the mean total turnaround.
func (t TurnaroundAgg) MeanTotal() float64 {
	if t.Ops == 0 {
		return 0
	}
	return float64(t.Total) / float64(t.Ops)
}

// PCKey identifies one static load instruction.
type PCKey struct {
	Kernel string
	PC     uint32
}

// GapAgg accumulates the Figure 7 gap decomposition for one (PC, request
// count) bucket.
type GapAgg struct {
	Ops       uint64
	Total     int64
	Common    int64 // unloaded latency of the slowest request
	GapL1D    int64 // dispatch → last request accepted by L1
	GapIcntL2 int64 // queueing between L1 and L2 beyond the unloaded network latency
	GapL2Icnt int64 // spread between first and last returned response
}

// PCStats aggregates the behaviour of one static load, bucketed by the
// number of memory requests its dynamic instances generated (Fig 6, 7).
type PCStats struct {
	Key    PCKey
	NonDet bool
	ByNReq map[int]*GapAgg
}

// bucket returns (allocating) the aggregation bucket for nreq.
func (p *PCStats) bucket(nreq int) *GapAgg {
	g := p.ByNReq[nreq]
	if g == nil {
		g = &GapAgg{}
		p.ByNReq[nreq] = g
	}
	return g
}

// blockInfo tracks one 128-byte block's access history.
type blockInfo struct {
	count   uint64
	firstW  int32 // first accessing CTA
	lastW   int32 // last accessing CTA (for distance recording)
	ctaSet  map[int32]struct{}
	nonDetN uint64 // accesses from non-deterministic loads
}

// Collector gathers all run statistics. It is not safe for concurrent use.
type Collector struct {
	// Functional counts (Table I, Fig 1).
	WarpInsts    uint64
	ThreadInsts  uint64
	GLoadWarps   [NumCats]uint64
	SLoadWarps   uint64
	GStoreWarps  uint64
	GLoadThreads [NumCats]uint64 // executed lanes of global loads

	// Fig 2: coalesced requests per category.
	Requests [NumCats]uint64

	// Prefetches counts issued next-line prefetches (ablation only).
	Prefetches uint64

	// Fig 3: L1 access-attempt outcomes (in cycles: one attempt per cycle).
	L1Outcomes [NumCats][cache.NumOutcomes]uint64

	// Fig 4: function-unit first-stage occupancy.
	UnitBusy  [isa.NumFuncUnits]uint64
	SMCycles  uint64 // total SM-cycles observed
	GPUCycles int64  // wall-clock cycles of the timing run

	// Fig 5: turnaround decomposition.
	Turnaround [NumCats]TurnaroundAgg

	// Fig 6/7: per-PC behaviour.
	PerPC map[PCKey]*PCStats

	// Fig 8: cache accesses and misses per category.
	L1Acc, L1Miss [NumCats]uint64
	L2Acc, L2Miss [NumCats]uint64

	// Table III: per-slice L2 read counters (slice = partition id parity,
	// matching the profiler's subp0/subp1 split).
	L2SliceQueries [2]uint64
	L2SliceHits    [2]uint64

	// Fig 10-12: block-level map, collected on the functional path.
	blocks        map[uint32]*blockInfo
	BlockLoadReqs uint64 // total coalesced load requests feeding the block map
	// CTADistance histograms: overall and per category.
	CTADist    map[int]uint64
	CTADistCat [NumCats]map[int]uint64
}

// New returns an empty collector.
func New() *Collector {
	c := &Collector{
		PerPC:   map[PCKey]*PCStats{},
		blocks:  map[uint32]*blockInfo{},
		CTADist: map[int]uint64{},
	}
	for i := range c.CTADistCat {
		c.CTADistCat[i] = map[int]uint64{}
	}
	return c
}

// ---------------------------------------------------------------------------
// Functional-path collection
// ---------------------------------------------------------------------------

// ObserveStep records one executed warp instruction from the functional
// driver.
func (c *Collector) ObserveStep(ctaID int, s *emu.Step, classify Classifier) {
	c.WarpInsts++
	c.ThreadInsts += uint64(s.ExecCount())
	in := s.Inst
	switch {
	case in.IsGlobalLoad():
		cat := Det
		if classify != nil && classify(in.PC) {
			cat = NonDet
		}
		c.GLoadWarps[cat]++
		c.GLoadThreads[cat] += uint64(s.ExecCount())
		accs := coalesce.Coalesce(s.Exec, &s.Addrs)
		c.Requests[cat] += uint64(len(accs))
		for _, a := range accs {
			c.observeBlock(ctaID, a.Block, cat)
		}
	case in.IsSharedLoad():
		c.SLoadWarps++
	case in.Op == isa.OpSt && in.Space == isa.SpaceGlobal:
		c.GStoreWarps++
	}
}

func (c *Collector) observeBlock(ctaID int, block uint32, cat Category) {
	c.BlockLoadReqs++
	b := c.blocks[block]
	if b == nil {
		b = &blockInfo{firstW: int32(ctaID), lastW: int32(ctaID)}
		c.blocks[block] = b
	}
	b.count++
	if cat == NonDet {
		b.nonDetN++
	}
	if int32(ctaID) != b.lastW {
		d := int(int32(ctaID) - b.lastW)
		if d < 0 {
			d = -d
		}
		c.CTADist[d]++
		c.CTADistCat[cat][d]++
		if b.ctaSet == nil {
			b.ctaSet = map[int32]struct{}{b.firstW: {}}
		}
		b.ctaSet[int32(ctaID)] = struct{}{}
		b.lastW = int32(ctaID)
	}
}

// ---------------------------------------------------------------------------
// Timing-path collection
// ---------------------------------------------------------------------------

// RecordL1Outcome counts one L1 access attempt (one cache cycle).
func (c *Collector) RecordL1Outcome(cat Category, o cache.Outcome) {
	c.L1Outcomes[cat][o]++
	switch o {
	case cache.Hit:
		c.L1Acc[cat]++
	case cache.Miss, cache.HitReserved:
		c.L1Acc[cat]++
		c.L1Miss[cat]++
	}
}

// RecordL2Outcome counts one L2 access (accepted accesses only feed the miss
// ratio; retried reservation failures are not re-counted). slice is the L2
// slice (partition parity) for the Table III sector counters.
func (c *Collector) RecordL2Outcome(cat Category, o cache.Outcome, slice int) {
	slice &= 1
	switch o {
	case cache.Hit:
		c.L2Acc[cat]++
		c.L2SliceQueries[slice]++
		c.L2SliceHits[slice]++
	case cache.Miss, cache.HitReserved:
		c.L2Acc[cat]++
		c.L2Miss[cat]++
		c.L2SliceQueries[slice]++
	}
}

// RecordUnitCycle accumulates one SM-cycle of occupancy state for a unit.
func (c *Collector) RecordUnitCycle(u isa.FuncUnit, busy bool) {
	if busy {
		c.UnitBusy[u]++
	}
}

// RecordSMCycle counts one SM-cycle (denominator for Fig 4).
func (c *Collector) RecordSMCycle() { c.SMCycles++ }

// RecordSMCycles counts n SM-cycles at once; the fast-forward engine uses it
// to account a skipped window exactly as n RecordSMCycle calls would have.
func (c *Collector) RecordSMCycles(n uint64) { c.SMCycles += n }

// RecordUnitCycles accumulates n busy SM-cycles for a unit at once (the
// batch counterpart of RecordUnitCycle for fast-forwarded windows).
func (c *Collector) RecordUnitCycles(u isa.FuncUnit, n uint64) { c.UnitBusy[u] += n }

// LoadOpRecord summarizes one completed warp-level global load for the
// turnaround statistics.
type LoadOpRecord struct {
	Kernel   string
	PC       uint32
	NonDet   bool
	NReq     int
	Total    int64
	Unloaded int64
	RsrvPrev int64
	RsrvCurr int64
	// Gap components (Fig 7).
	GapIcntL2 int64
	GapL2Icnt int64
}

// RecordLoadOp folds one completed load op into the Fig 5/6/7 aggregates.
func (c *Collector) RecordLoadOp(r LoadOpRecord) {
	cat := CatOf(r.NonDet)
	memsys := r.Total - r.Unloaded - r.RsrvPrev - r.RsrvCurr
	if memsys < 0 {
		memsys = 0
	}
	t := &c.Turnaround[cat]
	t.Ops++
	t.Total += r.Total
	t.Unloaded += r.Unloaded
	t.RsrvPrev += r.RsrvPrev
	t.RsrvCurr += r.RsrvCurr
	t.MemSystem += memsys

	key := PCKey{Kernel: r.Kernel, PC: r.PC}
	p := c.PerPC[key]
	if p == nil {
		p = &PCStats{Key: key, NonDet: r.NonDet, ByNReq: map[int]*GapAgg{}}
		c.PerPC[key] = p
	}
	g := p.bucket(r.NReq)
	g.Ops++
	g.Total += r.Total
	g.Common += r.Unloaded
	g.GapL1D += r.RsrvPrev + r.RsrvCurr
	g.GapIcntL2 += r.GapIcntL2
	g.GapL2Icnt += r.GapL2Icnt
}

// ---------------------------------------------------------------------------
// Derived metrics
// ---------------------------------------------------------------------------

// RequestsPerWarp returns Fig 2's requests per global-load warp instruction
// for a category.
func (c *Collector) RequestsPerWarp(cat Category) float64 {
	if c.GLoadWarps[cat] == 0 {
		return 0
	}
	return float64(c.Requests[cat]) / float64(c.GLoadWarps[cat])
}

// RequestsPerActiveThread returns Fig 2's requests per active thread.
func (c *Collector) RequestsPerActiveThread(cat Category) float64 {
	if c.GLoadThreads[cat] == 0 {
		return 0
	}
	return float64(c.Requests[cat]) / float64(c.GLoadThreads[cat])
}

// LoadFraction returns Fig 1's fraction of global-load warps that are
// non-deterministic (and its complement).
func (c *Collector) LoadFraction() (det, nondet float64) {
	total := c.GLoadWarps[Det] + c.GLoadWarps[NonDet]
	if total == 0 {
		return 0, 0
	}
	return float64(c.GLoadWarps[Det]) / float64(total),
		float64(c.GLoadWarps[NonDet]) / float64(total)
}

// MissRatio returns misses/accesses, or 0 when there were no accesses.
func MissRatio(miss, acc uint64) float64 {
	if acc == 0 {
		return 0
	}
	return float64(miss) / float64(acc)
}

// UnitIdleFraction returns Fig 4's idle fraction for a unit.
func (c *Collector) UnitIdleFraction(u isa.FuncUnit) float64 {
	if c.SMCycles == 0 {
		return 0
	}
	return 1 - float64(c.UnitBusy[u])/float64(c.SMCycles)
}

// L1CycleBreakdown returns Fig 3's normalized breakdown over all L1 access
// attempts (both categories combined), indexed by cache.Outcome.
func (c *Collector) L1CycleBreakdown() [cache.NumOutcomes]float64 {
	var out [cache.NumOutcomes]float64
	var total uint64
	for cat := Category(0); cat < NumCats; cat++ {
		for o := 0; o < int(cache.NumOutcomes); o++ {
			total += c.L1Outcomes[cat][o]
		}
	}
	if total == 0 {
		return out
	}
	for o := 0; o < int(cache.NumOutcomes); o++ {
		var sum uint64
		for cat := Category(0); cat < NumCats; cat++ {
			sum += c.L1Outcomes[cat][o]
		}
		out[o] = float64(sum) / float64(total)
	}
	return out
}

// BlockSummary is the Fig 10/11 aggregate over the block access map.
type BlockSummary struct {
	DistinctBlocks     uint64
	TotalLoadRequests  uint64
	ColdMissRatio      float64 // distinct blocks / total requests
	MeanAccessPerBlock float64
	SharedBlocks       uint64  // blocks touched by ≥2 CTAs
	SharedBlockRatio   float64 // shared blocks / distinct blocks
	SharedAccessRatio  float64 // accesses to shared blocks / total accesses
	MeanCTAsPerShared  float64 // average CTA count over shared blocks
	NonDetAccessRatio  float64 // block accesses from non-deterministic loads
}

// Blocks computes the Fig 10/11 summary.
func (c *Collector) Blocks() BlockSummary {
	var s BlockSummary
	s.DistinctBlocks = uint64(len(c.blocks))
	s.TotalLoadRequests = c.BlockLoadReqs
	if s.TotalLoadRequests > 0 {
		s.ColdMissRatio = float64(s.DistinctBlocks) / float64(s.TotalLoadRequests)
	}
	if s.DistinctBlocks > 0 {
		s.MeanAccessPerBlock = float64(s.TotalLoadRequests) / float64(s.DistinctBlocks)
	}
	var sharedAccesses, ctaSum, nonDet uint64
	for _, b := range c.blocks {
		nonDet += b.nonDetN
		if len(b.ctaSet) >= 2 {
			s.SharedBlocks++
			sharedAccesses += b.count
			ctaSum += uint64(len(b.ctaSet))
		}
	}
	if s.TotalLoadRequests > 0 {
		s.NonDetAccessRatio = float64(nonDet) / float64(s.TotalLoadRequests)
	}
	if s.DistinctBlocks > 0 {
		s.SharedBlockRatio = float64(s.SharedBlocks) / float64(s.DistinctBlocks)
	}
	if s.TotalLoadRequests > 0 {
		s.SharedAccessRatio = float64(sharedAccesses) / float64(s.TotalLoadRequests)
	}
	if s.SharedBlocks > 0 {
		s.MeanCTAsPerShared = float64(ctaSum) / float64(s.SharedBlocks)
	}
	return s
}

// DistanceBin is one (distance, weight) pair of the Fig 12 histogram.
type DistanceBin struct {
	Distance int
	Count    uint64
	Fraction float64
}

// CTADistanceHistogram returns the Fig 12 histogram sorted by distance.
func (c *Collector) CTADistanceHistogram() []DistanceBin {
	return histToBins(c.CTADist)
}

// CTADistanceHistogramFor returns the per-category histogram.
func (c *Collector) CTADistanceHistogramFor(cat Category) []DistanceBin {
	return histToBins(c.CTADistCat[cat])
}

func histToBins(h map[int]uint64) []DistanceBin {
	var total uint64
	for _, n := range h {
		total += n
	}
	out := make([]DistanceBin, 0, len(h))
	for d, n := range h {
		b := DistanceBin{Distance: d, Count: n}
		if total > 0 {
			b.Fraction = float64(n) / float64(total)
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	return out
}
