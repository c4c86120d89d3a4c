// Package stats collects the measurements behind every table and figure of
// the paper: per-category (deterministic / non-deterministic) load and
// request counts (Fig 1, 2), L1 cache-cycle outcome breakdowns (Fig 3),
// function-unit occupancy (Fig 4), load turnaround decompositions (Fig 5-7),
// cache miss ratios (Fig 8), shared-memory usage (Fig 9), and block-level
// access maps for cold-miss and inter-CTA locality analysis (Fig 10-12).
package stats

import (
	"fmt"
	"slices"

	"critload/internal/cache"
	"critload/internal/coalesce"
	"critload/internal/emu"
	"critload/internal/isa"
	"critload/internal/mem"
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

// MaxNReq is the most memory requests one warp load can make: one per lane.
const MaxNReq = emu.WarpSize

// PCStats aggregates the behaviour of one static load, bucketed by the
// number of memory requests its dynamic instances generated (Fig 6, 7).
// ByNReq[n] holds the ops that made n requests; index 0 stays empty, and a
// bucket no op reached has Ops == 0.
type PCStats struct {
	Key    PCKey
	NonDet bool
	ByNReq [MaxNReq + 1]GapAgg
}

// blockInfo tracks one 128-byte block's access history; count == 0 marks a
// block never touched.
type blockInfo struct {
	count   uint64
	nonDetN uint64 // accesses from non-deterministic loads
	firstW  int32  // first accessing CTA
	lastW   int32  // last accessing CTA (for distance recording)
	ctas    ctaSet // empty until a second CTA touches the block
}

// ctaSet is a block's accessing CTAs in ascending order. It stays empty
// until a second CTA touches the block and then holds every CTA that did,
// the first included, so a non-empty set has at least two ids. Two ids live
// inline; a larger set moves wholly to spill. The layout is canonical (inl
// beyond n and spill are zero while inline, inl is zero once spilled), so
// equal sets are reflect.DeepEqual.
type ctaSet struct {
	n     int32
	inl   [2]int32
	spill []int32
}

// ids returns the set's members in ascending order.
func (s *ctaSet) ids() []int32 {
	if int(s.n) <= len(s.inl) {
		return s.inl[:s.n]
	}
	return s.spill
}

// add inserts id, keeping the set sorted; adding a member is a no-op.
func (s *ctaSet) add(id int32) {
	i, found := slices.BinarySearch(s.ids(), id)
	switch {
	case found:
		return
	case int(s.n) < len(s.inl):
		copy(s.inl[i+1:s.n+1], s.inl[i:s.n])
		s.inl[i] = id
	case int(s.n) == len(s.inl):
		// inl[:] is full, so Insert copies it to a fresh array.
		s.spill = slices.Insert(s.inl[:], i, id)
		s.inl = [2]int32{}
	default:
		s.spill = slices.Insert(s.spill, i, id)
	}
	s.n++
}

// set installs ids, which must be ascending and at least two, in the
// canonical layout.
func (s *ctaSet) set(ids []int32) {
	*s = ctaSet{n: int32(len(ids))}
	if len(ids) <= len(s.inl) {
		copy(s.inl[:], ids)
	} else {
		s.spill = ids
	}
}

// blockLeaf holds the records of one 64 KiB region, the size of the mem page
// behind it: 512 blocks × 64 B = 32 KiB, half the page.
type blockLeaf [mem.PageSize / mem.BlockBytes]blockInfo

// blockTable is the block-level access map. A block's record sits at a slot
// that is a function of its address alone — leaf addr>>mem.PageBits, entry
// (addr%mem.PageSize)/mem.BlockBytes — so walking it visits blocks in address
// order and two tables holding the same blocks are reflect.DeepEqual. Leaves
// are allocated on the first touch of their region.
type blockTable struct {
	leaves []*blockLeaf
	n      uint64 // distinct blocks touched
}

// at returns block's record, allocating its leaf on first use; a record
// with count == 0 is new.
func (t *blockTable) at(block uint32) *blockInfo {
	id := int(block >> mem.PageBits)
	if id >= len(t.leaves) {
		t.leaves = slices.Grow(t.leaves, id+1-len(t.leaves))[:id+1]
	}
	l := t.leaves[id]
	if l == nil {
		l = new(blockLeaf)
		t.leaves[id] = l
	}
	return &l[block%mem.PageSize/mem.BlockBytes]
}

// each calls fn on every touched block in ascending address order.
func (t *blockTable) each(fn func(addr uint32, b *blockInfo)) {
	for id, l := range t.leaves {
		if l == nil {
			continue
		}
		for i := range l {
			if l[i].count != 0 {
				fn(uint32(id)<<mem.PageBits|uint32(i*mem.BlockBytes), &l[i])
			}
		}
	}
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

	// Fig 6/7: per-PC behaviour. An entry is created by LoadPC, once per
	// static load; the timing path then records through its *PCStats.
	PerPC map[PCKey]*PCStats

	// Fig 8: cache accesses and misses per category.
	L1Acc, L1Miss [NumCats]uint64
	L2Acc, L2Miss [NumCats]uint64

	// Table III: per-slice L2 read counters (slice = partition id parity,
	// matching the profiler's subp0/subp1 split).
	L2SliceQueries [2]uint64
	L2SliceHits    [2]uint64

	// Fig 10-12: block-level map, collected on the functional path.
	blocks        blockTable
	BlockLoadReqs uint64 // total coalesced load requests feeding the block map
	// CTADistance histograms, overall and per category, indexed by distance:
	// CTADist[d] counts cross-CTA touches d CTAs apart. Index 0 stays zero.
	CTADist    []uint64
	CTADistCat [NumCats][]uint64

	// accs is ObserveStep's coalescer output, reused from step to step and
	// grown by the first loads. It is empty between calls and never nil (an
	// empty literal allocates nothing, so a timing run's collector, which
	// observes no step, pays nothing), so two collectors that counted the
	// same steps stay reflect.DeepEqual.
	accs []coalesce.Access
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{PerPC: map[PCKey]*PCStats{}, accs: []coalesce.Access{}}
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
		accs := coalesce.CoalesceInto(c.accs, s.Exec, &s.Addrs)
		c.Requests[cat] += uint64(len(accs))
		for _, a := range accs {
			c.observeBlock(ctaID, a.Block, cat)
		}
		c.accs = accs[:0]
	case in.IsSharedLoad():
		c.SLoadWarps++
	case in.Op == isa.OpSt && in.Space == isa.SpaceGlobal:
		c.GStoreWarps++
	}
}

func (c *Collector) observeBlock(ctaID int, block uint32, cat Category) {
	c.BlockLoadReqs++
	b := c.blocks.at(block)
	if b.count == 0 {
		c.blocks.n++
		b.firstW, b.lastW = int32(ctaID), int32(ctaID)
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
		c.CTADist = bump(c.CTADist, d)
		c.CTADistCat[cat] = bump(c.CTADistCat[cat], d)
		if b.ctas.n == 0 {
			b.ctas.add(b.firstW)
		}
		b.ctas.add(int32(ctaID))
		b.lastW = int32(ctaID)
	}
}

// bump increments h[d], growing h to d+1 entries when it is shorter.
func bump(h []uint64, d int) []uint64 {
	if d >= len(h) {
		h = slices.Grow(h, d+1-len(h))[:d+1]
	}
	h[d]++
	return h
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

// RecordL1Refusals counts n reservation failures of one kind at once, as n
// RecordL1Outcome calls would; a parked SM's refusals arrive this way.
func (c *Collector) RecordL1Refusals(cat Category, o cache.Outcome, n uint64) {
	c.L1Outcomes[cat][o] += n
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
	NReq     int // 1..MaxNReq
	Total    int64
	Unloaded int64
	RsrvPrev int64
	RsrvCurr int64
	// Gap components (Fig 7).
	GapIcntL2 int64
	GapL2Icnt int64
}

// LoadPC returns the per-PC aggregate of a kernel's static load, creating
// it on first use. The timing path calls it once per load and SM per launch
// and records every completion of that load through the returned pointer,
// so PerPC is not consulted per op.
func (c *Collector) LoadPC(kernel string, pc uint32, nonDet bool) *PCStats {
	key := PCKey{Kernel: kernel, PC: pc}
	p := c.PerPC[key]
	if p == nil {
		p = &PCStats{Key: key, NonDet: nonDet}
		c.PerPC[key] = p
	}
	return p
}

// RecordLoadOp folds one completed op of the static load p (from LoadPC)
// into the Fig 5/6/7 aggregates. A warp load makes one request per active
// lane at most, so an NReq outside 1..MaxNReq is a simulator bug and panics.
func (c *Collector) RecordLoadOp(p *PCStats, r LoadOpRecord) {
	if r.NReq < 1 || r.NReq > MaxNReq {
		panic(fmt.Sprintf("stats: load op with %d requests, want 1..%d", r.NReq, MaxNReq))
	}
	cat := CatOf(p.NonDet)
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

	g := &p.ByNReq[r.NReq]
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
	s.DistinctBlocks = c.blocks.n
	s.TotalLoadRequests = c.BlockLoadReqs
	if s.TotalLoadRequests > 0 {
		s.ColdMissRatio = float64(s.DistinctBlocks) / float64(s.TotalLoadRequests)
	}
	if s.DistinctBlocks > 0 {
		s.MeanAccessPerBlock = float64(s.TotalLoadRequests) / float64(s.DistinctBlocks)
	}
	var sharedAccesses, ctaSum, nonDet uint64
	c.blocks.each(func(_ uint32, b *blockInfo) {
		nonDet += b.nonDetN
		if b.ctas.n >= 2 {
			s.SharedBlocks++
			sharedAccesses += b.count
			ctaSum += uint64(b.ctas.n)
		}
	})
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

func histToBins(h []uint64) []DistanceBin {
	var total uint64
	for _, n := range h {
		total += n
	}
	out := []DistanceBin{}
	for d, n := range h {
		if n > 0 {
			out = append(out, DistanceBin{Distance: d, Count: n, Fraction: float64(n) / float64(total)})
		}
	}
	return out
}
