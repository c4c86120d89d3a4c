// Package sm models one streaming multiprocessor: warp contexts with a
// scoreboard, two warp schedulers (loose round-robin or greedy-then-oldest),
// SP / SFU / LD-ST function units with first-stage occupancy tracking, a
// coalescing LD/ST pipeline in front of a private L1 data cache, barrier
// handling, and CTA resource accounting. The observable behaviours are the
// ones the paper measures: per-access L1 outcomes (Fig 3), unit idle
// fractions (Fig 4), and per-load turnaround decompositions (Fig 5-7).
package sm

import (
	"fmt"
	"slices"

	"critload/internal/cache"
	"critload/internal/coalesce"
	"critload/internal/emu"
	"critload/internal/isa"
	"critload/internal/memreq"
	"critload/internal/ring"
	"critload/internal/stats"
)

// Policy selects the warp scheduling policy.
type Policy uint8

// Warp scheduler policies.
const (
	LRR Policy = iota // loose round-robin
	GTO               // greedy-then-oldest
)

func (p Policy) String() string {
	if p == GTO {
		return "gto"
	}
	return "lrr"
}

// Config sizes one SM. The defaults mirror Table II's Tesla C2050 setup.
type Config struct {
	NumSchedulers  int
	MaxWarps       int
	MaxCTAs        int
	MaxThreads     int
	SharedMemBytes int
	Registers      int // 32-bit registers per SM (128 KB register file)

	SPLatency    int64 // SP result latency
	SPInit       int64 // SP initiation interval (first-stage occupancy)
	SFULatency   int64
	SFUInit      int64
	SharedLat    int64 // shared-memory load/store latency
	ConstLat     int64 // parameter/constant access latency
	LDSTQueueCap int   // warp memory ops concurrently issuing accesses

	Policy Policy
	L1     cache.Config

	// NonDetBypassL1 enables the Section X.A instruction-specific
	// optimization: non-deterministic loads skip the L1 entirely so their
	// bursty request streams stop exhausting cache tags and MSHRs that
	// deterministic loads could use.
	NonDetBypassL1 bool

	// PrefetchNextLine enables a simple next-line prefetcher on L1 misses —
	// the kind of application-oblivious mechanism the paper contrasts with
	// instruction-aware ones: it helps the unit-stride deterministic
	// streams but wastes tags and bandwidth on non-deterministic loads.
	PrefetchNextLine bool
}

// DefaultConfig returns the Table II SM configuration.
func DefaultConfig() Config {
	return Config{
		NumSchedulers:  2,
		MaxWarps:       48,
		MaxCTAs:        8,
		MaxThreads:     1536,
		SharedMemBytes: 48 * 1024,
		Registers:      32768,
		SPLatency:      4,
		SPInit:         1,
		SFULatency:     16,
		SFUInit:        8,
		SharedLat:      24,
		ConstLat:       8,
		LDSTQueueCap:   4,
		Policy:         LRR,
		L1: cache.Config{
			Bytes: 16 * 1024, LineBytes: 128, Ways: 4,
			MSHREntries: 64, MSHRTargets: 8, HitLatency: 18,
		},
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumSchedulers <= 0 || c.MaxWarps <= 0 || c.MaxCTAs <= 0 ||
		c.MaxThreads <= 0 || c.LDSTQueueCap <= 0 {
		return fmt.Errorf("sm: bad config %+v", c)
	}
	return c.L1.Validate()
}

// CheckCTA reports why one CTA of the launch cannot run even on an empty SM
// of this configuration, naming the resource it exceeds; nil when it fits.
// Such a launch would otherwise wait forever for an SM to accept it.
func (c Config) CheckCTA(l *emu.Launch) error {
	threads := l.Block.Count()
	need := func(n int, what string, have int) error {
		return fmt.Errorf("sm: a CTA of kernel %s needs %d %s, an SM has %d", l.Kernel.Name, n, what, have)
	}
	switch {
	case c.MaxCTAs < 1:
		return need(1, "CTA slots", c.MaxCTAs)
	case threads > c.MaxThreads:
		return need(threads, "threads", c.MaxThreads)
	case l.WarpsPerCTA() > c.MaxWarps:
		return need(l.WarpsPerCTA(), "warps", c.MaxWarps)
	case l.Kernel.SharedBytes > c.SharedMemBytes:
		return need(l.Kernel.SharedBytes, "bytes of shared memory", c.SharedMemBytes)
	case l.Kernel.NumRegs*threads > c.Registers:
		return need(l.Kernel.NumRegs*threads, "registers", c.Registers)
	}
	return nil
}

// LatencyModel gives the unloaded end-to-end latencies used by the
// turnaround decomposition (Fig 5's bottom component).
type LatencyModel struct {
	L1Hit int64 // load serviced by the L1
	L2Hit int64 // L1 miss serviced by the L2
	DRAM  int64 // L1+L2 miss serviced by DRAM
	Icnt  int64 // one-way unloaded network latency
}

// Unloaded returns the unloaded latency for a service level.
func (m LatencyModel) Unloaded(lvl memreq.Level) int64 {
	switch lvl {
	case memreq.LvlL1:
		return m.L1Hit
	case memreq.LvlL2:
		return m.L2Hit
	case memreq.LvlDRAM:
		return m.DRAM
	}
	return 0
}

// Tracer receives every completed load request; implemented by
// trace.Buffer. A nil tracer disables tracing.
type Tracer interface {
	Add(r *memreq.Request)
}

// Backend is the SM's view of the rest of the GPU (implemented by the gpu
// package): request-network injection, address mapping, and CTA retirement.
type Backend interface {
	// CanInject reports whether this SM can inject a packet into the request
	// network right now; it backs the L1's interconnect reservation.
	CanInject(smID int) bool
	// Inject sends a request into the request network. It must only be
	// called after CanInject returned true in the same cycle.
	Inject(r *memreq.Request, flits int64, now int64)
	// PartitionOf maps a block address (as accessed by the given SM) to its
	// memory partition. The SM id matters only for the semi-global L2
	// organization of Section X.C, where SM clusters own L2 slice groups.
	PartitionOf(smID int, block uint32) int
	// CTAFinished notifies that a CTA fully retired on the SM.
	CTAFinished(smID int, cta *emu.CTA)
}

type ctaCtx struct {
	cta       *emu.CTA
	warps     []warpCtx    // one per warp of cta, kept with it for reuse
	pending   []int        // backs the warps' pendingReg and pendingPred
	hazards   []isa.Hazard // the kernel's per-instruction scoreboard operands
	liveWarps int
	threads   int
	shared    int
	regs      int

	// refs counts the writeback events and memOps that still name one of
	// the CTA's warps. A CTA retires at its last exit, but a load issued
	// before it may still be queued or awaiting replies and will decrement
	// its warp's scoreboard when it completes; the context is reusable once
	// it has retired and refs is zero.
	refs    int
	retired bool
}

type warpCtx struct {
	w           *emu.Warp
	cta         *ctaCtx
	pendingReg  []int // per-register outstanding writes
	pendingPred []int
	age         int // global arrival order (GTO tiebreak)

	// Scheduler ready-set state (ready.go); unused by the naive engine.
	sched, pos int  // this warp is schedWarps[sched][pos]
	readyIn    int8 // unit whose ready set holds the warp's bit, or notReady
}

// scoreboardReady reports whether the warp's next instruction has no RAW/WAW
// hazard on in-flight results.
func (wc *warpCtx) scoreboardReady(in *isa.Instruction) bool {
	var buf [4]int
	for _, r := range in.SourceRegs(buf[:0]) {
		if wc.pendingReg[r] > 0 {
			return false
		}
	}
	if d := in.DefReg(); d >= 0 && wc.pendingReg[d] > 0 {
		return false
	}
	if d := in.DefPred(); d >= 0 && wc.pendingPred[d] > 0 {
		return false
	}
	if in.Guard.Active() && wc.pendingPred[in.Guard.Reg] > 0 {
		return false
	}
	for s := 0; s < in.NSrc; s++ {
		if in.Srcs[s].Kind == isa.OpdPred && wc.pendingPred[in.Srcs[s].Reg] > 0 {
			return false
		}
	}
	return true
}

type memOpKind uint8

const (
	opGlobalLoad memOpKind = iota
	opGlobalStore
	opAtomic
)

// memOp is one warp-level memory instruction in the LD/ST pipeline.
type memOp struct {
	kind     memOpKind
	warp     *warpCtx
	inst     *isa.Instruction
	reqs     []*memreq.Request
	slot     uint32 // this op's OpSlot: its index in SM.ops plus one, fixed for life
	next     int    // next request to present to the L1 / network
	pending  int    // responses still to return (ops that write back only)
	issued   int64
	firstAcc int64 // first request acceptance cycle (-1 until set)
	lastAcc  int64
	nonDet   bool
	isLoad   bool // writes back a destination register
}

func (op *memOp) category() stats.Category { return stats.CatOf(op.nonDet) }

type timedReq struct {
	at  int64
	req *memreq.Request
}

type wbEvent struct {
	at   int64
	warp *warpCtx
	reg  int // general register, -1 if none
	pred int // predicate register, -1 if none
}

// wbClass selects a writeback queue. Each class has one constant latency, so
// events pushed in issue order are due in that order and each class's queue
// is a FIFO ring whose head is its earliest deadline.
type wbClass uint8

const (
	wbConst  wbClass = iota // parameter/constant loads, ConstLat
	wbShared                // shared-memory loads, SharedLat
	wbSFU                   // SFULatency
	wbSP                    // SPLatency
	numWBClasses
)

// SM is one streaming multiprocessor.
type SM struct {
	ID  int
	cfg Config
	lat LatencyModel

	backend Backend
	col     *stats.Collector

	// Current kernel context (set per launch). pcStats[i] is the per-PC
	// aggregate of instruction i, fetched from the collector at the load's
	// first completion in the launch (nil before).
	env        *emu.Env
	classify   stats.Classifier
	kernelName string
	pcStats    []*stats.PCStats

	L1 *cache.Cache

	ctas  []*ctaCtx
	warps []*warpCtx
	// schedWarps partitions the live warps over the schedulers (by age
	// modulo scheduler count, as on Fermi); maintained on CTA launch/retire.
	schedWarps [][]*warpCtx
	age        int

	usedThreads int
	usedShared  int
	usedRegs    int

	unitBusyUntil [isa.NumFuncUnits]int64
	ldstQ         ring.Buffer[*memOp]
	wb            [numWBClasses]ring.Buffer[wbEvent]
	wbLat         [numWBClasses]int64
	hitEvents     ring.Buffer[timedReq] // FIFO: L1.HitLatency is one constant
	inflight      int                   // responses owned ops still wait for

	rr     []int // per-scheduler round-robin cursor
	greedy []*warpCtx

	// Zero-alloc hot-path state: the device-wide request free list, every
	// memOp this SM allocated (ops[slot-1], how a response finds its op) and
	// the free ones among them, a coalescer scratch slice, and the cycle of
	// the last instruction issue (a cheap NextEvent shortcut).
	pool       *memreq.Pool
	ops        []*memOp
	opFree     []*memOp
	accScratch []coalesce.Access
	lastIssue  int64

	// Stall cache, used only under the fast-forward engine (the naive loop
	// stays a dumb oracle that re-scans every cycle). After a cycle in which
	// nothing issued and the LD/ST queue is empty, stallUntil holds the SM's
	// NextEvent horizon: no internal deadline (writeback, hit, unit free) and
	// hence no issue can occur before it, so Step returns at once and
	// NextEvent returns it directly. Anything external that can wake a warp
	// (a reply, a new CTA, a new kernel) resets it to 0.
	//
	// A frozen SM records no occupancy per cycle. The step that freezes it
	// opens an idle window at idleFrom (0 = none open; a window never starts
	// at cycle 0), and the next real step or FlushIdle folds the window's
	// cycles into the collector in one accountIdle call.
	fastForward bool
	stallUntil  int64
	idleFrom    int64

	// ready[sched] are the scheduler's per-unit ready sets, the second
	// fast-forward-only structure; see ready.go for the invariant.
	readySets bool
	ready     []readySet

	// ctaFree holds retired CTA contexts, each with its warp contexts and
	// emulator CTA, for LaunchCTA to reuse; the third fast-forward-only
	// structure. The naive engine allocates every context fresh, so a
	// context reused while a late event still names it shows up as an
	// engine divergence.
	ctaFree []*ctaCtx

	nextReqID uint64
	tracer    Tracer

	// InstructionsIssued counts issued warp instructions (all units).
	InstructionsIssued uint64
}

// SetTracer installs (or removes, with nil) a per-request trace sink.
func (s *SM) SetTracer(t Tracer) { s.tracer = t }

// SetPool installs the device-wide request free list (nil keeps plain
// allocation). The gpu package shares one pool across all SMs and memory
// partitions; see memreq.Pool for the ownership rules.
func (s *SM) SetPool(p *memreq.Pool) { s.pool = p }

// SetFastForward enables the stall cache that lets Step elide provably
// fruitless scheduler scans, the ready sets that replace the scans that
// remain, and the reuse of retired CTA contexts. Only the fast-forward engine
// turns it on: the serial loop is kept free of event reasoning so it remains
// an independent differential-testing oracle (a NextEvent overestimate, a
// stale ready bit or a context reused too early then shows up as an engine
// divergence instead of corrupting both engines identically). It must be
// called while no CTA is resident.
func (s *SM) SetFastForward(on bool) {
	s.fastForward = on
	// One word per scheduler and unit: a wider SM keeps scanning.
	s.readySets = on && s.cfg.MaxWarps <= 64
	if !on {
		s.ctaFree = nil
	}
}

// getOp takes a memOp from the free list (or allocates one), keeping the
// recycled reqs backing array.
func (s *SM) getOp() *memOp {
	if n := len(s.opFree); n > 0 {
		op := s.opFree[n-1]
		s.opFree[n-1] = nil
		s.opFree = s.opFree[:n-1]
		*op = memOp{reqs: op.reqs[:0], slot: op.slot}
		return op
	}
	// One request per lane is the coalescer's most.
	op := &memOp{reqs: make([]*memreq.Request, 0, emu.WarpSize), slot: uint32(len(s.ops) + 1)}
	s.ops = append(s.ops, op)
	return op
}

// putOp recycles a terminal memOp: one that left the LD/ST queue and whose
// completion (if any) has been fully recorded. Request pointers are dropped
// here; the requests themselves are recycled at their own terminal points.
func (s *SM) putOp(op *memOp) {
	for i := range op.reqs {
		op.reqs[i] = nil
	}
	op.reqs = op.reqs[:0]
	s.unref(op.warp.cta)
	op.warp = nil
	op.inst = nil
	s.opFree = append(s.opFree, op)
}

// New builds an SM.
func New(id int, cfg Config, lat LatencyModel, backend Backend, col *stats.Collector) (*SM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if backend == nil || col == nil {
		return nil, fmt.Errorf("sm: nil backend or collector")
	}
	return &SM{
		ID: id, cfg: cfg, lat: lat, backend: backend, col: col,
		L1:         cache.MustNew(cfg.L1),
		rr:         make([]int, cfg.NumSchedulers),
		greedy:     make([]*warpCtx, cfg.NumSchedulers),
		schedWarps: make([][]*warpCtx, cfg.NumSchedulers),
		ready:      make([]readySet, cfg.NumSchedulers),
		wbLat:      [numWBClasses]int64{cfg.ConstLat, cfg.SharedLat, cfg.SFULatency, cfg.SPLatency},
		lastIssue:  -1,
	}, nil
}

// SetKernel installs the kernel context for the next launch. It also drops
// the per-PC handles of the previous launch, so a collector restored at the
// boundary before it is the one the launch records into.
func (s *SM) SetKernel(env *emu.Env, kernelName string, classify stats.Classifier) {
	s.env = env
	s.kernelName = kernelName
	s.classify = classify
	n := len(env.Launch.Kernel.Insts)
	s.pcStats = slices.Grow(s.pcStats[:0], n)[:n]
	clear(s.pcStats)
	s.stallUntil = 0
	// GPUs invalidate L1 between kernel launches.
	s.L1.InvalidateAll()
}

// CanAccept reports whether the SM has resources for one more CTA of the
// launch.
func (s *SM) CanAccept(l *emu.Launch) bool {
	threads := l.Block.Count()
	warps := l.WarpsPerCTA()
	regs := l.Kernel.NumRegs * threads
	return len(s.ctas) < s.cfg.MaxCTAs &&
		s.usedThreads+threads <= s.cfg.MaxThreads &&
		len(s.warps)+warps <= s.cfg.MaxWarps &&
		s.usedShared+l.Kernel.SharedBytes <= s.cfg.SharedMemBytes &&
		s.usedRegs+regs <= s.cfg.Registers
}

// LaunchCTA instantiates CTA id of the launch on this SM; the caller must
// have checked CanAccept.
func (s *SM) LaunchCTA(l *emu.Launch, id int) {
	var cc *ctaCtx
	if n := len(s.ctaFree); n > 0 {
		cc = s.ctaFree[n-1]
		s.ctaFree = s.ctaFree[:n-1]
	} else {
		cc = &ctaCtx{cta: new(emu.CTA)}
	}
	cta := cc.cta
	cta.Reset(l, id)
	cc.hazards = l.Kernel.Hazards()
	cc.liveWarps = len(cta.Warps)
	cc.threads = l.Block.Count()
	cc.shared = l.Kernel.SharedBytes
	cc.regs = l.Kernel.NumRegs * l.Block.Count()
	cc.retired = false
	s.ctas = append(s.ctas, cc)
	s.stallUntil = 0 // fresh warps may issue immediately
	s.usedThreads += cc.threads
	s.usedShared += cc.shared
	s.usedRegs += cc.regs
	// Nothing names a context being launched, so its warp contexts may move.
	n, nr := len(cta.Warps), l.Kernel.NumRegs
	per := nr + l.Kernel.NumPreds
	cc.warps = slices.Grow(cc.warps[:0], n)[:n]
	cc.pending = slices.Grow(cc.pending[:0], n*per)[:n*per]
	clear(cc.pending)
	for i, w := range cta.Warps {
		wc := &cc.warps[i]
		p := cc.pending[i*per : (i+1)*per]
		*wc = warpCtx{
			w: w, cta: cc,
			pendingReg:  p[:nr],
			pendingPred: p[nr:],
			age:         s.age,
			sched:       s.age % s.cfg.NumSchedulers,
			readyIn:     notReady,
		}
		s.warps = append(s.warps, wc)
		wc.pos = len(s.schedWarps[wc.sched])
		s.schedWarps[wc.sched] = append(s.schedWarps[wc.sched], wc)
		s.age++
		if s.readySets {
			s.refreshReady(wc)
		}
	}
}

// LiveCTAs returns the number of resident CTAs.
func (s *SM) LiveCTAs() int { return len(s.ctas) }

// Idle reports whether the SM has no work at all: no live warps and no
// in-flight memory operations or events.
func (s *SM) Idle() bool {
	pending := s.ldstQ.Len() + s.hitEvents.Len() + s.inflight
	for c := range s.wb {
		pending += s.wb[c].Len()
	}
	return len(s.warps) == 0 && pending == 0
}

// retireCTA frees a finished CTA's resources.
func (s *SM) retireCTA(cc *ctaCtx) {
	for i, c := range s.ctas {
		if c == cc {
			s.ctas = append(s.ctas[:i], s.ctas[i+1:]...)
			break
		}
	}
	s.usedThreads -= cc.threads
	s.usedShared -= cc.shared
	s.usedRegs -= cc.regs
	// Remove retired warps.
	kept := s.warps[:0]
	for _, wc := range s.warps {
		if wc.cta != cc {
			kept = append(kept, wc)
		}
	}
	s.warps = kept
	for sched := range s.schedWarps {
		sk := s.schedWarps[sched][:0]
		for _, wc := range s.schedWarps[sched] {
			if wc.cta != cc {
				sk = append(sk, wc)
			}
		}
		s.schedWarps[sched] = sk
	}
	if s.readySets {
		s.renumberReady()
	}
	for i := range s.greedy {
		if s.greedy[i] != nil && s.greedy[i].cta == cc {
			s.greedy[i] = nil
		}
	}
	s.backend.CTAFinished(s.ID, cc.cta)
	cc.retired = true
	s.maybeFree(cc)
}

// unref drops one writeback or memOp reference to the CTA's warps.
func (s *SM) unref(cc *ctaCtx) {
	cc.refs--
	s.maybeFree(cc)
}

// maybeFree puts a retired CTA context that nothing names any more on the
// free list, when the fast-forward engine recycles contexts.
func (s *SM) maybeFree(cc *ctaCtx) {
	if cc.retired && cc.refs == 0 && s.fastForward {
		s.ctaFree = append(s.ctaFree, cc)
	}
}

// Step advances the SM one cycle: completions, the LD/ST pipeline, then
// instruction issue (functionally executing the chosen warp instructions),
// then occupancy statistics.
func (s *SM) Step(now int64) error {
	if now < s.stallUntil {
		// Frozen: stallUntil is the minimum over every internal deadline, so
		// no writeback or hit is due, the LD/ST queue is empty and no warp can
		// issue. The open idle window accounts this cycle.
		return nil
	}
	s.foldIdle(now)
	s.processWritebacks(now)
	s.stepLDST(now)
	if err := s.issue(now); err != nil {
		return err
	}
	s.stallUntil = 0
	if s.fastForward && s.lastIssue != now && s.ldstQ.Len() == 0 {
		s.stallUntil = s.NextEvent(now)
	}
	s.recordOccupancy(now)
	if s.stallUntil > now+1 {
		s.idleFrom = now + 1
	}
	return nil
}

func (s *SM) recordOccupancy(now int64) {
	s.col.RecordSMCycle()
	s.col.RecordUnitCycle(isa.UnitSP, s.unitBusyUntil[isa.UnitSP] > now)
	s.col.RecordUnitCycle(isa.UnitSFU, s.unitBusyUntil[isa.UnitSFU] > now)
	s.col.RecordUnitCycle(isa.UnitLDST, s.ldstBusy(now))
}

// ldstBusy reports whether the LD/ST first stage cannot accept a new warp
// memory instruction.
func (s *SM) ldstBusy(now int64) bool {
	return s.ldstQ.Len() >= s.cfg.LDSTQueueCap || s.unitBusyUntil[isa.UnitLDST] > now
}

// processWritebacks retires every due writeback. Events of different classes
// due in the same cycle retire in class order rather than issue order, which
// no engine can observe: the pending-counter decrements commute, and
// refreshReady is a function of the warp's state after the last of them.
func (s *SM) processWritebacks(now int64) {
	for c := range s.wb {
		q := &s.wb[c]
		for q.Len() > 0 && q.Peek().at <= now {
			e := q.Pop()
			if e.reg >= 0 {
				e.warp.pendingReg[e.reg]--
			}
			if e.pred >= 0 {
				e.warp.pendingPred[e.pred]--
			}
			if s.readySets {
				s.refreshReady(e.warp)
			}
			s.unref(e.warp.cta)
		}
	}
}

// scheduleWriteback holds the instruction's destination until the class's
// latency has elapsed.
func (s *SM) scheduleWriteback(wc *warpCtx, in *isa.Instruction, c wbClass, now int64) {
	reg, pred := in.DefReg(), in.DefPred()
	if reg < 0 && pred < 0 {
		return
	}
	if reg >= 0 {
		wc.pendingReg[reg]++
	}
	if pred >= 0 {
		wc.pendingPred[pred]++
	}
	wc.cta.refs++
	s.wb[c].Push(wbEvent{at: now + s.wbLat[c], warp: wc, reg: reg, pred: pred})
}
