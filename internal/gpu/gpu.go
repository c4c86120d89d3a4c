// Package gpu wires the full device together: 14 SMs with private L1s, a
// request and a reply interconnection network, 6 memory partitions each with
// an L2 slice and a GDDR5-like channel, and a CTA scheduler (round-robin as
// on real hardware, or the clustered variant the paper's Section X.B
// proposes). Kernel launches run execution-driven: warps execute
// functionally at issue inside the SMs while this package models timing.
package gpu

import (
	"fmt"
	"math"

	"critload/internal/cache"
	"critload/internal/dataflow"
	"critload/internal/dram"
	"critload/internal/emu"
	"critload/internal/icnt"
	"critload/internal/mem"
	"critload/internal/memreq"
	"critload/internal/ptx"
	"critload/internal/sm"
	"critload/internal/stats"
)

// CTAPolicy selects how CTAs are distributed over SMs.
type CTAPolicy uint8

// CTA scheduling policies.
const (
	// CTARoundRobin assigns CTA i to SM (i mod numSMs), the baseline
	// hardware behaviour described in Section X.B.
	CTARoundRobin CTAPolicy = iota
	// CTAClustered assigns neighbouring CTAs to the same SM so adjacent
	// CTAs share the private L1, the paper's proposed alternative.
	CTAClustered
)

func (p CTAPolicy) String() string {
	if p == CTAClustered {
		return "clustered"
	}
	return "round-robin"
}

// Config is the whole-device configuration; defaults follow Table II.
type Config struct {
	NumSMs        int
	NumPartitions int
	SM            sm.Config
	L2            cache.Config // per partition slice
	ICNT          icnt.Config
	DRAM          dram.Config
	CTAPolicy     CTAPolicy
	// L2Clusters > 1 selects the semi-global L2 organization of Section
	// X.C: the L2 slices are split into that many groups, each private to a
	// cluster of SMs. Must divide NumPartitions. 0 or 1 keeps the unified
	// L2 of Table II.
	L2Clusters int
	// MaxCycles aborts a run that exceeds this cycle count (0 = unlimited);
	// a safety net against simulator livelock.
	MaxCycles int64
	// MaxWarpInsts stops issuing new CTAs after this many warp instructions
	// (0 = unlimited), mirroring the paper's first-billion-instruction
	// simulation window.
	MaxWarpInsts uint64
	// FastForward enables event-horizon skipping: when no component can make
	// progress, the engine jumps straight to the earliest future event
	// instead of ticking dead cycles one by one. Every statistic is
	// batch-accounted so results are byte-identical to the serial loop;
	// disabling it keeps the naive loop as a differential-testing oracle.
	// DefaultConfig enables it.
	FastForward bool
}

// DefaultConfig returns the Tesla C2050 configuration of Table II: 14 SMs,
// 16 KB L1 (128 B lines, 4-way, 64 MSHRs), 768 KB unified L2 in 6 slices
// (8-way, 32 MSHRs each), ROP (L2) latency 120, DRAM latency 100.
func DefaultConfig() Config {
	return Config{
		NumSMs:        14,
		NumPartitions: 6,
		SM:            sm.DefaultConfig(),
		L2: cache.Config{
			Bytes: 128 * 1024, LineBytes: 128, Ways: 8,
			MSHREntries: 32, MSHRTargets: 8, HitLatency: 120,
		},
		ICNT:        icnt.Config{Latency: 8, InputQueueCap: 8},
		DRAM:        dram.DefaultConfig(),
		FastForward: true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumSMs <= 0 || c.NumPartitions <= 0 {
		return fmt.Errorf("gpu: bad dimensions %d SMs × %d partitions", c.NumSMs, c.NumPartitions)
	}
	if err := c.SM.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.ICNT.Validate(); err != nil {
		return err
	}
	if c.L2Clusters > 1 && c.NumPartitions%c.L2Clusters != 0 {
		return fmt.Errorf("gpu: %d L2 clusters do not divide %d partitions",
			c.L2Clusters, c.NumPartitions)
	}
	return c.DRAM.Validate()
}

// latencyModel derives the unloaded latencies of the three service levels
// from the configuration.
func (c Config) latencyModel() sm.LatencyModel {
	l1 := c.SM.L1.HitLatency
	l2 := l1 + 2*c.ICNT.Latency + c.L2.HitLatency
	return sm.LatencyModel{
		L1Hit: l1,
		L2Hit: l2,
		DRAM:  l2 + c.DRAM.AccessLatency,
		Icnt:  c.ICNT.Latency,
	}
}

// GPU is one simulated device.
type GPU struct {
	cfg   Config
	Mem   *mem.Memory
	Col   *stats.Collector
	sms   []*sm.SM
	parts []*partition

	reqNet   *icnt.Network
	replyNet *icnt.Network

	// pool recycles memory requests device-wide: SMs take from it, and
	// requests retire back into it at the SMs and (write-through stores) at
	// the DRAM channels. See memreq.Pool for the ownership rules.
	pool memreq.Pool

	cycle int64

	// SkippedCycles counts cycles fast-forwarded over instead of stepped; a
	// diagnostic for skip effectiveness. It lives outside the Collector on
	// purpose: the serial oracle never skips, and the two engines' collectors
	// must stay byte-identical.
	SkippedCycles int64

	// pinHint is the component index (see nextEventOf) that most recently
	// pinned the horizon to now+1. Activity is phase-local, so rechecking it
	// first usually resolves the horizon with a single NextEvent call instead
	// of a full component scan. Purely an evaluation-order hint: the horizon
	// value is identical with or without it.
	pinHint int

	// Launch state.
	launch     *emu.Launch
	nextCTA    int
	liveCTAs   int
	stopIssue  bool // warp-instruction budget exhausted: no new CTAs
	classCache map[*ptx.Kernel]*dataflow.Result
}

// New builds a GPU over the given memory.
func New(cfg Config, memory *mem.Memory, col *stats.Collector) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if memory == nil {
		memory = mem.New()
	}
	if col == nil {
		col = stats.New()
	}
	g := &GPU{cfg: cfg, Mem: memory, Col: col, classCache: map[*ptx.Kernel]*dataflow.Result{}}

	g.reqNet = icnt.MustNew(cfg.NumSMs, cfg.NumPartitions, cfg.ICNT, g.deliverToPartition)
	g.replyNet = icnt.MustNew(cfg.NumPartitions, cfg.NumSMs, cfg.ICNT, g.deliverToSM)
	g.reqNet.SetFastForward(cfg.FastForward)
	g.replyNet.SetFastForward(cfg.FastForward)

	lat := cfg.latencyModel()
	for i := 0; i < cfg.NumSMs; i++ {
		s, err := sm.New(i, cfg.SM, lat, (*backend)(g), col)
		if err != nil {
			return nil, err
		}
		s.SetPool(&g.pool)
		s.SetFastForward(cfg.FastForward)
		g.sms = append(g.sms, s)
	}
	for i := 0; i < cfg.NumPartitions; i++ {
		g.parts = append(g.parts, newPartition(i, g))
	}
	return g, nil
}

// MustNew builds a GPU or panics.
func MustNew(cfg Config, memory *mem.Memory, col *stats.Collector) *GPU {
	g, err := New(cfg, memory, col)
	if err != nil {
		panic(err)
	}
	return g
}

// Cycle returns the current simulation cycle.
func (g *GPU) Cycle() int64 { return g.cycle }

// SetTracer installs a per-request trace sink on every SM (nil disables).
// Trace entries appear in completion order.
func (g *GPU) SetTracer(t sm.Tracer) {
	for _, s := range g.sms {
		s.SetTracer(t)
	}
}

// backend adapts *GPU to the sm.Backend interface without exporting the
// methods on GPU itself.
type backend GPU

func (b *backend) CanInject(smID int) bool { return b.reqNet.CanInject(smID) }

func (b *backend) Inject(r *memreq.Request, flits int64, now int64) {
	if !b.reqNet.Inject(r.SM, r.Partition, r, flits, now) {
		panic("gpu: Inject called without CanInject")
	}
}

func (b *backend) PartitionOf(smID int, block uint32) int {
	if b.cfg.L2Clusters > 1 {
		// Semi-global L2 (Section X.C): each SM cluster owns a group of L2
		// slices; blocks interleave within the group. Read-only data may be
		// duplicated across groups, exactly like private caches.
		per := b.cfg.NumPartitions / b.cfg.L2Clusters
		cluster := smID * b.cfg.L2Clusters / b.cfg.NumSMs
		return cluster*per + int(block/mem.BlockBytes)%per
	}
	return int(block/mem.BlockBytes) % b.cfg.NumPartitions
}

func (b *backend) CTAFinished(smID int, cta *emu.CTA) {
	g := (*GPU)(b)
	g.liveCTAs--
}

// deliverToPartition receives request-network packets at a partition.
func (g *GPU) deliverToPartition(p *icnt.Packet, now int64) {
	p.Req.ArrivedL2 = now
	g.parts[p.Dst].receive(p.Req)
}

// deliverToSM receives reply-network packets at an SM.
func (g *GPU) deliverToSM(p *icnt.Packet, now int64) {
	g.sms[p.Dst].HandleReply(p.Req, now)
}

// classify returns (caching) the dataflow classification of a kernel.
func (g *GPU) classify(k *ptx.Kernel) *dataflow.Result {
	r, ok := g.classCache[k]
	if !ok {
		r = dataflow.Classify(k)
		g.classCache[k] = r
	}
	return r
}

// LaunchKernel runs one kernel launch to completion under the timing model.
func (g *GPU) LaunchKernel(l *emu.Launch) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if err := g.cfg.SM.CheckCTA(l); err != nil {
		return err
	}
	g.launch = l
	g.nextCTA = 0
	g.liveCTAs = 0
	env := &emu.Env{Mem: g.Mem, Launch: l}
	classifier := g.classify(l.Kernel).NonDetAt
	for _, s := range g.sms {
		s.SetKernel(env, l.Kernel.Name, classifier)
	}
	if g.cfg.MaxWarpInsts > 0 && g.Col.WarpInsts >= g.cfg.MaxWarpInsts {
		return nil // budget already exhausted by earlier launches
	}
	g.stopIssue = false
	err := g.run(l)
	// However the launch ended, the SMs' open idle windows hold its last
	// frozen cycles; the collector must have them before anyone reads it.
	for _, s := range g.sms {
		s.FlushIdle(g.cycle)
	}
	return err
}

// run is the cycle loop of one launch; it returns with g.cycle the first
// cycle it did not step.
func (g *GPU) run(l *emu.Launch) error {
	for {
		// Reply path first so fills release resources before new accesses.
		g.replyNet.Step(g.cycle)
		for _, p := range g.parts {
			p.step(g.cycle)
		}
		g.reqNet.Step(g.cycle)
		for i, s := range g.sms {
			if err := s.Step(g.cycle); err != nil {
				// The SMs before this one have stepped g.cycle too.
				for _, done := range g.sms[:i] {
					done.FlushIdle(g.cycle + 1)
				}
				return err
			}
		}
		if !g.stopIssue {
			g.scheduleCTAs()
			if g.cfg.MaxWarpInsts > 0 && g.Col.WarpInsts >= g.cfg.MaxWarpInsts {
				// Hard stop, as GPGPU-Sim does at its instruction budget:
				// freeze statistics without draining in-flight work. The GPU
				// must not be asked to run further kernels after this.
				g.stopIssue = true
				g.cycle++
				g.Col.GPUCycles = g.cycle
				return nil
			}
		}
		g.cycle++
		g.Col.GPUCycles = g.cycle

		if g.done() {
			return nil
		}
		if g.cfg.MaxCycles > 0 && g.cycle >= g.cfg.MaxCycles {
			return fmt.Errorf("gpu: exceeded %d cycles (possible livelock) in kernel %s",
				g.cfg.MaxCycles, l.Kernel.Name)
		}
		if g.cfg.FastForward {
			// The cycle just stepped is g.cycle-1; if no component can make
			// progress before horizon h, cycles g.cycle..h-1 are dead, and
			// each SM's open idle window accounts them.
			if h := g.horizon(g.cycle - 1); h > g.cycle {
				if h == math.MaxInt64 && g.cfg.MaxCycles <= 0 {
					// The serial loop would spin forever here; failing loudly
					// is strictly more useful.
					return fmt.Errorf("gpu: no pending events with launch incomplete (livelock) in kernel %s",
						l.Kernel.Name)
				}
				if err := g.skipTo(h, l); err != nil {
					return err
				}
			}
		}
	}
}

// nextEventOf evaluates one component's NextEvent by flat index: the
// partitions, then the reply and request networks, then the SMs.
func (g *GPU) nextEventOf(i int, now int64) int64 {
	switch p := len(g.parts); {
	case i < p:
		return g.parts[i].nextEvent(now)
	case i == p:
		return g.replyNet.NextEvent(now)
	case i == p+1:
		return g.reqNet.NextEvent(now)
	default:
		return g.sms[i-p-2].NextEvent(now)
	}
}

// horizon returns the earliest cycle after now at which any component's
// observable state can change, assuming everything was just stepped at now.
// Every component clamps its report to now+1, so the first one answering
// now+1 decides the horizon; the pin hint is tried before the full scan
// because the same component tends to stay active across consecutive cycles.
func (g *GPU) horizon(now int64) int64 {
	if t := g.nextEventOf(g.pinHint, now); t <= now+1 {
		return t
	}
	h := int64(math.MaxInt64)
	for i, n := 0, len(g.parts)+2+len(g.sms); i < n; i++ {
		if t := g.nextEventOf(i, now); t < h {
			if h = t; h <= now+1 {
				g.pinHint = i
				return h
			}
		}
	}
	return h
}

// skipTo jumps the cycle counter from g.cycle to target. Only the SMs record
// statistics in dead cycles, and each SM folds them in from its open idle
// window when it next steps or is flushed. When the window crosses MaxCycles
// it reproduces the serial loop's livelock error at the identical cycle
// count.
func (g *GPU) skipTo(target int64, l *emu.Launch) error {
	limited := false
	if g.cfg.MaxCycles > 0 && target >= g.cfg.MaxCycles {
		target = g.cfg.MaxCycles
		limited = true
	}
	if n := target - g.cycle; n > 0 {
		g.SkippedCycles += n
		g.cycle = target
		g.Col.GPUCycles = g.cycle
	}
	if limited {
		return fmt.Errorf("gpu: exceeded %d cycles (possible livelock) in kernel %s",
			g.cfg.MaxCycles, l.Kernel.Name)
	}
	return nil
}

// done reports launch completion: every CTA issued and retired and the
// memory system drained.
func (g *GPU) done() bool {
	if !g.stopIssue && g.nextCTA < g.launch.Grid.Count() {
		return false
	}
	if g.liveCTAs > 0 {
		return false
	}
	if g.reqNet.Pending() > 0 || g.replyNet.Pending() > 0 {
		return false
	}
	for _, p := range g.parts {
		if !p.idle() {
			return false
		}
	}
	for _, s := range g.sms {
		if !s.Idle() {
			return false
		}
	}
	return true
}

// scheduleCTAs hands pending CTAs to SMs with free resources according to
// the CTA policy.
func (g *GPU) scheduleCTAs() {
	total := g.launch.Grid.Count()
	for g.nextCTA < total {
		smID := g.pickSM(g.nextCTA)
		if smID < 0 {
			return
		}
		g.sms[smID].LaunchCTA(g.launch, g.nextCTA)
		g.nextCTA++
		g.liveCTAs++
	}
}

// pickSM chooses the SM for the given CTA id, or -1 when no SM can accept.
func (g *GPU) pickSM(ctaID int) int {
	switch g.cfg.CTAPolicy {
	case CTAClustered:
		// Neighbouring CTAs go to the same SM: CTA i prefers SM
		// (i / clusterSize) mod numSMs, falling back to any free SM so the
		// device never sits idle.
		cluster := 2
		pref := (ctaID / cluster) % g.cfg.NumSMs
		if g.sms[pref].CanAccept(g.launch) {
			return pref
		}
		for i := 0; i < g.cfg.NumSMs; i++ {
			s := (pref + i) % g.cfg.NumSMs
			if g.sms[s].CanAccept(g.launch) {
				return s
			}
		}
		return -1
	default:
		// Hardware round-robin: prefer SM (ctaID mod numSMs), else the next
		// free one (GPUs refill greedily as CTAs finish).
		pref := ctaID % g.cfg.NumSMs
		for i := 0; i < g.cfg.NumSMs; i++ {
			s := (pref + i) % g.cfg.NumSMs
			if g.sms[s].CanAccept(g.launch) {
				return s
			}
		}
		return -1
	}
}
