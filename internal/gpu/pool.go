package gpu

import (
	"runtime"
	"sync"

	"critload/internal/mem"
	"critload/internal/stats"
)

// Device recycling. A timing run builds a device, uses it for a few
// milliseconds and drops it; most of what a short run allocates is that
// device's host storage (CTA register and shared slabs, cache line and MSHR
// arrays, memOps, request free lists). The paper's cold-cache method is a
// property of the modelled state, not of the host storage, so a finished
// fast-forward device is reset to the state New builds and handed to the
// next New of the same architecture instead.
//
// The pools are keyed by Config.Arch(), which clears the engine and the run
// budgets, so a client's max_cycles or max_warp_insts cannot mint a new
// pool; New sets the budgets again on every reuse. The garbage collector
// bounds what idle devices retain: a device released before the previous
// collection and not taken since is dropped at the next one, as sync.Pool
// drops its items. A sync.Pool itself does not fit: a device Put from one P
// sits in that P's private slot, which a Get on another P cannot see, so a
// goroutine that migrates between runs builds a second device and the pool
// ends up holding one per P. The naive engine never pools: it keeps building
// fresh devices and stays the oracle.
var pools sync.Map // Config (an Arch() value) → *pool

// pool is one architecture's idle devices, newest last.
type pool struct {
	mu sync.Mutex
	// fresh were released since the last collection, aged before it.
	fresh, aged []*GPU
}

// poolOf returns the device pool of cfg's architecture.
func poolOf(cfg Config) *pool {
	key := cfg.Arch()
	if p, ok := pools.Load(key); ok {
		return p.(*pool)
	}
	p, _ := pools.LoadOrStore(key, new(pool))
	return p.(*pool)
}

// get takes the most recently released device, nil when there is none.
func (p *pool) get() *GPU {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range []*[]*GPU{&p.fresh, &p.aged} {
		if n := len(*l); n > 0 {
			g := (*l)[n-1]
			(*l)[n-1] = nil
			*l = (*l)[:n-1]
			return g
		}
	}
	return nil
}

func (p *pool) put(g *GPU) {
	p.mu.Lock()
	p.fresh = append(p.fresh, g)
	p.mu.Unlock()
}

// age drops the devices that stayed idle across a whole collection cycle and
// ages the rest.
func (p *pool) age() {
	p.mu.Lock()
	clear(p.aged)
	p.aged, p.fresh = p.fresh, p.aged[:0]
	p.mu.Unlock()
}

// gcTick's finalizer ages every pool once per collection and re-arms itself.
// The pointer field keeps it out of the tiny allocator, whose objects may
// never be finalized.
type gcTick struct{ _ *byte }

func init() { runtime.SetFinalizer(new(gcTick), onCollection) }

func onCollection(t *gcTick) {
	pools.Range(func(_, p any) bool {
		p.(*pool).age()
		return true
	})
	runtime.SetFinalizer(t, onCollection)
}

// Release hands a device whose run is over back for reuse by a later New of
// the same architecture; the caller must not touch it afterwards. Only a
// fast-forward device at a clean launch boundary is pooled. Release drops
// the device instead after a warp-budget hard stop (in-flight work frozen,
// not drained), after a failed launch or Restore (state undefined), and
// whenever the run is not at a boundary. Callers release only runs that
// returned no error: a cancelled or failed run's device is simply dropped.
func (g *GPU) Release() {
	if !g.cfg.FastForward || g.failed || g.stopIssue || !g.AtBoundary() {
		return
	}
	g.reset()
	poolOf(g.cfg).put(g)
}

// reset returns a device at a clean boundary to the state build leaves it
// in, minus its bindings: everything Snapshot writes goes back to its initial
// value, and the device lets go of the finished run's memory, collector,
// classified kernels and tracer. The free lists (retired CTA contexts,
// memOps, the request pool) survive on purpose; the engine oracle shows
// their reuse cannot be observed. bind attaches the next run.
func (g *GPU) reset() {
	g.Mem, g.Col = nil, nil
	g.cycle, g.SkippedCycles, g.pinHint = 0, 0, 0
	g.launch = nil
	clear(g.classCache)
	for _, s := range g.sms {
		s.Reset()
	}
	for _, p := range g.parts {
		p.l2.Reset()
		p.ch.Reset()
		p.quiet = 0
	}
	g.reqNet.Reset()
	g.replyNet.Reset()
}

// bind attaches a device to a run: its configuration (which may differ from
// the last run's only in the fields Arch clears), memory and collector.
func (g *GPU) bind(cfg Config, memory *mem.Memory, col *stats.Collector) {
	g.cfg, g.Mem, g.Col = cfg, memory, col
	for _, s := range g.sms {
		s.SetCollector(col)
	}
}
