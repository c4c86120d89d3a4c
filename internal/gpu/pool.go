package gpu

import (
	"runtime"
	"slices"
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
// Idle devices wait in one process-wide list, newest last. New takes the
// newest one whose Config.Arch() matches; Arch clears the engine and the run
// budgets, so a client's max_cycles or max_warp_insts cannot keep a device
// of its own, and New sets the budgets again on every reuse. The list holds
// at most GOMAXPROCS devices, as many as runs that can execute at once, and
// Release drops the oldest to make room. What the list keeps depends on this
// rule alone: an idle device survives any number of collections. A
// sync.Pool would hand that choice back to the collector, and hides a device
// put on one P from a Get on another (docs/PERFORMANCE.md §16). The naive
// engine never pools: it keeps building fresh devices and stays the oracle.
var idle struct {
	sync.Mutex
	devs []*GPU
}

// takeIdle removes and returns the most recently released device of cfg's
// architecture, nil when there is none.
func takeIdle(cfg Config) *GPU {
	arch := cfg.Arch()
	idle.Lock()
	defer idle.Unlock()
	for i := len(idle.devs) - 1; i >= 0; i-- {
		if g := idle.devs[i]; g.cfg.Arch() == arch {
			idle.devs = slices.Delete(idle.devs, i, i+1)
			return g
		}
	}
	return nil
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
	idle.Lock()
	idle.devs = append(idle.devs, g)
	if over := len(idle.devs) - runtime.GOMAXPROCS(0); over > 0 {
		idle.devs = slices.Delete(idle.devs, 0, over)
	}
	idle.Unlock()
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
