package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	W       workload
	Seed    int64
	Seconds float64 // length of the timed window
	Trace   bool
	Smoke   bool
	OutDir  string    // scratch and trace output, inside the checkout
	Start   time.Time // process start: setup_s counts from here
}

// minOps is the least number of timed ops an in-process run makes however
// short the window; the smoke profile makes do with one.
func (c runConfig) minOps() int {
	if c.Smoke {
		return 1
	}
	return 3
}

// outcome is what a run measured: metric values by name, and the op counts
// behind error_rate.
type outcome struct {
	Attempted, Failed int
	Values            map[string]float64
	// Notes explain failed ops and degraded measurements on standard error.
	Notes []string
}

func newOutcome() *outcome { return &outcome{Values: map[string]float64{}} }

func (o *outcome) notef(format string, args ...any) {
	if len(o.Notes) < 20 {
		o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
	}
}

// fail counts one failed op and says why.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.notef(format, args...)
}

// runWorkload dispatches on the workload kind.
func runWorkload(ctx context.Context, cfg runConfig) (*outcome, error) {
	if cfg.W.inProcess() {
		return runInProcess(ctx, cfg)
	}
	return runService(ctx, cfg)
}

// opCost is what one in-process op cost the harness process. MS and CPU are
// scaled to the reference machine's speed; RawMS is as measured.
type opCost struct {
	MS, CPU, RawMS, AllocMB, Mallocs, GCs, PauseMS float64
}

// meter runs fn from a collected heap, with the machine's speed sampled on
// either side of it, and reports its wall time, CPU time and heap traffic.
func meter(speed *speedometer, fn func() error) (opCost, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calib := speed.sample()
	cpu := selfCPUSeconds()
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	cpu = selfCPUSeconds() - cpu
	scale := toReference(calib, speed.sample())
	runtime.ReadMemStats(&after)
	ms := float64(wall.Nanoseconds()) / 1e6
	return opCost{
		MS:      ms * scale,
		CPU:     cpu * scale,
		RawMS:   ms,
		AllocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		Mallocs: float64(after.Mallocs - before.Mallocs),
		GCs:     float64(after.NumGC - before.NumGC),
		PauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}, err
}

// opCosts accumulates per-op costs.
type opCosts []opCost

func (cs opCosts) column(f func(opCost) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

func (cs opCosts) ms() []float64    { return cs.column(func(c opCost) float64 { return c.MS }) }
func (cs opCosts) rawMS() []float64 { return cs.column(func(c opCost) float64 { return c.RawMS }) }

// wall is the time spent inside the ops: the checks between them are outside
// the timed window.
func (cs opCosts) wall() time.Duration {
	return time.Duration(sum(cs.ms()) * float64(time.Millisecond))
}

func (cs opCosts) mean(f func(opCost) float64) float64 {
	return ratio(sum(cs.column(f)), float64(len(cs)))
}

// latencyMetrics fills in the latency metrics every workload shares.
// timedWall is the wall time the ops were spread over.
func latencyMetrics(o *outcome, w workload, ms []float64, timedWall time.Duration) {
	s := sortedCopy(ms)
	o.Values["op_p50_ms"] = median(s)
	_, o.Values["op_tail_ms"] = tailOf(s, w.tail())
	o.Values["ops_per_s"] = ratio(float64(len(s)), timedWall.Seconds())
}

// tailMetrics fills in the per-layer percentile metrics: each is 0 unless the
// sample leaves ten ops beyond it.
func tailMetrics(o *outcome, ms []float64) {
	s := sortedCopy(ms)
	o.Values["op_samples"] = float64(len(s))
	for name, p := range map[string]float64{"op_p90_ms": 0.90, "op_p99_ms": 0.99} {
		if supportsPercentile(len(s), p) {
			o.Values[name] = percentile(s, p)
		}
	}
}

// profileOp runs fn under an in-process CPU profile and returns its samples.
func profileOp(fn func() error) ([]stackSample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return parseProfile(buf.Bytes())
}

// hostCPUMetrics charges profile samples to packages.
func hostCPUMetrics(o *outcome, samples []stackSample) {
	for cat, share := range attribute(samples) {
		o.Values["hostcpu."+cat+"_share"] = share
	}
}

// tracePath is where a traced run leaves its spans.
func tracePath(cfg runConfig) string {
	return filepath.Join(cfg.OutDir, "trace-"+cfg.W.Name+".json")
}
