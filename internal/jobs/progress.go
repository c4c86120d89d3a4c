package jobs

import (
	"context"
	"sync/atomic"
	"time"

	"critload/pkg/api"
)

// Progress is a live heartbeat of one running execution; see api.Progress.
type Progress = api.Progress

// progressTracker is the lock-free backing store a runner reports into; job
// snapshots read it concurrently with the simulation.
type progressTracker struct {
	start     time.Time
	cycles    atomic.Int64
	warpInsts atomic.Uint64
	updated   atomic.Int64 // unix nanos of the last report; 0 = none yet
}

func newProgressTracker(start time.Time) *progressTracker {
	return &progressTracker{start: start}
}

func (t *progressTracker) report(cycles int64, warpInsts uint64) {
	t.cycles.Store(cycles)
	t.warpInsts.Store(warpInsts)
	t.updated.Store(time.Now().UnixNano())
}

// snapshot returns the latest heartbeat, or nil before the first report.
func (t *progressTracker) snapshot() *Progress {
	nanos := t.updated.Load()
	if nanos == 0 {
		return nil
	}
	p := &Progress{
		Cycles:    t.cycles.Load(),
		WarpInsts: t.warpInsts.Load(),
		Updated:   time.Unix(0, nanos),
	}
	if elapsed := p.Updated.Sub(t.start).Seconds(); elapsed > 0 && p.Cycles > 0 {
		p.CyclesPerSec = float64(p.Cycles) / elapsed
	}
	return p
}

// progressKey keys the tracker in a runner's context.
type progressKey struct{}

// withProgress attaches a tracker to the context handed to a runner.
func withProgress(ctx context.Context, t *progressTracker) context.Context {
	return context.WithValue(ctx, progressKey{}, t)
}

// ReportProgress records a heartbeat on the job(s) behind ctx. Runners call
// it at convenient boundaries (critloadd's simulation runner reports at
// every kernel launch); outside a manager-run execution it is a no-op, so
// runner code needs no special-casing in tests or CLIs.
func ReportProgress(ctx context.Context, cycles int64, warpInsts uint64) {
	if t, ok := ctx.Value(progressKey{}).(*progressTracker); ok {
		t.report(cycles, warpInsts)
	}
}
