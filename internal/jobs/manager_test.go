package jobs

import (
	"context"
	"errors"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"critload/internal/workloads"
	"critload/pkg/api"
)

// instantRunner completes immediately, echoing the workload name.
func instantRunner(ctx context.Context, spec Spec) (any, error) {
	return spec.Workload + "-result", nil
}

// blockingRunner blocks until release is closed or ctx ends, recording the
// specs it actually executed.
type blockingRunner struct {
	release chan struct{}
	mu      sync.Mutex
	specs   []Spec
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{release: make(chan struct{})}
}

func (b *blockingRunner) run(ctx context.Context, spec Spec) (any, error) {
	b.mu.Lock()
	b.specs = append(b.specs, spec)
	b.mu.Unlock()
	select {
	case <-b.release:
		return spec.Workload + "-result", nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (b *blockingRunner) executed() []Spec {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Spec(nil), b.specs...)
}

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

func spec(workload string) Spec {
	return Spec{Workload: workload, Mode: ModeFunctional}
}

// The manager tests run fake runners, so most of their specs name made-up
// workloads; this resolver admits those names, at any size, while real
// names keep their own size knobs.
func init() {
	fake := regexp.MustCompile(`^([a-e]|aes|bad|gauss|hotspot|late|lava|nw|slow|victim|x|wl[0-9]+)$`)
	workloads.RegisterResolver(func(name string) (*workloads.Workload, bool) {
		if !fake.MatchString(name) {
			return nil, false
		}
		return &workloads.Workload{Name: name, Size: api.Knob{Name: "size", Max: math.MaxInt}}, true
	})
}

func TestJobLifecycleToDone(t *testing.T) {
	m := newManager(t, Config{Workers: 1, Runner: instantRunner})
	info, err := m.Submit(spec("bfs"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if info.State != StateQueued && info.State != StateRunning && info.State != StateDone {
		t.Fatalf("initial state %q not a lifecycle state", info.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, info.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("final state = %q, want done", final.State)
	}
	if final.Result != "bfs-result" {
		t.Fatalf("result = %v, want bfs-result", final.Result)
	}
	if final.Created.IsZero() || final.Started.IsZero() || final.Finished.IsZero() {
		t.Fatalf("missing timestamps: %+v", final)
	}
	st := m.Stats()
	if st.Completed != 1 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats = %+v, want 1 completed and settled gauges", st)
	}
}

func TestJobFailureIsNotCached(t *testing.T) {
	boom := errors.New("boom")
	m := newManager(t, Config{Workers: 1, Runner: func(context.Context, Spec) (any, error) {
		return nil, boom
	}})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		info, err := m.Submit(spec("bfs"))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		final, err := m.Wait(ctx, info.ID)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if final.State != StateFailed || !strings.Contains(final.Error, "boom") {
			t.Fatalf("final = %+v, want failed with boom", final)
		}
	}
	if st := m.Stats(); st.Executions != 2 || st.Failed != 2 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want 2 uncached executions", st)
	}
}

// TestRunnerPanicBecomesFailedJob is the crash-containment contract: a
// panicking simulation must surface as a failed job carrying the panic
// message and stack, the worker must survive to run the next job, and the
// result cache must not memoise the wreckage.
func TestRunnerPanicBecomesFailedJob(t *testing.T) {
	m := newManager(t, Config{Workers: 1, Runner: func(ctx context.Context, s Spec) (any, error) {
		if s.Workload == "bfs" {
			panic("simulated cache corruption")
		}
		return s.Workload + "-result", nil
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	info, err := m.Submit(spec("bfs"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := m.Wait(ctx, info.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateFailed {
		t.Fatalf("state = %q, want failed", final.State)
	}
	if !strings.Contains(final.Error, "simulated cache corruption") {
		t.Errorf("error %q missing panic message", final.Error)
	}
	if !strings.Contains(final.Error, "goroutine") {
		t.Errorf("error %q missing stack trace", final.Error)
	}

	// The typed error is preserved for programmatic inspection.
	var pe *PanicError
	j := func() error { m.mu.Lock(); defer m.mu.Unlock(); return m.jobs[info.ID].err }()
	if !errors.As(j, &pe) || pe.Value != "simulated cache corruption" {
		t.Errorf("job error = %T %v, want *PanicError", j, j)
	}

	// The worker survived: a healthy job on the same manager still runs.
	ok, err := m.Submit(spec("sssp"))
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	if final, err = m.Wait(ctx, ok.ID); err != nil || final.State != StateDone {
		t.Fatalf("job after panic = %+v, %v; want done", final, err)
	}

	// A panicked result is never cached; resubmission re-executes (and
	// panics again) rather than replaying a phantom success.
	again, err := m.Submit(spec("bfs"))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if final, err = m.Wait(ctx, again.ID); err != nil || final.State != StateFailed {
		t.Fatalf("resubmitted = %+v, %v; want failed again", final, err)
	}
	if st := m.Stats(); st.Panics != 2 || st.Failed != 2 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 2 panics, 2 failed, 1 completed", st)
	}
}

// TestProgressHeartbeat drives ReportProgress from a runner and reads the
// heartbeat off the running job's snapshot.
func TestProgressHeartbeat(t *testing.T) {
	reported := make(chan struct{})
	release := make(chan struct{})
	m := newManager(t, Config{Workers: 1, Runner: func(ctx context.Context, s Spec) (any, error) {
		ReportProgress(ctx, 1000, 250)
		close(reported)
		select {
		case <-release:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	info, err := m.Submit(spec("bfs"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-reported
	snap, err := m.Get(info.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	p := snap.Progress
	if p == nil {
		t.Fatal("running job has no progress after a report")
	}
	if p.Cycles != 1000 || p.WarpInsts != 250 {
		t.Fatalf("progress = %+v, want cycles 1000, warp insts 250", p)
	}
	if p.CyclesPerSec <= 0 {
		t.Errorf("cycles/sec = %v, want > 0", p.CyclesPerSec)
	}
	if p.Updated.IsZero() {
		t.Error("progress has no update timestamp")
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, info.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("final = %+v, %v", final, err)
	}
	if final.Progress != nil {
		t.Error("terminal snapshot still carries a progress heartbeat")
	}
	if final.QueuedMillis < 0 || final.WallMillis < 0 {
		t.Errorf("negative phase durations: %+v", final)
	}
}

// TestReportProgressOutsideManagerIsNoop guards the CLI path, where runners
// execute without a manager-injected tracker.
func TestReportProgressOutsideManagerIsNoop(t *testing.T) {
	ReportProgress(context.Background(), 1, 1) // must not panic
}

func TestCancelQueuedJobSkipsRunner(t *testing.T) {
	br := newBlockingRunner()
	m := newManager(t, Config{Workers: 1, Runner: br.run})
	// Occupy the single worker...
	first, err := m.Submit(spec("bfs"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitForState(t, m, first.ID, StateRunning)
	// ...queue a second execution and cancel it before it can start.
	second, err := m.Submit(spec("sssp"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	cancelled, err := m.Cancel(second.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if cancelled.State != StateCancelled {
		t.Fatalf("state = %q, want cancelled", cancelled.State)
	}
	close(br.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, first.ID); err != nil {
		t.Fatalf("Wait(first): %v", err)
	}
	for _, s := range br.executed() {
		if s.Workload == "sssp" {
			t.Fatal("cancelled queued job still reached the runner")
		}
	}
	if st := m.Stats(); st.Cancelled != 1 {
		t.Fatalf("stats = %+v, want 1 cancelled", st)
	}
}

func TestCancelMidRunStopsExecution(t *testing.T) {
	br := newBlockingRunner() // release never closed: only ctx can end it
	m := newManager(t, Config{Workers: 1, Runner: br.run})
	info, err := m.Submit(spec("bfs"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitForState(t, m, info.ID, StateRunning)
	if _, err := m.Cancel(info.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final, err := m.Get(info.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if final.State != StateCancelled {
		t.Fatalf("state = %q, want cancelled", final.State)
	}
	// The runner must observe the context cancellation and the worker must
	// come free again (Close in cleanup would hang otherwise).
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Running != 0 {
		if time.Now().After(deadline) {
			t.Fatal("runner did not stop after cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	// Cancelling a finished job is an idempotent no-op.
	again, err := m.Cancel(info.ID)
	if err != nil || again.State != StateCancelled {
		t.Fatalf("second Cancel = %+v, %v", again, err)
	}
}

func TestJobDeadline(t *testing.T) {
	br := newBlockingRunner() // only ctx ends it
	m := newManager(t, Config{Workers: 1, Runner: br.run})
	s := spec("bfs")
	s.Timeout = 20 * time.Millisecond
	info, err := m.Submit(s)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, info.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("final = %+v, want failed with deadline error", final)
	}
}

func TestSingleflightDedup(t *testing.T) {
	br := newBlockingRunner()
	m := newManager(t, Config{Workers: 4, Runner: br.run})
	const n = 4
	ids := make([]string, n)
	for i := range ids {
		info, err := m.Submit(spec("bfs"))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = info.ID
	}
	close(br.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, id := range ids {
		final, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if final.State != StateDone || final.Result != "bfs-result" {
			t.Fatalf("job %s = %+v, want done with shared result", id, final)
		}
	}
	st := m.Stats()
	if st.Executions != 1 {
		t.Fatalf("executions = %d, want 1 (singleflight)", st.Executions)
	}
	if st.Deduped != n-1 {
		t.Fatalf("deduped = %d, want %d", st.Deduped, n-1)
	}
}

func TestResultCacheHit(t *testing.T) {
	m := newManager(t, Config{Workers: 1, Runner: instantRunner})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	first, err := m.Submit(spec("bfs"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := m.Wait(ctx, first.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	second, err := m.Submit(spec("bfs"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if second.State != StateDone || !second.CacheHit || second.Result != "bfs-result" {
		t.Fatalf("second = %+v, want immediate cached completion", second)
	}
	st := m.Stats()
	if st.Executions != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 execution and 1 cache hit", st)
	}
	// A different spec misses.
	third, err := m.Submit(spec("sssp"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if third.CacheHit {
		t.Fatal("distinct spec reported a cache hit")
	}
}

func TestSubmitQueueFull(t *testing.T) {
	br := newBlockingRunner()
	defer close(br.release)
	m := newManager(t, Config{Workers: 1, QueueDepth: 1, Runner: br.run})
	// Distinct specs so no submission dedups into another.
	names := []string{"a", "b", "c", "d", "e"}
	var full bool
	for _, n := range names {
		if _, err := m.Submit(spec(n)); errors.Is(err, ErrQueueFull) {
			full = true
			break
		}
	}
	if !full {
		t.Fatal("queue never filled")
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	m := newManager(t, Config{Workers: 2, Runner: instantRunner})
	ids := []string{}
	for _, n := range []string{"a", "b", "c", "d"} {
		info, err := m.Submit(spec(n))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, info.ID)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, id := range ids {
		final, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if final.State != StateDone {
			t.Fatalf("job %s = %q after drain, want done", id, final.State)
		}
	}
	if _, err := m.Submit(spec("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestCloseDeadlineCancelsRunningJobs(t *testing.T) {
	br := newBlockingRunner() // only ctx ends it
	m := newManager(t, Config{Workers: 1, Runner: br.run})
	info, err := m.Submit(spec("bfs"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitForState(t, m, info.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want deadline exceeded", err)
	}
	final, err := m.Get(info.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if final.State != StateCancelled {
		t.Fatalf("state after forced close = %q, want cancelled", final.State)
	}
}

func TestManagerConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", Config{Runner: instantRunner}, true},
		{"no runner", Config{}, false},
		{"negative workers", Config{Workers: -1, Runner: instantRunner}, false},
		{"workers beyond limit", Config{Workers: DefaultLimits.MaxWorkers + 1, Runner: instantRunner}, false},
		{"queue beyond limit", Config{QueueDepth: DefaultLimits.MaxQueueDepth + 1, Runner: instantRunner}, false},
		{"cache beyond limit", Config{CacheEntries: DefaultLimits.MaxCacheEntries + 1, Runner: instantRunner}, false},
		{"cache disabled", Config{CacheEntries: -1, Runner: instantRunner}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := NewManager(tt.cfg)
			if (err == nil) != tt.ok {
				t.Fatalf("NewManager = %v, want ok=%v", err, tt.ok)
			}
			if m != nil {
				m.Close(context.Background())
			}
		})
	}
}

func TestGetUnknownJob(t *testing.T) {
	m := newManager(t, Config{Workers: 1, Runner: instantRunner})
	if _, err := m.Get("j-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get = %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel("j-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel = %v, want ErrNotFound", err)
	}
	if _, err := m.Wait(context.Background(), "j-nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Wait = %v, want ErrNotFound", err)
	}
}

// waitForState polls until the job reaches the state or the test deadline.
func waitForState(t *testing.T, m *Manager, id string, s State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		info, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if info.State == s {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, s)
}
