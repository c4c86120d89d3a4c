package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"critload/internal/journal"
)

// Runner executes one spec and returns its result. Implementations must
// honour ctx: return promptly (with ctx.Err()) once it is cancelled or its
// deadline passes. The experiments-backed runner lives in internal/server;
// tests inject lightweight fakes. A runner that panics does not kill the
// worker: the manager recovers it into a *PanicError and fails the job.
// Runners may call ReportProgress(ctx, ...) to surface a heartbeat on the
// job's API snapshot.
type Runner func(ctx context.Context, spec Spec) (any, error)

// ExecutionObserver receives one callback per actual runner invocation with
// its wall-clock duration and outcome — the hook the service layer feeds
// its job-latency histograms from.
type ExecutionObserver func(spec Spec, wall time.Duration, err error)

// State is a job's lifecycle position. Transitions are strictly
// queued → running → {done, failed}; cancellation is reachable from queued
// and running.
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transition is possible.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Manager errors.
var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrNotFound is returned for unknown job ids.
	ErrNotFound = errors.New("jobs: no such job")
)

// Config sizes a manager. Zero fields select the defaults; values beyond
// DefaultLimits are rejected, so a mistyped flag cannot allocate an
// unbounded queue or cache.
type Config struct {
	// Workers is the pool size (0 = runtime.NumCPU()).
	Workers int
	// QueueDepth bounds the number of executions waiting for a worker
	// (0 = DefaultQueueDepth). Submissions beyond it fail fast with
	// ErrQueueFull rather than blocking the API.
	QueueDepth int
	// CacheEntries bounds the result cache (0 = DefaultCacheEntries,
	// < 0 disables caching).
	CacheEntries int
	// MaxJobs bounds retained job records; the oldest finished jobs are
	// forgotten beyond it (0 = DefaultMaxJobs).
	MaxJobs int
	// Runner executes specs. Required.
	Runner Runner

	// JournalDir enables the durable tier: every job transition is logged
	// to a write-ahead journal in this directory, replayed on the next
	// start to rebuild the queue after a crash. Empty disables journaling.
	JournalDir string
	// JournalSegmentBytes overrides the journal's segment rotation
	// threshold (0 = journal.DefaultSegmentBytes).
	JournalSegmentBytes int64
	// JournalNoSync disables fsync on journal appends. Tests only: it
	// trades away the durability the journal exists for.
	JournalNoSync bool
	// Results, when non-nil, backs the in-memory result cache with an
	// on-disk content-addressed store: completed results are persisted
	// before their journal record, cache misses fall through to disk, and
	// recovery serves replayed jobs from it instead of re-simulating.
	Results *ResultStore
}

// Default sizes.
const (
	DefaultQueueDepth   = 256
	DefaultCacheEntries = 512
	DefaultMaxJobs      = 4096
)

// Limits are safety upper bounds on a manager configuration.
type Limits struct {
	MaxWorkers      int
	MaxQueueDepth   int
	MaxCacheEntries int
	MaxJobs         int
}

// DefaultLimits is a conservative guard for service deployments.
var DefaultLimits = Limits{
	MaxWorkers:      4 * runtime.NumCPU(),
	MaxQueueDepth:   4096,
	MaxCacheEntries: 1 << 16,
	MaxJobs:         1 << 16,
}

// withDefaults resolves zero fields and checks the result against limits.
func (c Config) withDefaults(l Limits) (Config, error) {
	if c.Runner == nil {
		return c, fmt.Errorf("jobs: config has no runner")
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = DefaultMaxJobs
	}
	switch {
	case c.Workers < 0 || c.Workers > l.MaxWorkers:
		return c, fmt.Errorf("jobs: workers %d outside (0, %d]", c.Workers, l.MaxWorkers)
	case c.QueueDepth < 0 || c.QueueDepth > l.MaxQueueDepth:
		return c, fmt.Errorf("jobs: queue depth %d outside (0, %d]", c.QueueDepth, l.MaxQueueDepth)
	case c.CacheEntries > l.MaxCacheEntries:
		return c, fmt.Errorf("jobs: cache entries %d beyond %d", c.CacheEntries, l.MaxCacheEntries)
	case c.MaxJobs < 0 || c.MaxJobs > l.MaxJobs:
		return c, fmt.Errorf("jobs: max jobs %d outside (0, %d]", c.MaxJobs, l.MaxJobs)
	}
	return c, nil
}

// JobInfo is an immutable snapshot of one job, safe to hold across requests
// and to serialize for the API.
type JobInfo struct {
	ID       string    `json:"id"`
	Spec     Spec      `json:"spec"`
	Key      string    `json:"key"`
	State    State     `json:"state"`
	Error    string    `json:"error,omitempty"`
	CacheHit bool      `json:"cache_hit,omitempty"`
	Created  time.Time `json:"created"`
	// Started and Finished are zero until the job reaches those states.
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// QueuedMillis is the time spent waiting for a worker; WallMillis the
	// time spent executing.
	QueuedMillis int64 `json:"queued_millis"`
	WallMillis   int64 `json:"wall_millis"`
	// Progress is the runner's latest heartbeat, present only while the job
	// is running and the runner has reported.
	Progress *Progress `json:"progress,omitempty"`
	// Recovered marks a job rebuilt from the journal after a restart
	// rather than submitted through this process's API.
	Recovered bool `json:"recovered,omitempty"`
	Result    any  `json:"result,omitempty"`
}

// job is the mutable record behind a JobInfo; every field is guarded by the
// manager's mutex.
type job struct {
	id        string
	spec      Spec
	key       Key
	state     State
	err       error
	result    any
	cacheHit  bool
	recovered bool
	created   time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{}
	exec      *execution
}

func (j *job) infoLocked() JobInfo {
	info := JobInfo{
		ID: j.id, Spec: j.spec, Key: j.key.String(), State: j.state,
		CacheHit: j.cacheHit, Recovered: j.recovered, Created: j.created,
		Started: j.started, Finished: j.finished, Result: j.result,
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		info.QueuedMillis = j.started.Sub(j.created).Milliseconds()
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		info.WallMillis = j.finished.Sub(j.started).Milliseconds()
	}
	if j.state == StateRunning && j.exec != nil && j.exec.progress != nil {
		info.Progress = j.exec.progress.snapshot()
	}
	return info
}

// execution is one scheduled runner invocation; concurrent submissions of
// the same key attach to a single execution (singleflight) so the simulator
// runs each distinct spec at most once at a time.
type execution struct {
	spec     Spec
	key      Key
	ctx      context.Context
	cancel   context.CancelFunc
	started  bool
	progress *progressTracker // set when the execution starts
	jobs     []*job           // attached, in submission order
}

// Manager owns the job registry, the worker pool, the in-flight dedup table
// and the result cache.
type Manager struct {
	cfg     Config
	pool    *Pool
	cache   *resultCache
	results *ResultStore
	c       counters
	obs     atomic.Pointer[ExecutionObserver]

	mu            sync.Mutex
	journal       *journal.Journal
	journalClosed bool
	jobs          map[string]*job
	inflight      map[Key]*execution
	doneOrder     []string // finished job ids, oldest first, for retention
	nextID        int64
	closed        bool
	recovering    bool
	recovery      RecoveryInfo
}

// NewManager builds and starts a manager; callers must Close it. When
// cfg.JournalDir is set, the journal is replayed first: jobs that were
// terminal at the last shutdown are restored as history, jobs that were
// queued or running are completed from the result store when possible and
// re-enqueued otherwise — a corrupt journal degrades to a shorter replay
// (worst case an empty queue), never a failed start.
func NewManager(cfg Config) (*Manager, error) {
	cfg, err := cfg.withDefaults(DefaultLimits)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:      cfg,
		pool:     NewPool(cfg.Workers, cfg.QueueDepth),
		cache:    newResultCache(cfg.CacheEntries),
		results:  cfg.Results,
		jobs:     map[string]*job{},
		inflight: map[Key]*execution{},
	}
	if cfg.JournalDir != "" {
		rs := newReplayState()
		jnl, err := journal.Open(cfg.JournalDir, journal.Options{
			SegmentBytes: cfg.JournalSegmentBytes, NoSync: cfg.JournalNoSync,
		}, rs.apply)
		if err != nil {
			m.pool.Close()
			return nil, fmt.Errorf("jobs: open journal: %w", err)
		}
		m.journal = jnl
		m.recover(rs)
	}
	return m, nil
}

// Journal returns the manager's write-ahead journal, or nil when the
// durable tier is disabled. The service layer reads its stats for /metrics.
func (m *Manager) Journal() *journal.Journal { return m.journal }

// Results returns the on-disk result store, or nil when none is configured.
func (m *Manager) Results() *ResultStore { return m.results }

// Recovery returns what the last startup replay did.
func (m *Manager) Recovery() RecoveryInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovery
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats { return m.c.snapshot() }

// SetExecutionObserver installs (or, with nil, removes) the callback that
// receives every runner invocation's duration and outcome. The service
// layer uses it to feed latency histograms; at most one observer is active.
func (m *Manager) SetExecutionObserver(fn ExecutionObserver) {
	if fn == nil {
		m.obs.Store(nil)
		return
	}
	m.obs.Store(&fn)
}

// Submit validates and enqueues a job, returning its initial snapshot. A
// cached result completes the job immediately; a matching in-flight
// execution is joined instead of re-simulated; otherwise the spec is queued
// on the pool, failing fast with ErrQueueFull when it is saturated.
//
// With journaling enabled the submission record is fsync'd before Submit
// returns: an acknowledged job survives a crash. A journal write failure
// therefore fails the Submit — durability the daemon cannot provide must
// not be silently promised.
func (m *Manager) Submit(spec Spec) (JobInfo, error) {
	if err := spec.Validate(); err != nil {
		return JobInfo{}, err
	}
	key := spec.Key()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return JobInfo{}, fmt.Errorf("jobs: encoding spec: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobInfo{}, ErrClosed
	}
	m.nextID++
	j := &job{
		id:      fmt.Sprintf("j%08d", m.nextID),
		spec:    spec,
		key:     key,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	if err := m.journalAppend(journal.Record{
		Type: journal.TypeSubmitted, At: j.created, ID: j.id, Data: specJSON,
	}, true); err != nil {
		return JobInfo{}, fmt.Errorf("jobs: journaling submission: %w", err)
	}

	if v, ok := m.cache.get(key); ok {
		m.registerLocked(j)
		m.c.cacheHits.Add(1)
		j.cacheHit = true
		m.finalizeLocked(j, StateDone, v, nil)
		return j.infoLocked(), nil
	}
	m.c.cacheMisses.Add(1)

	if e, ok := m.inflight[key]; ok {
		m.registerLocked(j)
		m.c.deduped.Add(1)
		j.exec = e
		e.jobs = append(e.jobs, j)
		if e.started {
			j.state = StateRunning
			j.started = time.Now()
			m.c.queued.Add(-1)
			m.c.running.Add(1)
			m.journalAppend(journal.Record{Type: journal.TypeStarted, At: j.started, ID: j.id}, false)
		}
		return j.infoLocked(), nil
	}

	// The in-memory cache missed; the on-disk store may still hold the
	// result from an earlier process.
	if v, ok := m.resultFromStore(key); ok {
		m.registerLocked(j)
		m.c.diskHits.Add(1)
		j.cacheHit = true
		m.finalizeLocked(j, StateDone, v, nil)
		return j.infoLocked(), nil
	}

	if err := m.startLocked(j); err != nil {
		// The submission record is already durable; mark the job cancelled
		// so a crash before the next compaction does not resurrect it.
		m.journalAppend(journal.Record{Type: journal.TypeCancelled, At: time.Now(), ID: j.id}, false)
		return JobInfo{}, err
	}
	m.registerLocked(j)
	return j.infoLocked(), nil
}

// startLocked schedules a fresh execution for j — its spec's timeout (or a
// plain cancel) as context — and registers it in flight. It fails with the
// pool's error, leaving j untouched, when the queue is full.
func (m *Manager) startLocked(j *job) error {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if j.spec.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.spec.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	e := &execution{spec: j.spec, key: j.key, ctx: ctx, cancel: cancel, jobs: []*job{j}}
	if err := m.pool.TrySubmit(func() { m.run(e) }); err != nil {
		cancel()
		return err
	}
	j.exec = e
	m.inflight[j.key] = e
	return nil
}

// resultFromStore fetches a completed result from the on-disk store,
// warming the in-memory cache on a hit. The raw stored JSON is returned:
// it re-serializes byte-identically to the original result.
func (m *Manager) resultFromStore(key Key) (any, bool) {
	if m.results == nil {
		return nil, false
	}
	raw, ok := m.results.Get(key)
	if !ok {
		return nil, false
	}
	m.cache.add(key, raw)
	return raw, true
}

// journalAppend writes one record when journaling is enabled. A failed
// synced append surfaces the error — the caller is about to acknowledge
// the transition as durable; a failed unsynced append is only counted.
func (m *Manager) journalAppend(r journal.Record, sync bool) error {
	if m.journal == nil {
		return nil
	}
	if err := m.journal.Append(r, sync); err != nil {
		m.c.journalErrors.Add(1)
		if sync {
			return err
		}
	}
	return nil
}

// registerLocked adds the job to the registry and the queued gauge (every
// job passes through queued, if only for an instant on a cache hit).
func (m *Manager) registerLocked(j *job) {
	m.jobs[j.id] = j
	m.c.submitted.Add(1)
	m.c.queued.Add(1)
}

// run executes one singleflight execution on a pool worker.
func (m *Manager) run(e *execution) {
	defer e.cancel()

	m.mu.Lock()
	if e.ctx.Err() != nil || len(e.jobs) == 0 {
		// Cancelled (or abandoned) while still queued: never invoke the
		// runner.
		delete(m.inflight, e.key)
		for _, j := range e.jobs {
			m.finalizeLocked(j, StateCancelled, nil, e.ctx.Err())
		}
		m.mu.Unlock()
		return
	}
	e.started = true
	now := time.Now()
	e.progress = newProgressTracker(now)
	for _, j := range e.jobs {
		j.state = StateRunning
		j.started = now
		m.c.queued.Add(-1)
		m.c.running.Add(1)
		m.journalAppend(journal.Record{Type: journal.TypeStarted, At: now, ID: j.id}, false)
	}
	ctx, spec := withProgress(e.ctx, e.progress), e.spec
	m.mu.Unlock()

	m.c.executions.Add(1)
	t0 := time.Now()
	res, err := m.invoke(ctx, spec)
	wall := time.Since(t0)
	m.c.wallNanos.Add(uint64(wall))
	if obs := m.obs.Load(); obs != nil {
		(*obs)(spec, wall, err)
	}

	// Persist the result before the completed record is journalled (from
	// finalizeLocked below): a completed record must never refer to a
	// result the filesystem does not hold. On a store failure the record
	// is withheld (see terminalRecordLocked) so recovery re-runs the job.
	if err == nil && m.results != nil {
		if perr := m.results.Put(e.key, res); perr != nil {
			m.c.journalErrors.Add(1)
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.inflight, e.key)
	if err == nil {
		m.cache.add(e.key, res)
	}
	for _, j := range e.jobs {
		switch {
		case err == nil:
			m.finalizeLocked(j, StateDone, res, nil)
		case errors.Is(err, context.Canceled):
			m.finalizeLocked(j, StateCancelled, nil, err)
		default:
			m.finalizeLocked(j, StateFailed, nil, err)
		}
	}
}

// PanicError is the failure a job carries when its runner panicked: the
// recovered value plus the goroutine stack at the panic site. The manager
// converts runner panics into this error so a crashing simulation becomes a
// failed job — with enough context to debug it — instead of killing the
// daemon for every user.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("jobs: runner panicked: %v\n%s", e.Value, e.Stack)
}

// invoke runs the configured runner with panic containment: a panicking
// simulation is recovered into a *PanicError (value + stack) so the worker
// survives and every attached job fails with a debuggable message instead
// of the panic unwinding the daemon.
func (m *Manager) invoke(ctx context.Context, spec Spec) (res any, err error) {
	defer func() {
		if v := recover(); v != nil {
			m.c.panics.Add(1)
			res, err = nil, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return m.cfg.Runner(ctx, spec)
}

// finalizeLocked moves a job to a terminal state, settles the gauges, wakes
// waiters and trims the registry to the retention bound.
func (m *Manager) finalizeLocked(j *job, s State, res any, err error) {
	switch j.state {
	case StateQueued:
		m.c.queued.Add(-1)
	case StateRunning:
		m.c.running.Add(-1)
	}
	j.state = s
	j.result = res
	j.err = err
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	j.exec = nil
	close(j.done)
	switch s {
	case StateDone:
		m.c.completed.Add(1)
	case StateFailed:
		m.c.failed.Add(1)
	case StateCancelled:
		m.c.cancelled.Add(1)
	}
	if m.journal != nil && !m.recovering { // recovery journals its outcome through compaction instead
		if r, ok := m.terminalRecordLocked(j); ok {
			m.journalAppend(r, true)
		}
	}
	m.doneOrder = append(m.doneOrder, j.id)
	for len(m.jobs) > m.cfg.MaxJobs && len(m.doneOrder) > 0 {
		delete(m.jobs, m.doneOrder[0])
		m.doneOrder = m.doneOrder[1:]
	}
}

// terminalRecordLocked maps a finished job to its journal record; ok is
// false for a job that is still live. A completed record is also withheld
// when the result store does not hold the result (the Put failed, or the
// file was evicted) — replay then sees the job as still live and re-runs
// it, which is idempotent.
func (m *Manager) terminalRecordLocked(j *job) (r journal.Record, ok bool) {
	r = journal.Record{At: j.finished, ID: j.id}
	switch j.state {
	case StateDone:
		if m.results != nil && !m.results.Has(j.key) {
			return r, false
		}
		r.Type = journal.TypeCompleted
	case StateFailed:
		r.Type = journal.TypeFailed
		if j.err != nil {
			r.Data = []byte(j.err.Error())
		}
	case StateCancelled:
		r.Type = journal.TypeCancelled
	default:
		return r, false
	}
	return r, true
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (JobInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	return j.infoLocked(), nil
}

// Cancel detaches a job from its execution and marks it cancelled; when the
// last interested job cancels, the execution's context is cancelled too so
// a ctx-honouring runner stops mid-run. Cancelling a finished job is a
// no-op returning its final snapshot.
func (m *Manager) Cancel(id string) (JobInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	if j.state.Terminal() {
		return j.infoLocked(), nil
	}
	if e := j.exec; e != nil {
		live := e.jobs[:0]
		for _, other := range e.jobs {
			if other != j {
				live = append(live, other)
			}
		}
		e.jobs = live
		if len(e.jobs) == 0 {
			e.cancel()
		}
	}
	m.finalizeLocked(j, StateCancelled, nil, context.Canceled)
	return j.infoLocked(), nil
}

// Wait blocks until the job reaches a terminal state or ctx expires, then
// returns its snapshot.
func (m *Manager) Wait(ctx context.Context, id string) (JobInfo, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobInfo{}, ErrNotFound
	}
	done := j.done
	m.mu.Unlock()
	select {
	case <-done:
		return m.Get(id)
	case <-ctx.Done():
		info, _ := m.Get(id)
		return info, ctx.Err()
	}
}

// Close stops accepting jobs and drains the pool: running and queued
// executions complete. If ctx expires first, every in-flight execution's
// context is cancelled and Close waits for the (now aborting) workers
// before returning ctx's error. With journaling enabled the drained
// journal is compacted to the retained jobs and closed, so the next start
// replays a minimal, clean log.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.pool.Close()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		m.mu.Lock()
		for _, e := range m.inflight {
			e.cancel()
		}
		m.mu.Unlock()
		<-drained
		err = ctx.Err()
	}
	m.closeJournal()
	return err
}

// closeJournal compacts the journal down to the retained jobs and closes
// it. Best-effort: a failed compaction leaves the full (still valid)
// history in place for the next replay.
func (m *Manager) closeJournal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal == nil || m.journalClosed {
		return
	}
	m.journalClosed = true
	if err := m.journal.Compact(m.liveRecordsLocked()); err != nil {
		m.c.journalErrors.Add(1)
	}
	if err := m.journal.Close(); err != nil {
		m.c.journalErrors.Add(1)
	}
}

// liveRecordsLocked renders the retained jobs as the canonical record
// sequence a fresh journal needs: one submitted record per job plus its
// terminal (or started) record. Jobs already trimmed by retention are
// gone from the compacted journal too — retention is the contract.
func (m *Manager) liveRecordsLocked() []journal.Record {
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids) // ids are zero-padded: lexicographic == numeric
	recs := make([]journal.Record, 0, 2*len(ids))
	for _, id := range ids {
		j := m.jobs[id]
		specJSON, err := json.Marshal(j.spec)
		if err != nil {
			continue
		}
		recs = append(recs, journal.Record{
			Type: journal.TypeSubmitted, At: j.created, ID: id, Data: specJSON,
		})
		if r, ok := m.terminalRecordLocked(j); ok {
			recs = append(recs, r)
		} else if j.state == StateRunning {
			recs = append(recs, journal.Record{Type: journal.TypeStarted, At: j.started, ID: id})
		}
	}
	return recs
}
