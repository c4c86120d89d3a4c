package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"critload/internal/journal"
	"critload/pkg/api"
)

// RecoveredError is the failure attached to a journalled job the restarted
// daemon could not carry forward: its spec no longer decodes or validates,
// or the recovery queue was full. The job stays visible (failed) so the
// client that submitted it before the crash learns its fate instead of
// getting a 404.
type RecoveredError struct {
	// State is the job's last journalled state before the crash.
	State State
	// Reason says why the job could not be resumed.
	Reason string
}

func (e *RecoveredError) Error() string {
	return fmt.Sprintf("jobs: not recoverable from state %q: %s", e.State, e.Reason)
}

// RecoveryInfo summarises what the startup journal replay did; the daemon
// surfaces it on /healthz. Unrecoverable counts jobs failed with a
// *RecoveredError.
type RecoveryInfo = api.Recovery

// replayedJob is one job's state as reconstructed from the journal.
type replayedJob struct {
	id      string
	spec    Spec
	specErr error
	state   State
	errMsg  string
	created time.Time
	started time.Time
	ended   time.Time
}

// replayState folds journal records into per-job state. Transitions are
// monotonic — queued, then running, then exactly one terminal state — and
// records that would violate that (or refer to an unknown job) are
// ignored: the journal is evidence, not authority, and replaying any
// prefix of it must yield a consistent state.
type replayState struct {
	jobs    map[string]*replayedJob
	order   []string // submission order
	maxID   int64
	records uint64
}

func newReplayState() *replayState {
	return &replayState{jobs: map[string]*replayedJob{}}
}

// apply folds one record. It never returns an error: a malformed payload
// degrades the one job it describes, not the whole replay.
func (rs *replayState) apply(r journal.Record) error {
	rs.records++
	switch r.Type {
	case journal.TypeSubmitted:
		if _, ok := rs.jobs[r.ID]; ok {
			return nil // duplicate submission: first one wins
		}
		rj := &replayedJob{id: r.ID, state: StateQueued, created: r.At}
		if err := json.Unmarshal(r.Data, &rj.spec); err != nil {
			rj.specErr = err
		} else if err := rj.spec.Validate(); err != nil {
			rj.specErr = err
		}
		var n int64
		if _, err := fmt.Sscanf(r.ID, "j%d", &n); err == nil && n > rs.maxID {
			rs.maxID = n
		}
		rs.jobs[r.ID] = rj
		rs.order = append(rs.order, r.ID)
	case journal.TypeStarted:
		if rj := rs.jobs[r.ID]; rj != nil && rj.state == StateQueued {
			rj.state, rj.started = StateRunning, r.At
		}
	case journal.TypeProgressed:
		// Journals before the heartbeat writer was removed carry these;
		// they hold no state, so replay skips them.
	case journal.TypeCompleted:
		rs.terminal(r.ID, StateDone, "", r.At)
	case journal.TypeCancelled:
		rs.terminal(r.ID, StateCancelled, "", r.At)
	case journal.TypeFailed:
		rs.terminal(r.ID, StateFailed, string(r.Data), r.At)
	}
	return nil
}

func (rs *replayState) terminal(id string, s State, msg string, at time.Time) {
	rj := rs.jobs[id]
	if rj == nil || rj.state.Terminal() {
		return
	}
	rj.state, rj.errMsg, rj.ended = s, msg, at
}

// recover rebuilds the manager's registry from a replayed journal, then
// compacts the journal to the resulting state. Terminal jobs come back as
// history (done jobs pull their result from the store); live jobs complete
// from the store when their result is already durable and are re-enqueued
// otherwise — re-execution is safe because results are content-addressed.
// Jobs that cannot be carried forward fail with a *RecoveredError. The
// whole pass holds the manager lock, so re-enqueued executions cannot
// start (or journal) until the final compaction has run.
func (m *Manager) recover(rs *replayState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recovering = true
	defer func() { m.recovering = false }()

	m.nextID = rs.maxID
	info := &m.recovery
	info.Enabled = true
	info.Records = rs.records
	jst := m.journal.Stats()
	info.TruncatedBytes = jst.Replay.TruncatedBytes
	info.DroppedSegments = jst.Replay.DroppedSegments

	for _, id := range rs.order {
		rj := rs.jobs[id]
		j := &job{
			id: id, spec: rj.spec, key: rj.spec.Key(), state: StateQueued,
			created: rj.created, recovered: true, done: make(chan struct{}),
		}
		m.registerLocked(j)
		m.c.recovered.Add(1)
		info.Jobs++
		switch {
		case rj.specErr != nil:
			m.finalizeLocked(j, StateFailed, nil,
				&RecoveredError{State: rj.state, Reason: "journalled spec unusable: " + rj.specErr.Error()})
			info.Unrecoverable++
		case rj.state == StateDone:
			res, ok := m.resultFromStore(j.key)
			if !ok {
				info.ResultsMissing++
			}
			m.finalizeLocked(j, StateDone, res, nil)
		case rj.state == StateFailed:
			m.finalizeLocked(j, StateFailed, nil, errors.New(rj.errMsg))
		case rj.state == StateCancelled:
			m.finalizeLocked(j, StateCancelled, nil, context.Canceled)
		default: // queued or running at the crash
			if res, ok := m.resultFromStore(j.key); ok {
				j.cacheHit = true
				m.c.diskHits.Add(1)
				m.finalizeLocked(j, StateDone, res, nil)
				info.CompletedFromStore++
			} else {
				m.requeueLocked(j, rj, info)
				continue // keep the fresh queue timestamps
			}
		}
		// finalizeLocked stamps wall-clock now; restore the journalled
		// times so queued/wall durations survive the restart.
		j.created = rj.created
		if !rj.started.IsZero() {
			j.started = rj.started
		} else {
			j.started = rj.created
		}
		if !rj.ended.IsZero() {
			j.finished = rj.ended
		}
	}

	if err := m.journal.Compact(m.liveRecordsLocked()); err != nil {
		m.c.journalErrors.Add(1)
	}
}

// requeueLocked re-enqueues a job that was live at the crash, joining an
// execution already re-created for the same key (the singleflight rule
// holds across restarts too). A full queue fails the job rather than the
// startup.
func (m *Manager) requeueLocked(j *job, rj *replayedJob, info *RecoveryInfo) {
	if e, ok := m.inflight[j.key]; ok {
		j.exec = e
		e.jobs = append(e.jobs, j)
		m.c.deduped.Add(1)
		info.Requeued++
		return
	}
	if err := m.startLocked(j); err != nil {
		m.finalizeLocked(j, StateFailed, nil,
			&RecoveredError{State: rj.state, Reason: "re-enqueue failed: " + err.Error()})
		info.Unrecoverable++
		return
	}
	info.Requeued++
}
