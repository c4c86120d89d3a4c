// Package api declares critloadd's wire schema: every JSON body the daemon
// accepts or sends, exactly once. The daemon (internal/server) encodes and
// decodes these types directly and pkg/client re-exports them as aliases, so
// a field renamed here is renamed on both ends of the wire at once.
//
// The one body kept out of this package is the job snapshot: the daemon
// serializes jobs.JobInfo, whose Result is the runner's value encoded once
// as JSON, and pkg/client decodes it into client.Job, whose Result stays raw
// JSON. A test in pkg/client pins the two declarations to each other.
//
// The package imports only the standard library.
package api

import "time"

// Error is the body of every non-2xx response. Diagnostics is present only on
// /v1/ptx's 422, one entry per validation failure.
type Error struct {
	// Diagnostics precedes Message so the 422 body lists its keys in the
	// same order the daemon has always written them.
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	Message     string       `json:"error"`
}

// Health is the GET /healthz body. Recovery is present only on daemons
// running the durable tier: what the startup journal replay found, so an
// operator restarting a crashed daemon can see at a glance how many jobs
// were carried across and whether the journal had a torn tail.
type Health struct {
	Status   string    `json:"status"`
	Recovery *Recovery `json:"recovery,omitempty"`
}

// Recovery summarises what the startup journal replay did.
type Recovery struct {
	// Enabled is true when the daemon runs with a journal.
	Enabled bool `json:"enabled"`
	// Records is the number of journal records replayed.
	Records uint64 `json:"records_replayed"`
	// TruncatedBytes and DroppedSegments describe the torn tail the replay
	// had to abandon (both zero after a clean shutdown).
	TruncatedBytes  int64 `json:"truncated_bytes"`
	DroppedSegments int   `json:"dropped_segments"`
	// Jobs is the number of jobs rebuilt from the journal.
	Jobs int `json:"jobs"`
	// Requeued counts jobs that were queued or running at the crash and
	// were re-enqueued for (idempotent) re-execution.
	Requeued int `json:"requeued"`
	// CompletedFromStore counts jobs that were live at the crash but whose
	// result was already durable, so they completed without re-running.
	CompletedFromStore int `json:"completed_from_store"`
	// ResultsMissing counts completed jobs whose stored result could not
	// be read (evicted, or lost or torn by a crash: results are not
	// fsynced); each was re-enqueued and re-runs to the same bytes.
	ResultsMissing int `json:"results_missing"`
	// Unrecoverable counts jobs the replay had to fail: their spec no
	// longer decodes or validates, or the recovery queue was full.
	Unrecoverable int `json:"unrecoverable"`
}

// JobSpec is the POST /v1/jobs body. Exactly one of Workload and Family
// selects what to run: a Table I benchmark by name, or a parameterized
// family instance that the daemon resolves to its canonical
// "family:<name>?<knobs>" workload name, so caching, deduplication and
// the durable journal all see family jobs through the same string identity
// as Table I jobs.
type JobSpec struct {
	Workload     string      `json:"workload,omitempty"`
	Family       *FamilySpec `json:"family,omitempty"`
	Mode         string      `json:"mode"` // "functional" or "timing"
	Size         int         `json:"size,omitempty"`
	Seed         int64       `json:"seed,omitempty"`
	MaxWarpInsts uint64      `json:"max_warp_insts,omitempty"`
	MaxCycles    int64       `json:"max_cycles,omitempty"`
	// TimeoutMillis bounds the job's wall time server-side (0 = none).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// ReuseCheckpoints is accepted and ignored: every job simulates cold.
	// It is kept so that clients which still send it are not refused.
	ReuseCheckpoints bool `json:"reuse_checkpoints,omitempty"`
}

// Progress is a live heartbeat of one running job, surfaced on
// GET /v1/jobs/{id} while the job is in the running state: how far the
// simulation has advanced and how fast the simulated clock is moving.
type Progress struct {
	// Cycles is the simulated cycle count so far (0 for functional runs,
	// which have no clock).
	Cycles int64 `json:"cycles"`
	// WarpInsts is the number of warp instructions executed so far.
	WarpInsts uint64 `json:"warp_insts"`
	// CyclesPerSec is the simulation rate: simulated cycles per wall-clock
	// second since the execution started.
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	// Updated is when the runner last reported.
	Updated time.Time `json:"updated"`
}
