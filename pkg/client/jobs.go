package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"critload/pkg/api"
)

// Job, catalog and health wire types; see package api for field
// documentation. Job itself is declared below: its Result stays raw JSON.
type (
	JobSpec      = api.JobSpec
	Progress     = api.Progress
	Workload     = api.Workload
	FamilySpec   = api.FamilySpec
	Knob         = api.Knob
	Family       = api.Family
	Catalog      = api.Catalog
	Recovery     = api.Recovery
	HealthStatus = api.Health
)

// Job states, mirroring the server's lifecycle.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Job is one job snapshot. Result is left raw: its shape depends on the
// job's mode; decode it into your own struct. The daemon serializes its own jobs.JobInfo with a
// typed State and an in-memory Result; TestJobInfoMatchesClientJob keeps
// the two declarations in step.
type Job struct {
	ID           string    `json:"id"`
	Key          string    `json:"key"`
	State        string    `json:"state"`
	Error        string    `json:"error,omitempty"`
	CacheHit     bool      `json:"cache_hit,omitempty"`
	Created      time.Time `json:"created"`
	Started      time.Time `json:"started"`
	Finished     time.Time `json:"finished"`
	QueuedMillis int64     `json:"queued_millis"`
	WallMillis   int64     `json:"wall_millis"`
	Progress     *Progress `json:"progress,omitempty"`
	// Recovered marks a job replayed from the daemon's journal after a
	// restart rather than submitted through the current process.
	Recovered bool            `json:"recovered,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j *Job) Terminal() bool {
	switch j.State {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Err folds a terminal job's outcome into an error: nil for done, a
// descriptive error for failed or cancelled.
func (j *Job) Err() error {
	switch j.State {
	case StateFailed:
		return fmt.Errorf("client: job %s failed: %s", j.ID, j.Error)
	case StateCancelled:
		return fmt.Errorf("client: job %s cancelled", j.ID)
	}
	return nil
}

// SubmitJob submits a simulation job and returns its initial snapshot —
// already terminal (with cache_hit set) when the result was cached.
func (c *Client) SubmitJob(ctx context.Context, spec JobSpec) (*Job, error) {
	var out Job
	if err := c.do(ctx, "job_submit", http.MethodPost, "/v1/jobs", nil, spec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// GetJob fetches a job's current snapshot.
func (c *Client) GetJob(ctx context.Context, id string) (*Job, error) {
	var out Job
	if err := c.do(ctx, "job_get", http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelJob cancels a job; cancelling a finished job is a no-op returning
// its final snapshot.
func (c *Client) CancelJob(ctx context.Context, id string) (*Job, error) {
	var out Job
	if err := c.do(ctx, "job_cancel", http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// defaultPollWait is WaitJob's per-request long-poll window. Long enough
// that a typical job completes within one round trip, short enough that a
// stuck connection is noticed.
const defaultPollWait = 15 * time.Second

// WaitJob long-polls the job until it reaches a terminal state or ctx is
// done. pollWait sets the per-request wait_ms window (0 = 15s); progress
// heartbeats arrive on the intermediate snapshots, so a caller watching a
// long simulate can wrap WaitJob's ctx and poll GetJob itself.
func (c *Client) WaitJob(ctx context.Context, id string, pollWait time.Duration) (*Job, error) {
	if pollWait <= 0 {
		pollWait = defaultPollWait
	}
	q := url.Values{"wait_ms": []string{strconv.FormatInt(pollWait.Milliseconds(), 10)}}
	for {
		var out Job
		if err := c.do(ctx, "job_wait", http.MethodGet, "/v1/jobs/"+url.PathEscape(id), q, nil, &out); err != nil {
			return nil, err
		}
		if out.Terminal() {
			return &out, nil
		}
		if err := ctx.Err(); err != nil {
			return &out, err
		}
	}
}

// RunJob is submit-and-wait: it returns the job's terminal snapshot. The
// returned error covers transport and API failures only; a job that ran and
// failed comes back with State "failed" and a nil error — check Err().
func (c *Client) RunJob(ctx context.Context, spec JobSpec) (*Job, error) {
	job, err := c.SubmitJob(ctx, spec)
	if err != nil {
		return nil, err
	}
	if job.Terminal() {
		return job, nil
	}
	return c.WaitJob(ctx, job.ID, 0)
}

// Workloads fetches the daemon's workload catalog — Table I benchmarks and
// parameterized families with their knob schemas.
func (c *Client) Workloads(ctx context.Context) (*Catalog, error) {
	var out Catalog
	if err := c.do(ctx, "workloads", http.MethodGet, "/v1/workloads", nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health checks daemon liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, "health", http.MethodGet, "/healthz", nil, nil, nil)
}

// HealthStatus fetches daemon health including the journal recovery
// summary, when the daemon runs with a durable data dir.
func (c *Client) HealthStatus(ctx context.Context) (*HealthStatus, error) {
	var out HealthStatus
	if err := c.do(ctx, "health", http.MethodGet, "/healthz", nil, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
