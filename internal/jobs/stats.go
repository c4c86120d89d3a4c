package jobs

import "sync/atomic"

// Stats is a point-in-time snapshot of a manager's counters, in the spirit
// of a connection pool's stats block: lifetime counters first, current-state
// gauges after. All fields are plain values; the live counters behind them
// are updated atomically and are safe to read concurrently with job traffic.
// The field tags declare each counter's /metrics family (see obsv.Struct);
// the "journal" and "results" families exist only with the durable tier.
type Stats struct {
	// Lifetime counters.
	Submitted   uint64 `json:"submitted" metric:"critloadd_jobs_submitted_total,counter" help:"Jobs accepted by the manager."`
	Completed   uint64 `json:"completed" metric:"critloadd_jobs_completed_total,counter" help:"Jobs finished successfully."`
	Failed      uint64 `json:"failed" metric:"critloadd_jobs_failed_total,counter" help:"Jobs finished with an error."`
	Cancelled   uint64 `json:"cancelled" metric:"critloadd_jobs_cancelled_total,counter" help:"Jobs cancelled before completing."`
	CacheHits   uint64 `json:"cache_hits" metric:"critloadd_cache_hits_total,counter" help:"Submissions answered from the result cache."`
	CacheMisses uint64 `json:"cache_misses" metric:"critloadd_cache_misses_total,counter" help:"Submissions that scheduled or joined an execution."`
	Deduped     uint64 `json:"deduped" metric:"critloadd_jobs_deduped_total,counter" help:"Submissions that joined an in-flight execution (singleflight)."`
	Executions  uint64 `json:"executions" metric:"critloadd_executions_total,counter" help:"Actual simulation runner invocations."`
	Panics      uint64 `json:"panics" metric:"critloadd_job_panics_total,counter" help:"Runner panics recovered into failed jobs."`
	WallNanos   uint64 `json:"wall_nanos" metric:"critloadd_job_wall_seconds_total,counter" div:"1e9" help:"Total runner wall-clock time."`
	DiskHits    uint64 `json:"disk_hits" metric:"critloadd_resultstore_disk_hits_total,counter" when:"results" help:"Submissions answered from the on-disk result store."`
	Recovered   uint64 `json:"recovered" metric:"critloadd_jobs_recovered_total,counter" when:"journal" help:"Jobs rebuilt from the journal at startup."`
	// JournalErrors counts failed journal appends, fsyncs and compactions,
	// zero in a healthy daemon. Failed result writes count in PutErrors.
	JournalErrors uint64 `json:"journal_errors" metric:"critloadd_journal_errors_total,counter" when:"journal" help:"Journal appends or fsyncs that did not reach disk."`

	// Current-state gauges.
	Queued  int64 `json:"queued" metric:"critloadd_queue_depth,gauge" help:"Jobs waiting for a worker."`
	Running int64 `json:"running" metric:"critloadd_jobs_running,gauge" help:"Jobs currently executing."`
}

// counters is the live, atomically updated backing store for Stats.
type counters struct {
	submitted, completed, failed, cancelled atomic.Uint64
	cacheHits, cacheMisses                  atomic.Uint64
	deduped, executions, panics, wallNanos  atomic.Uint64
	diskHits, recovered, journalErrors      atomic.Uint64
	queued, running                         atomic.Int64
}

// snapshot copies the counters into an immutable Stats value.
func (c *counters) snapshot() Stats {
	return Stats{
		Submitted:     c.submitted.Load(),
		Completed:     c.completed.Load(),
		Failed:        c.failed.Load(),
		Cancelled:     c.cancelled.Load(),
		CacheHits:     c.cacheHits.Load(),
		CacheMisses:   c.cacheMisses.Load(),
		Deduped:       c.deduped.Load(),
		Executions:    c.executions.Load(),
		Panics:        c.panics.Load(),
		WallNanos:     c.wallNanos.Load(),
		DiskHits:      c.diskHits.Load(),
		Recovered:     c.recovered.Load(),
		JournalErrors: c.journalErrors.Load(),
		Queued:        c.queued.Load(),
		Running:       c.running.Load(),
	}
}
