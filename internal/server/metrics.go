package server

import (
	"strconv"
	"sync"
	"time"

	"critload/internal/checkpoint"
	"critload/internal/jobs"
	"critload/internal/obsv"
)

// jobWallBuckets covers simulation wall times, which run far longer than
// HTTP requests: from sub-10ms cache-adjacent runs to multi-minute sweeps.
var jobWallBuckets = []float64{.01, .05, .1, .5, 1, 5, 10, 30, 60, 120, 300}

// batchSizeBuckets covers batch classify request sizes, from singletons up
// to the api.MaxBatchItems ceiling.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// metricsSet owns the server's registry: the stats structs of the job
// manager and its stores, HTTP request instrumentation (in-flight gauge,
// per-endpoint latency histograms, per-endpoint/status counters) and
// per-mode job wall-time histograms.
type metricsSet struct {
	reg *obsv.Registry

	httpInFlight *obsv.Gauge
	httpPanics   *obsv.Counter
	latency      map[string]*obsv.Histogram // per endpoint
	jobWall      map[jobs.Mode]*obsv.Histogram

	batchItems      *obsv.Counter
	batchItemErrors *obsv.Counter
	batchSize       *obsv.Histogram

	ptxAccepted *obsv.Counter
	ptxRejected *obsv.Counter

	mu       sync.Mutex
	requests map[string]*obsv.Counter // endpoint + status → counter
}

// newMetricsSet builds the registry. endpoints is the bounded route-label
// set, derived from the mux registrations (routeTable.labels); raw request
// paths never become label values, so cardinality stays fixed.
func newMetricsSet(mgr *jobs.Manager, ckpts *checkpoint.Store, start time.Time, endpoints []string) *metricsSet {
	reg := obsv.NewRegistry()
	m := &metricsSet{
		reg:      reg,
		latency:  map[string]*obsv.Histogram{},
		jobWall:  map[jobs.Mode]*obsv.Histogram{},
		requests: map[string]*obsv.Counter{},
	}

	// Job-manager, checkpoint-store, journal and result-store counters are
	// declared on their stats structs' fields; each struct is snapshotted
	// once per scrape (the store and journal snapshots include a scan of a
	// budget-bounded directory). The checkpoint families exist only with
	// -cache-dir, the journal and result-store families only with -data-dir.
	var durable []string
	if jnl := mgr.Journal(); jnl != nil {
		durable = append(durable, "journal")
		obsv.Struct(reg, jnl.Stats)
	}
	if results := mgr.Results(); results != nil {
		durable = append(durable, "results")
		obsv.Struct(reg, results.Stats)
	}
	obsv.Struct(reg, mgr.Stats, durable...)
	if ckpts != nil {
		obsv.Struct(reg, ckpts.Stats)
	}
	reg.GaugeFunc("critloadd_uptime_seconds",
		"Seconds since the server started.", nil,
		func() float64 { return time.Since(start).Seconds() })

	// HTTP instrumentation.
	m.httpInFlight = reg.Gauge("critloadd_http_in_flight",
		"HTTP requests currently being served.", nil)
	m.httpPanics = reg.Counter("critloadd_http_panics_total",
		"Handler panics recovered into 500 responses.", nil)
	for _, ep := range endpoints {
		m.latency[ep] = reg.Histogram("critloadd_http_request_seconds",
			"HTTP request latency by endpoint.",
			map[string]string{"endpoint": ep}, nil)
	}
	m.batchItems = reg.Counter("critloadd_http_batch_items_total",
		"Kernel sources received across batch classify requests.", nil)
	m.batchItemErrors = reg.Counter("critloadd_http_batch_item_errors_total",
		"Batch classify items that failed (per-item 4xx).", nil)
	m.batchSize = reg.Histogram("critloadd_http_batch_size",
		"Items per batch classify request.", nil, batchSizeBuckets)
	m.ptxAccepted = reg.Counter("critloadd_ptx_submissions_total",
		"Raw PTX submissions by outcome.",
		map[string]string{"outcome": "accepted"})
	m.ptxRejected = reg.Counter("critloadd_ptx_submissions_total",
		"Raw PTX submissions by outcome.",
		map[string]string{"outcome": "rejected"})

	// Per-mode job wall-time histograms, fed by the manager's execution
	// observer.
	for _, mode := range []jobs.Mode{jobs.ModeFunctional, jobs.ModeTiming} {
		m.jobWall[mode] = reg.Histogram("critloadd_job_wall_seconds",
			"Runner wall-clock time per execution by mode.",
			map[string]string{"mode": string(mode)}, jobWallBuckets)
	}
	mgr.SetExecutionObserver(m.observeExecution)
	return m
}

// observePTX records one /v1/ptx submission outcome.
func (m *metricsSet) observePTX(accepted bool) {
	if accepted {
		m.ptxAccepted.Inc()
	} else {
		m.ptxRejected.Inc()
	}
}

// observeBatch records one batch classify request's size and per-item
// failure count.
func (m *metricsSet) observeBatch(items, failed int) {
	m.batchItems.Add(uint64(items))
	m.batchItemErrors.Add(uint64(failed))
	m.batchSize.Observe(float64(items))
}

// observeRequest is the Instrument middleware's sink.
func (m *metricsSet) observeRequest(endpoint string, status int, d time.Duration) {
	if h, ok := m.latency[endpoint]; ok {
		h.Observe(d.Seconds())
	}
	m.requestCounter(endpoint, status).Inc()
}

// requestCounter returns (registering on first use) the per-endpoint,
// per-status request counter. Lazy registration keeps the family to the
// status codes actually seen.
func (m *metricsSet) requestCounter(endpoint string, status int) *obsv.Counter {
	code := strconv.Itoa(status)
	key := endpoint + " " + code
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.requests[key]
	if !ok {
		c = m.reg.Counter("critloadd_http_requests_total",
			"HTTP requests by endpoint and status code.",
			map[string]string{"endpoint": endpoint, "code": code})
		m.requests[key] = c
	}
	return c
}

// observeExecution is the manager's execution observer.
func (m *metricsSet) observeExecution(spec jobs.Spec, wall time.Duration, _ error) {
	if h, ok := m.jobWall[spec.Mode]; ok {
		h.Observe(wall.Seconds())
	}
}
