package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"critload/internal/jobs"
	"critload/internal/server"
	"critload/pkg/api"
	"critload/pkg/client"
)

const kernelSrc = `
.kernel lin
.param .u32 a
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    ld.param.u32 %r3, [a];
    shl.u32      %r4, %r2, 2;
    add.u32      %r5, %r3, %r4;
    ld.global.u32 %r6, [%r5];
    exit;
`

// newClient builds a client with fast retries against url; extra Config
// fields can be layered by the caller afterwards via the returned Config.
func newClient(t *testing.T, url string, cfg client.Config) *client.Client {
	t.Helper()
	cfg.BaseURL = url
	if cfg.RetryBaseDelay == 0 {
		cfg.RetryBaseDelay = time.Millisecond
	}
	if cfg.RetryMaxDelay == 0 {
		cfg.RetryMaxDelay = 5 * time.Millisecond
	}
	c, err := client.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// newDaemon stands up the real critloadd API over httptest, behind wrap when
// one is given.
func newDaemon(t *testing.T, wrap ...func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	mgr, err := jobs.NewManager(jobs.Config{Workers: 2, Runner: server.SimRunner()})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	var h http.Handler = server.New(mgr)
	for _, w := range wrap {
		h = w(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Close(ctx)
	})
	return ts
}

// flaky answers a seeded share of requests with 503 before they reach the
// daemon.
func flaky(rate float64) func(http.Handler) http.Handler {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(1))
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			fault := rng.Float64() < rate
			mu.Unlock()
			if fault {
				http.Error(w, `{"error":"injected fault"}`, http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

func TestClassifyAgainstRealServer(t *testing.T) {
	ts := newDaemon(t)
	c := newClient(t, ts.URL, client.Config{})
	res, err := c.Classify(context.Background(), kernelSrc)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if len(res.Kernels) != 1 || res.Kernels[0].Name != "lin" || res.Kernels[0].Deterministic != 1 {
		t.Fatalf("result = %+v", res.Kernels)
	}
	st := c.Stats()["classify"]
	if st.Count != 1 || st.Errors != 0 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want one clean op", st)
	}
	if st.MaxMillis <= 0 || st.P50Millis <= 0 {
		t.Fatalf("latency stats empty: %+v", st)
	}
}

// TestRetryOn429And503 injects transient push-back: the first failures of
// each kind must be retried through to success, counted as retries.
func TestRetryOn429And503(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		t.Run(fmt.Sprint(status), func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) <= 2 {
					w.Header().Set("Retry-After", "0")
					w.WriteHeader(status)
					fmt.Fprint(w, `{"error":"busy"}`)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, `{"kernels":[]}`)
			}))
			defer ts.Close()
			c := newClient(t, ts.URL, client.Config{})
			if _, err := c.Classify(context.Background(), kernelSrc); err != nil {
				t.Fatalf("Classify after transient %d: %v", status, err)
			}
			if got := calls.Load(); got != 3 {
				t.Fatalf("server saw %d calls, want 3", got)
			}
			if st := c.Stats()["classify"]; st.Retries != 2 || st.Errors != 0 {
				t.Fatalf("stats = %+v, want 2 retries, 0 errors", st)
			}
		})
	}
}

// TestRetryHonorsRetryAfter checks the server's push-back stretches the
// backoff: with a 1-second Retry-After, a retry cannot land sooner.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var firstTwo [2]time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= 2 {
			firstTwo[n-1] = time.Now()
		}
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		fmt.Fprint(w, `{"kernels":[]}`)
	}))
	defer ts.Close()
	// Client backoff alone would retry within ~10ms; Retry-After must win.
	c := newClient(t, ts.URL, client.Config{})
	if _, err := c.Classify(context.Background(), kernelSrc); err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if gap := firstTwo[1].Sub(firstTwo[0]); gap < 900*time.Millisecond {
		t.Fatalf("retry landed after %v, want >= ~1s (Retry-After honored)", gap)
	}
}

// TestPermanentErrorNoRetry: a 422 is the caller's bug; retrying cannot
// help and must not happen.
func TestPermanentErrorNoRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprint(w, `{"error":"parsing PTX: junk"}`)
	}))
	defer ts.Close()
	c := newClient(t, ts.URL, client.Config{})
	_, err := c.Classify(context.Background(), "junk ;")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want APIError 422", err)
	}
	if apiErr.IsRetryable() {
		t.Error("422 reported retryable")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want exactly 1 (no retries)", got)
	}
	if st := c.Stats()["classify"]; st.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 error", st)
	}
}

// TestTimeoutPropagates: a server that outlives the caller's deadline
// yields a context error, not a retry storm.
func TestTimeoutPropagates(t *testing.T) {
	var calls atomic.Int64
	// The handler holds the request until the test ends: closing release
	// before ts.Close lets Close return at once instead of waiting on it.
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release)
	c := newClient(t, ts.URL, client.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Classify(ctx, kernelSrc)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("took %v, want prompt return at the deadline", elapsed)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry past a dead context)", got)
	}
}

// TestClassifyBatchPartialFailure drives batch semantics end to end
// against the real server: bad items fail their slots, good ones succeed.
func TestClassifyBatchPartialFailure(t *testing.T) {
	ts := newDaemon(t)
	c := newClient(t, ts.URL, client.Config{})
	out, err := c.ClassifyBatch(context.Background(), []client.BatchItem{
		{ID: "good", PTX: kernelSrc},
		{ID: "junk", PTX: "junk ;"},
		{ID: "also-good", PTX: kernelSrc},
	})
	if err != nil {
		t.Fatalf("ClassifyBatch: %v", err)
	}
	if out.Succeeded != 2 || out.Failed != 1 || len(out.Items) != 3 {
		t.Fatalf("batch outcome = %+v", out)
	}
	if !out.Items[0].OK() || out.Items[1].OK() || !out.Items[2].OK() {
		t.Fatalf("per-item OK = %v %v %v, want true false true",
			out.Items[0].OK(), out.Items[1].OK(), out.Items[2].OK())
	}
	if out.Items[1].Status != http.StatusUnprocessableEntity || out.Items[1].Error == "" {
		t.Fatalf("junk item = %+v, want 422 with error", out.Items[1])
	}
	if out.Items[0].Result == nil || out.Items[0].Result.Kernels[0].Deterministic != 1 {
		t.Fatalf("good item result = %+v", out.Items[0].Result)
	}
}

// TestClassifyBatchClientSideValidation: an invalid batch never crosses
// the wire.
func TestClassifyBatchClientSideValidation(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
	}))
	defer ts.Close()
	c := newClient(t, ts.URL, client.Config{})
	ctx := context.Background()
	if _, err := c.ClassifyBatch(ctx, nil); !errors.Is(err, api.ErrBatchEmpty) {
		t.Errorf("empty batch err = %v, want ErrBatchEmpty", err)
	}
	big := make([]client.BatchItem, api.MaxBatchItems+1)
	for i := range big {
		big[i].PTX = kernelSrc
	}
	if _, err := c.ClassifyBatch(ctx, big); !errors.Is(err, api.ErrBatchTooLarge) {
		t.Errorf("oversized batch err = %v, want ErrBatchTooLarge", err)
	}
	if _, err := c.ClassifyBatch(ctx, []client.BatchItem{
		{ID: "x", PTX: kernelSrc}, {ID: "x", PTX: kernelSrc},
	}); err == nil {
		t.Error("duplicate ids accepted")
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("server saw %d calls, want 0", got)
	}
}

// TestJobLifecycle runs submit → wait → result decode → cache hit →
// cancel-after-done against the real daemon.
func TestJobLifecycle(t *testing.T) {
	ts := newDaemon(t)
	c := newClient(t, ts.URL, client.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := client.JobSpec{Workload: "2mm", Mode: "functional", Size: 32, Seed: 1}
	job, err := c.RunJob(ctx, spec)
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if job.State != client.StateDone || job.Err() != nil {
		t.Fatalf("job = %+v, want done", job)
	}
	var result struct {
		Workload string `json:"workload"`
	}
	if err := json.Unmarshal(job.Result, &result); err != nil || result.Workload != "2mm" {
		t.Fatalf("result decode = %v / %+v", err, result)
	}

	// Same spec again: served from the result cache, terminal on submit.
	again, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !again.CacheHit || again.State != client.StateDone {
		t.Fatalf("resubmit = %+v, want immediate cached done", again)
	}

	got, err := c.GetJob(ctx, job.ID)
	if err != nil || got.State != client.StateDone {
		t.Fatalf("GetJob = %+v / %v", got, err)
	}
	cancelled, err := c.CancelJob(ctx, job.ID)
	if err != nil || cancelled.State != client.StateDone {
		t.Fatalf("cancel finished job = %+v / %v, want done no-op", cancelled, err)
	}

	catalog, err := c.Workloads(ctx)
	if err != nil || len(catalog.Workloads) != 15 {
		t.Fatalf("Workloads = %+v / %v, want the paper's 15", catalog, err)
	}
	if len(catalog.Families) == 0 {
		t.Fatal("catalog lists no families")
	}
	for _, f := range catalog.Families {
		if len(f.Knobs) == 0 || f.Example == "" {
			t.Fatalf("family %s listed without knob schema or example", f.Name)
		}
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}
}

// TestFamilyAndPTXSurface drives the family-spec and raw-PTX paths against
// the real daemon: classify, run a family job, submit valid and malformed
// PTX, and check the 422 diagnostics survive the trip into APIError.
func TestFamilyAndPTXSurface(t *testing.T) {
	ts := newDaemon(t)
	c := newClient(t, ts.URL, client.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := client.FamilySpec{Name: "stream", Knobs: map[string]int{
		"loads": 3, "size": 128, "ctas": 2, "block": 32,
	}}
	res, err := c.ClassifyFamily(ctx, spec)
	if err != nil || len(res.Kernels) != 1 {
		t.Fatalf("ClassifyFamily = %+v / %v", res, err)
	}
	if k := res.Kernels[0]; k.Deterministic != 3 || k.NonDeterministic != 0 {
		t.Fatalf("stream loads=3 classified %d/%d, want 3 D / 0 N",
			k.Deterministic, k.NonDeterministic)
	}

	_, err = c.ClassifyFamily(ctx, client.FamilySpec{Name: "no-such-family"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("unknown family err = %v, want APIError 400", err)
	}

	job, err := c.RunJob(ctx, client.JobSpec{Family: &spec, Mode: "functional"})
	if err != nil || job.State != client.StateDone {
		t.Fatalf("family RunJob = %+v / %v, want done", job, err)
	}

	ptxRes, err := c.SubmitPTX(ctx, kernelSrc)
	if err != nil || len(ptxRes.Kernels) != 1 || len(ptxRes.SHA256) != 64 {
		t.Fatalf("SubmitPTX = %+v / %v", ptxRes, err)
	}
	if k := ptxRes.Kernels[0]; k.Name != "lin" || k.Deterministic != 1 {
		t.Fatalf("PTX kernel = %+v, want lin with 1 D load", k)
	}

	_, err = c.SubmitPTX(ctx, ".kernel bad\n    mov.u32 %r0, %r1, %r2;\n")
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("malformed PTX err = %v, want APIError 422", err)
	}
	if len(apiErr.Diagnostics) == 0 || apiErr.Diagnostics[0].Line != 2 {
		t.Fatalf("diagnostics = %+v, want line-2 failure", apiErr.Diagnostics)
	}
}

// TestJobNotFound maps a 404 to a typed APIError.
func TestJobNotFound(t *testing.T) {
	ts := newDaemon(t)
	c := newClient(t, ts.URL, client.Config{})
	_, err := c.GetJob(context.Background(), "j-missing")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want APIError 404", err)
	}
}

// TestConcurrentWorkers hammers one shared client from many goroutines with
// every kind of op — the -race CI job turns this into a data-race check over
// the client's pool and stats paths. Against a server that answers
// 5% of requests 503, retries must absorb the faults: under 1% of ops may
// surface an error.
func TestConcurrentWorkers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		faultRate float64
	}{{"clean", 0}, {"injected-503s", 0.05}} {
		t.Run(tc.name, func(t *testing.T) {
			ts := newDaemon(t, flaky(tc.faultRate))
			c := newClient(t, ts.URL, client.Config{})
			const workers, opsPerWorker = 8, 24
			var wg sync.WaitGroup
			var failed atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ctx := context.Background()
					for i := 0; i < opsPerWorker; i++ {
						var err error
						switch i % 4 {
						case 0:
							_, err = c.Classify(ctx, kernelSrc)
						case 1:
							_, err = c.ClassifyBatch(ctx, []client.BatchItem{
								{PTX: kernelSrc}, {PTX: kernelSrc},
							})
						case 2:
							_, err = c.ClassifyFamily(ctx, client.FamilySpec{
								Name: "stream", Knobs: map[string]int{"loads": 2, "size": 128}})
						case 3:
							var job *client.Job
							job, err = c.RunJob(ctx, client.JobSpec{
								Workload: "2mm", Mode: "functional", Size: 16, Seed: int64(w)})
							if err == nil {
								err = job.Err()
							}
						}
						if err != nil {
							failed.Add(1)
							t.Logf("worker %d op %d: %v", w, i, err)
						}
					}
				}(w)
			}
			wg.Wait()
			const total, perOp = workers * opsPerWorker, workers * opsPerWorker / 4
			var retries int64
			st := c.Stats()
			for _, op := range []string{"classify", "classify_batch", "classify_family", "job_submit"} {
				if st[op].Count != perOp {
					t.Errorf("%s stats = %+v, want %d ops", op, st[op], perOp)
				}
				retries += st[op].Retries
			}
			if tc.faultRate == 0 {
				if failed.Load() != 0 || retries != 0 {
					t.Fatalf("%d failed ops, %d retries against a healthy server", failed.Load(), retries)
				}
				return
			}
			if retries == 0 {
				t.Error("no retries: the injected faults never reached the client")
			}
			if failed.Load()*100 >= total {
				t.Fatalf("%d of %d ops surfaced an error with retries enabled", failed.Load(), total)
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := client.New(client.Config{}); err == nil {
		t.Error("empty BaseURL accepted")
	}
	if _, err := client.New(client.Config{BaseURL: "ftp://x"}); err == nil {
		t.Error("non-http scheme accepted")
	}
	if _, err := client.New(client.Config{BaseURL: "http://localhost:1"}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
