package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"critload/internal/families"
	"critload/internal/jobs"
	"critload/internal/server"
	"critload/pkg/api"
)

// newService spins up the HTTP API over a manager with the given runner and
// worker count, tearing both down with the test.
func newService(t *testing.T, runner jobs.Runner, workers int) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	mgr, err := jobs.NewManager(jobs.Config{Workers: workers, Runner: runner})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	ts := httptest.NewServer(server.New(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Close(ctx)
	})
	return ts, mgr
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// submitJob posts one job and returns its ID.
func submitJob(t *testing.T, ts *httptest.Server, body map[string]any) string {
	t.Helper()
	var submitted jobs.JobInfo
	if code := postJSON(t, ts.URL+"/v1/jobs", body, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	return submitted.ID
}

// runJob submits one job, polls it to a done state and returns its result.
func runJob(t *testing.T, ts *httptest.Server, body map[string]any) server.RunResult {
	t.Helper()
	var r server.RunResult
	if err := json.Unmarshal(pollDone(t, ts, submitJob(t, ts, body)).Result, &r); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	return r
}

// TestJobsWithoutStoreIgnoreReuseFlag pins the compatibility contract of
// reuse_checkpoints: the field is accepted and ignored, and it is outside
// the job key, so the same job with and without it is one cache entry and
// the second submit is served the first one's bytes.
func TestJobsWithoutStoreIgnoreReuseFlag(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	body := map[string]any{"workload": "dwt", "mode": "timing", "size": 64, "seed": 2}
	first := pollDone(t, ts, submitJob(t, ts, body))

	body["reuse_checkpoints"] = true
	second := pollDone(t, ts, submitJob(t, ts, body))

	spec := jobs.Spec{Workload: "dwt", Mode: jobs.ModeTiming, Size: 64, Seed: 2}
	withFlag := spec
	withFlag.ReuseCheckpoints = true
	if spec.Key() != withFlag.Key() {
		t.Fatalf("jobs.Key differs with reuse_checkpoints: %s vs %s", spec.Key(), withFlag.Key())
	}
	if first.Key != spec.Key().String() || second.Key != first.Key {
		t.Fatalf("served keys %s and %s, want both %s", first.Key, second.Key, spec.Key())
	}
	if first.CacheHit || !second.CacheHit {
		t.Fatalf("cache_hit = %v then %v, want false then true", first.CacheHit, second.CacheHit)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("results differ:\n%s\n%s", first.Result, second.Result)
	}
	var r server.RunResult
	if err := json.Unmarshal(first.Result, &r); err != nil || r.Cycles <= 0 {
		t.Fatalf("result cycles = %d (%v), want > 0", r.Cycles, err)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body = %v", body)
	}
}

func TestMetrics(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	for _, metric := range []string{
		"critloadd_jobs_submitted_total", "critloadd_jobs_completed_total",
		"critloadd_jobs_failed_total", "critloadd_jobs_cancelled_total",
		"critloadd_cache_hits_total", "critloadd_cache_misses_total",
		"critloadd_queue_depth", "critloadd_jobs_running",
		"critloadd_job_wall_seconds_total",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics output missing %s:\n%s", metric, text)
		}
	}
}

func TestWorkloadsListing(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	var catalog struct {
		Workloads []api.Workload `json:"workloads"`
		Families  []struct {
			Name    string           `json:"name"`
			Knobs   []map[string]any `json:"knobs"`
			Example string           `json:"example"`
		} `json:"families"`
	}
	if code := getJSON(t, ts.URL+"/v1/workloads", &catalog); code != http.StatusOK {
		t.Fatalf("workloads = %d, want 200", code)
	}
	if len(catalog.Workloads) != 15 {
		t.Fatalf("listed %d workloads, want the paper's 15", len(catalog.Workloads))
	}
	for _, w := range catalog.Workloads {
		if len(w.Knobs) != 1 || w.Knobs[0].Name != "size" || w.Knobs[0].Max < 4*w.Knobs[0].Default {
			t.Errorf("workload %s knobs %+v, want one size knob admitting 4× its default", w.Name, w.Knobs)
		}
	}
	if len(catalog.Families) != len(families.Names()) {
		t.Fatalf("listed %d families, want %d", len(catalog.Families), len(families.Names()))
	}
	for _, f := range catalog.Families {
		if len(f.Knobs) == 0 {
			t.Errorf("family %s listed without knob schema", f.Name)
		}
		if !strings.HasPrefix(f.Example, "family:"+f.Name+"?") {
			t.Errorf("family %s example %q is not a canonical instance name", f.Name, f.Example)
		}
	}
}

const classifySrc = `
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

func TestClassifyJSONBody(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	var resp api.ClassifyResult
	code := postJSON(t, ts.URL+"/v1/classify", map[string]string{"ptx": classifySrc}, &resp)
	if code != http.StatusOK {
		t.Fatalf("classify = %d, want 200", code)
	}
	if len(resp.Kernels) != 1 || resp.Kernels[0].Name != "lin" {
		t.Fatalf("kernels = %+v", resp.Kernels)
	}
	k := resp.Kernels[0]
	if k.Deterministic != 1 || k.NonDeterministic != 0 || len(k.Loads) != 1 {
		t.Fatalf("classification = %+v, want one deterministic load", k)
	}
	if k.Loads[0].Class != "deterministic" {
		t.Fatalf("load class = %q", k.Loads[0].Class)
	}
	var haveParamRoot bool
	for _, r := range k.Loads[0].Roots {
		if r.Kind == "param" && r.Name == "a" {
			haveParamRoot = true
		}
	}
	if !haveParamRoot {
		t.Fatalf("roots = %+v, want param 'a'", k.Loads[0].Roots)
	}
}

func TestClassifyRawBody(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	resp, err := http.Post(ts.URL+"/v1/classify", "text/plain", strings.NewReader(classifySrc))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw classify = %d, want 200", resp.StatusCode)
	}
}

func TestClassifyErrors(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	if code := postJSON(t, ts.URL+"/v1/classify", map[string]string{"ptx": ""}, nil); code != http.StatusBadRequest {
		t.Errorf("empty source = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/classify", map[string]string{"ptx": "not ptx at all ;"}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("junk source = %d, want 422", code)
	}
}

// TestJobRoundTrip drives the acceptance path end to end over HTTP: submit a
// timing job, poll it to completion, and read the Table III counters and the
// stats summary out of the result JSON.
func TestJobRoundTrip(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 2)
	var submitted jobs.JobInfo
	code := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"workload": "2mm", "mode": "timing", "size": 32, "seed": 1,
		"max_warp_insts": 20000,
	}, &submitted)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if submitted.ID == "" || submitted.State.Terminal() {
		t.Fatalf("submitted = %+v, want a live job", submitted)
	}

	var final struct {
		jobs.JobInfo
		Result server.RunResult `json:"result"`
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s?wait_ms=2000", ts.URL, submitted.ID), &final)
		if code != http.StatusOK {
			t.Fatalf("poll = %d, want 200", code)
		}
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", final.State)
		}
	}
	if final.State != jobs.StateDone {
		t.Fatalf("final state = %q (error %q), want done", final.State, final.Error)
	}
	if final.Result.Cycles <= 0 {
		t.Errorf("cycles = %d, want > 0", final.Result.Cycles)
	}
	if got := final.Result.Counters["gld_request"]; got == 0 {
		t.Errorf("gld_request = 0, want > 0")
	}
	if final.Result.Summary.WarpInsts == 0 {
		t.Errorf("summary warp_insts = 0, want > 0")
	}
	if final.Result.Workload != "2mm" || final.Result.Mode != jobs.ModeTiming {
		t.Errorf("result identity = %s/%s", final.Result.Workload, final.Result.Mode)
	}
}

// TestConcurrentJobsSingleExecution is the dedup acceptance test: four
// concurrent submissions of the same workload must produce exactly one
// simulator execution, the rest served by singleflight or the result cache.
func TestConcurrentJobsSingleExecution(t *testing.T) {
	ts, mgr := newService(t, server.SimRunner(), 4)
	const n = 4
	ids := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			var info jobs.JobInfo
			code := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
				"workload": "2mm", "mode": "functional", "size": 64, "seed": 9,
			}, &info)
			if code != http.StatusAccepted {
				t.Errorf("submit %d = %d, want 202", i, code)
				return
			}
			ids[i] = info.ID
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range ids {
		if id == "" {
			t.Fatal("missing job id")
		}
		final, err := mgr.Wait(ctx, id)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if final.State != jobs.StateDone {
			t.Fatalf("job %s = %q (error %q), want done", id, final.State, final.Error)
		}
	}
	if st := mgr.Stats(); st.Executions != 1 {
		t.Fatalf("executions = %d, want exactly 1 (stats %+v)", st.Executions, st)
	}
}

// TestPanickingJobLeavesDaemonAlive is the headline acceptance test: a
// simulation that panics mid-run becomes a failed job carrying the panic
// message and stack, while /healthz and the jobs API keep answering.
func TestPanickingJobLeavesDaemonAlive(t *testing.T) {
	runner := func(ctx context.Context, spec jobs.Spec) (any, error) {
		if spec.Workload == "bfs" {
			panic("cache: unaligned block address 0x3")
		}
		return "ok", nil
	}
	ts, _ := newService(t, runner, 1)

	var info jobs.JobInfo
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"workload": "bfs", "mode": "functional",
	}, &info); code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	var final jobs.JobInfo
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s?wait_ms=1000", ts.URL, info.ID), &final); code != http.StatusOK {
			t.Fatalf("poll = %d, want 200", code)
		}
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", final.State)
		}
	}
	if final.State != jobs.StateFailed {
		t.Fatalf("state = %q, want failed", final.State)
	}
	if !strings.Contains(final.Error, "unaligned block address") ||
		!strings.Contains(final.Error, "goroutine") {
		t.Fatalf("error %q missing panic message or stack", final.Error)
	}

	// The daemon survived: liveness, job listing and a fresh job all work.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after panic = %d, want 200", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+info.ID, nil); code != http.StatusOK {
		t.Fatalf("job fetch after panic = %d, want 200", code)
	}
	var ok jobs.JobInfo
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"workload": "sssp", "mode": "functional",
	}, &ok); code != http.StatusAccepted {
		t.Fatalf("submit after panic = %d, want 202", code)
	}
	if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s?wait_ms=10000", ts.URL, ok.ID), &final); code != http.StatusOK || final.State != jobs.StateDone {
		t.Fatalf("job after panic = %d/%q, want 200/done", code, final.State)
	}

	// And the panic is on the dashboard.
	body := scrapeMetrics(t, ts.URL)
	if !strings.Contains(body, "critloadd_job_panics_total 1") {
		t.Errorf("metrics missing recovered panic count:\n%s", grepMetrics(body, "panics"))
	}
}

// TestRequestEntityTooLarge checks that MaxBytesReader overruns map to 413
// on both body-consuming endpoints, not a generic 400.
func TestRequestEntityTooLarge(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	// Well-formed JSON either way, so the size limit — not a syntax error —
	// is what trips first.
	big := []byte(`{"workload":"` + strings.Repeat("x", 4<<20+1) + `"}`)
	for _, path := range []string{"/v1/classify", "/v1/jobs"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body = %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestRequestIDEcho checks ID generation and client passthrough.
func TestRequestIDEcho(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no request ID generated")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("inbound request ID echoed as %q, want trace-me-42", got)
	}
}

func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	return string(b)
}

// grepMetrics trims a scrape to the lines matching substr, for readable
// failure messages.
func grepMetrics(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// sampleLine matches one exposition sample: name, optional labels, value.
var sampleLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]?Inf|NaN)$`)

// validatePrometheus is the conformance check: every sample line must parse,
// and every sample's family must have been declared with # HELP and # TYPE
// before its first sample (histogram samples resolve through their
// _bucket/_sum/_count suffixes).
func validatePrometheus(t *testing.T, body string) {
	t.Helper()
	help := map[string]bool{}
	typed := map[string]string{}
	family := func(name string) (string, bool) {
		if _, ok := typed[name]; ok {
			return name, true
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base, found := strings.CutSuffix(name, suffix)
			if found && typed[base] == "histogram" {
				return base, true
			}
		}
		return "", false
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				t.Errorf("malformed HELP line %q", line)
			}
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("unknown metric type in %q", line)
			}
			typed[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable sample line %q", line)
			continue
		}
		fam, ok := family(m[1])
		if !ok {
			t.Errorf("sample %q has no # TYPE declaration", m[1])
			continue
		}
		if !help[fam] {
			t.Errorf("family %q has no # HELP line", fam)
		}
	}
}

// TestMetricsConformance exercises the API, then validates the full scrape
// and the presence of annotated latency histograms for the classify and
// jobs endpoints.
func TestMetricsConformance(t *testing.T) {
	ts, mgr := newService(t, server.SimRunner(), 2)

	// Generate traffic: one classify, one finished job, one 404.
	if code := postJSON(t, ts.URL+"/v1/classify", map[string]string{"ptx": classifySrc}, nil); code != http.StatusOK {
		t.Fatalf("classify = %d", code)
	}
	var info jobs.JobInfo
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"workload": "2mm", "mode": "functional", "size": 32, "seed": 1,
	}, &info); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := mgr.Wait(ctx, info.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+info.ID, nil)
	getJSON(t, ts.URL+"/v1/jobs/j-missing", nil)

	body := scrapeMetrics(t, ts.URL)
	validatePrometheus(t, body)

	for _, want := range []string{
		"# TYPE critloadd_jobs_submitted_total counter",
		"# TYPE critloadd_http_request_seconds histogram",
		"# TYPE critloadd_job_wall_seconds histogram",
		`critloadd_http_request_seconds_bucket{endpoint="/v1/classify",le="+Inf"} 1`,
		`critloadd_http_request_seconds_bucket{endpoint="/v1/jobs",le="+Inf"} 1`,
		`critloadd_http_request_seconds_count{endpoint="/v1/classify"} 1`,
		`critloadd_job_wall_seconds_count{mode="functional"} 1`,
		`critloadd_http_requests_total{code="404",endpoint="/v1/jobs/{id}"} 1`,
		"critloadd_executions_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q; related lines:\n%s", want,
				grepMetrics(body, strings.SplitN(want, "{", 2)[0]))
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"workload": "nope", "mode": "timing",
	}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown workload = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"workload": "bfs", "mode": "warp-speed",
	}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown mode = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"workload": "bfs", "mode": "timing", "bogus_field": 1,
	}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", code)
	}
}

func TestGetUnknownJob(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	if code := getJSON(t, ts.URL+"/v1/jobs/j-missing", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", code)
	}
}

func TestCancelJobOverHTTP(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	runner := func(ctx context.Context, spec jobs.Spec) (any, error) {
		select {
		case <-block:
			return "unreachable", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts, _ := newService(t, runner, 1)
	var info jobs.JobInfo
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"workload": "bfs", "mode": "functional",
	}, &info); code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	defer resp.Body.Close()
	var cancelled jobs.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&cancelled); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK || cancelled.State != jobs.StateCancelled {
		t.Fatalf("cancel = %d %+v, want 200 cancelled", resp.StatusCode, cancelled)
	}
}
