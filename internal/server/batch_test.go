package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"critload/internal/jobs"
	"critload/internal/server"
	"critload/pkg/api"
)

// TestClassifyBatch is the happy path: N valid kernels in, N per-item 200s
// out, in request order, with IDs echoed.
func TestClassifyBatch(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	req := map[string]any{"items": []map[string]string{
		{"id": "first", "ptx": classifySrc},
		{"id": "second", "ptx": classifySrc},
		{"ptx": classifySrc}, // anonymous: correlated by position
	}}
	var resp api.BatchResult
	if code := postJSON(t, ts.URL+"/v1/classify/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("batch = %d, want 200", code)
	}
	if resp.Succeeded != 3 || resp.Failed != 0 || len(resp.Items) != 3 {
		t.Fatalf("batch outcome = %+v, want 3 succeeded", resp)
	}
	if resp.Items[0].ID != "first" || resp.Items[1].ID != "second" || resp.Items[2].ID != "" {
		t.Errorf("ids not echoed in order: %+v", resp.Items)
	}
	for i, it := range resp.Items {
		if it.Status != http.StatusOK || it.Result == nil {
			t.Fatalf("item %d = %+v, want status 200 with result", i, it)
		}
		if len(it.Result.Kernels) != 1 || it.Result.Kernels[0].Deterministic != 1 {
			t.Errorf("item %d classification = %+v", i, it.Result.Kernels)
		}
	}
}

// TestClassifyBatchPartialFailure is the per-item-status contract: one bad
// kernel fails its slot (with the same status the single endpoint would
// give) while the rest of the batch succeeds.
func TestClassifyBatchPartialFailure(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	req := map[string]any{"items": []map[string]string{
		{"id": "good", "ptx": classifySrc},
		{"id": "junk", "ptx": "not ptx at all ;"},
		{"id": "empty", "ptx": ""},
	}}
	var resp api.BatchResult
	if code := postJSON(t, ts.URL+"/v1/classify/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("batch = %d, want 200 despite bad items", code)
	}
	if resp.Succeeded != 1 || resp.Failed != 2 {
		t.Fatalf("outcome = %d/%d, want 1 succeeded / 2 failed", resp.Succeeded, resp.Failed)
	}
	if it := resp.Items[0]; it.Status != http.StatusOK || it.Result == nil {
		t.Errorf("good item = %+v", it)
	}
	if it := resp.Items[1]; it.Status != http.StatusUnprocessableEntity || it.Error == "" || it.Result != nil {
		t.Errorf("junk item = %+v, want 422 with error", it)
	}
	if it := resp.Items[2]; it.Status != http.StatusBadRequest || it.Error == "" {
		t.Errorf("empty item = %+v, want 400 with error", it)
	}
}

// TestClassifyBatchEnvelopeErrors covers whole-request rejections: empty
// batches, oversized batches, duplicate IDs and malformed JSON are 400s.
func TestClassifyBatchEnvelopeErrors(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	if code := postJSON(t, ts.URL+"/v1/classify/batch",
		map[string]any{"items": []map[string]string{}}, nil); code != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", code)
	}
	big := make([]map[string]string, api.MaxBatchItems+1)
	for i := range big {
		big[i] = map[string]string{"ptx": classifySrc}
	}
	if code := postJSON(t, ts.URL+"/v1/classify/batch",
		map[string]any{"items": big}, nil); code != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/classify/batch", map[string]any{"items": []map[string]string{
		{"id": "dup", "ptx": classifySrc}, {"id": "dup", "ptx": classifySrc},
	}}, nil); code != http.StatusBadRequest {
		t.Errorf("duplicate ids = %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/classify/batch", "application/json",
		strings.NewReader(`{"items": [`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON = %d, want 400", resp.StatusCode)
	}
}

// TestBatchMetrics checks the critloadd_http_batch_* family counts items
// and per-item failures, and that the batch endpoint has its own route
// label.
func TestBatchMetrics(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	req := map[string]any{"items": []map[string]string{
		{"ptx": classifySrc}, {"ptx": "junk ;"}, {"ptx": classifySrc},
	}}
	if code := postJSON(t, ts.URL+"/v1/classify/batch", req, nil); code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	body := scrapeMetrics(t, ts.URL)
	validatePrometheus(t, body)
	for _, want := range []string{
		"critloadd_http_batch_items_total 3",
		"critloadd_http_batch_item_errors_total 1",
		`critloadd_http_batch_size_count 1`,
		`critloadd_http_requests_total{code="200",endpoint="/v1/classify/batch"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q; related lines:\n%s", want, grepMetrics(body, "batch"))
		}
	}
}

// TestClassifyNoContentType is the regression test for the Content-Type
// sniffing bug: a JSON body sent with no Content-Type header used to be fed
// to the PTX parser raw and die with a misleading parse error. It must be
// detected (leading '{') and classified.
func TestClassifyNoContentType(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	body := fmt.Sprintf(`{"ptx": %q}`, classifySrc)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Del("Content-Type")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("headerless JSON classify = %d, want 200", resp.StatusCode)
	}

	// Headerless raw PTX (no leading brace) still goes down the raw path.
	resp2, err := http.Post(ts.URL+"/v1/classify", "", strings.NewReader(classifySrc))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("headerless raw classify = %d, want 200", resp2.StatusCode)
	}
}

// TestClassifyContentTypeVariants pins the media-type parsing: parameters
// and +json suffixes are honoured, and an explicit non-JSON type is trusted
// even when the body happens to look like JSON.
func TestClassifyContentTypeVariants(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	jsonBody := fmt.Sprintf(`{"ptx": %q}`, classifySrc)
	for _, ct := range []string{
		"application/json",
		"application/json; charset=utf-8",
		"application/vnd.critload+json",
		"text/json",
	} {
		resp, err := http.Post(ts.URL+"/v1/classify", ct, strings.NewReader(jsonBody))
		if err != nil {
			t.Fatalf("POST (%s): %v", ct, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("classify with %q = %d, want 200", ct, resp.StatusCode)
		}
	}
	// An explicit text type means raw PTX: a JSON body under it is a parse
	// error (422), not silently re-sniffed.
	resp, err := http.Post(ts.URL+"/v1/classify", "text/plain", strings.NewReader(jsonBody))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("JSON body declared text/plain = %d, want 422", resp.StatusCode)
	}
}

// TestQueueFullRetryAfter is the regression test for push-back without
// guidance: a queue-full 429 must carry a Retry-After header so clients can
// back off correctly instead of guessing.
func TestQueueFullRetryAfter(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	runner := func(ctx context.Context, spec jobs.Spec) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	mgr, err := jobs.NewManager(jobs.Config{Workers: 1, QueueDepth: 1, Runner: runner})
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

	// Occupy the single worker, then keep submitting distinct specs until
	// the 1-deep pool queue overflows into a 429. The first submission may
	// still be queued when the second arrives, so allow a couple of rounds.
	var overflow *http.Response
	for i := 0; i < 10 && overflow == nil; i++ {
		body, _ := json.Marshal(map[string]any{"workload": "bfs", "mode": "functional", "seed": i})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			overflow = resp
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202 or 429", i, resp.StatusCode)
		}
	}
	if overflow == nil {
		t.Fatal("never saw a queue-full 429")
	}
	if ra := overflow.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 carried no Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 0 {
		t.Fatalf("Retry-After %q is not a non-negative integer", ra)
	}
}
