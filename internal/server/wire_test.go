package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// volatileJobField matches the job-snapshot fields that vary run to run: the
// job ID and its wall-clock timestamps and durations.
var volatileJobField = regexp.MustCompile(
	`"(id|created|started|finished|queued_millis|wall_millis)": ("[^"]*"|-?[0-9]+)`)

// wireCall performs one request and renders its status and raw body as the
// golden text. job bodies have their volatile fields normalized.
func wireCall(t *testing.T, method, url, contentType, body string, job bool) string {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if job {
		out = volatileJobField.ReplaceAllString(out, `"$1": "<normalized>"`)
	}
	return resp.Status + "\n" + out
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWireGolden pins the exact bytes critloadd answers on every endpoint
// that carries a JSON body, so a change to any wire type's declaration —
// a renamed field, a dropped omitempty, reordered keys — shows up as a diff
// against testdata/wire/*.golden.
// Regenerate deliberately with: go test ./internal/server -run WireGolden -update-golden
func TestWireGolden(t *testing.T) {
	ts, _, _ := startDurableService(t, t.TempDir(), 1)
	badPTX := ".kernel broken\n    mov.u32 %r0, %r1, %r2;\n    exit;\n"

	var submitted struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"workload": "2mm", "mode": "timing", "size": 32, "seed": 1, "max_warp_insts": 20000,
	}, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}

	cases := []struct {
		name, method, path, contentType, body string
		job                                   bool
	}{
		{name: "classify_raw", method: "POST", path: "/v1/classify",
			contentType: "text/plain", body: classifySrc},
		{name: "classify_json", method: "POST", path: "/v1/classify",
			contentType: "application/json", body: mustJSON(t, map[string]string{"ptx": classifySrc})},
		{name: "classify_family", method: "POST", path: "/v1/classify",
			contentType: "application/json",
			body:        `{"family":{"name":"indirect-chase","knobs":{"depth":3,"width":2}}}`},
		{name: "classify_batch", method: "POST", path: "/v1/classify/batch",
			contentType: "application/json", body: mustJSON(t, map[string]any{
				"items": []map[string]string{{"id": "good", "ptx": classifySrc}, {"ptx": badPTX}},
			})},
		{name: "classify_batch_empty", method: "POST", path: "/v1/classify/batch",
			contentType: "application/json", body: `{"items":[]}`},
		{name: "ptx_accepted", method: "POST", path: "/v1/ptx",
			contentType: "application/json", body: mustJSON(t, map[string]string{"ptx": validPTX})},
		{name: "ptx_invalid", method: "POST", path: "/v1/ptx",
			contentType: "application/json", body: mustJSON(t, map[string]string{"ptx": badPTX})},
		{name: "workloads", method: "GET", path: "/v1/workloads"},
		{name: "healthz", method: "GET", path: "/healthz"},
		{name: "job_done", method: "GET", path: "/v1/jobs/" + submitted.ID + "?wait_ms=60000", job: true},
		{name: "job_not_found", method: "GET", path: "/v1/jobs/j99999999"},
	}
	for _, c := range cases {
		got := wireCall(t, c.method, ts.URL+c.path, c.contentType, c.body, c.job)
		path := filepath.Join("testdata", "wire", c.name+".golden")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-golden)", err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from %s:\n got:\n%s\nwant:\n%s", c.name, path, got, want)
		}
	}
}
