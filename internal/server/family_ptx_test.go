package server_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"critload/internal/ptx"
	"critload/internal/server"
	"critload/pkg/api"
)

// TestClassifyFamilySpec classifies a family spec and checks the result
// against the family's by-construction ground truth.
func TestClassifyFamilySpec(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	var resp api.ClassifyResult
	body := map[string]any{
		"family": map[string]any{
			"name":  "indirect-chase",
			"knobs": map[string]int{"depth": 3, "width": 2, "size": 128},
		},
	}
	if code := postJSON(t, ts.URL+"/v1/classify", body, &resp); code != http.StatusOK {
		t.Fatalf("classify family = %d, want 200", code)
	}
	if len(resp.Kernels) != 1 {
		t.Fatalf("kernels = %d, want 1", len(resp.Kernels))
	}
	k := resp.Kernels[0]
	// Ground truth for indirect-chase: 1 D root, width×depth N chase loads.
	if k.Deterministic != 1 || k.NonDeterministic != 6 {
		t.Errorf("D=%d N=%d, ground truth D=1 N=6", k.Deterministic, k.NonDeterministic)
	}
	if !strings.HasPrefix(k.Name, "fam_indirect_chase_") {
		t.Errorf("kernel name %q, want fam_indirect_chase_*", k.Name)
	}
}

// TestClassifyFamilyErrors pins the 400s for bad family specs and the
// ptx/family exclusivity rule.
func TestClassifyFamilyErrors(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	cases := []struct {
		name string
		body map[string]any
		want string
	}{
		{"unknown family", map[string]any{"family": map[string]any{"name": "nope"}}, "unknown family"},
		{"bad knob", map[string]any{"family": map[string]any{
			"name": "stream", "knobs": map[string]int{"loads": 99}}}, "out of range"},
		{"both ptx and family", map[string]any{
			"ptx":    ".kernel k\n    exit;\n",
			"family": map[string]any{"name": "stream"}}, "mutually exclusive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var e struct {
				Error string `json:"error"`
			}
			if code := postJSON(t, ts.URL+"/v1/classify", c.body, &e); code != http.StatusBadRequest {
				t.Fatalf("code = %d, want 400", code)
			}
			if !strings.Contains(e.Error, c.want) {
				t.Errorf("error %q, want substring %q", e.Error, c.want)
			}
		})
	}
}

// TestPTXRejectsBadParamOffset pins that an ld.param outside the parameter
// space fails at parse time, before anything is journaled or run.
func TestPTXRejectsBadParamOffset(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	for _, off := range []string{"p+2", "p+4096"} {
		src := ".kernel k\n.param .u32 p\n    ld.param.u32 %r0, [" + off + "];\n    exit;\n"
		for _, path := range []string{"/v1/ptx", "/v1/classify"} {
			var e api.Error
			if code := postJSON(t, ts.URL+path, map[string]string{"ptx": src}, &e); code != http.StatusUnprocessableEntity {
				t.Errorf("%s [%s] = %d, want 422", path, off, code)
			}
			msg := fmt.Sprint(e.Message, e.Diagnostics)
			if !strings.Contains(msg, "ld.param") {
				t.Errorf("%s [%s] answer %q does not name the ld.param", path, off, msg)
			}
		}
	}
}

// TestPTXRejectsRegisterBeyondCap pins that one over-cap register index
// answers 422 with a diagnostic on its line, before any register file is
// sized by it.
func TestPTXRejectsRegisterBeyondCap(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	src := ".kernel k\n    mov.u32 %r100000000, 1;\n    exit;\n"
	var e api.Error
	if code := postJSON(t, ts.URL+"/v1/ptx", map[string]string{"ptx": src}, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("code = %d, want 422", code)
	}
	if len(e.Diagnostics) != 1 || e.Diagnostics[0].Line != 2 || !strings.Contains(e.Diagnostics[0].Message, "cap") {
		t.Errorf("diagnostics %+v, want one on line 2 naming the cap", e.Diagnostics)
	}
}

// TestPTXRejectsParamsBeyondCap pins that the parameter past ptx.MaxParams
// answers 422 on both PTX endpoints, naming its line and the cap.
func TestPTXRejectsParamsBeyondCap(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	var b strings.Builder
	b.WriteString(".kernel k\n")
	for i := 0; i <= ptx.MaxParams; i++ {
		fmt.Fprintf(&b, ".param .u32 p%d\n", i)
	}
	b.WriteString("    exit;\n")
	for _, path := range []string{"/v1/ptx", "/v1/classify"} {
		var e api.Error
		if code := postJSON(t, ts.URL+path, map[string]string{"ptx": b.String()}, &e); code != http.StatusUnprocessableEntity {
			t.Fatalf("%s = %d, want 422", path, code)
		}
		msg := fmt.Sprint(e.Message, e.Diagnostics)
		if !strings.Contains(msg, fmt.Sprint(ptx.MaxParams+2)) || !strings.Contains(msg, "cap") {
			t.Errorf("%s answer %q does not name line %d and the cap", path, msg, ptx.MaxParams+2)
		}
	}
}

// TestSubmitFamilyJob submits a family job and checks it resolves to the
// canonical workload name, runs, and dedupes against an equivalent spec.
func TestSubmitFamilyJob(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)
	submit := func(body map[string]any) (int, map[string]any) {
		var info map[string]any
		code := postJSON(t, ts.URL+"/v1/jobs", body, &info)
		return code, info
	}
	code, info := submit(map[string]any{
		"family": map[string]any{
			"name":  "stream",
			"knobs": map[string]int{"size": 128, "ctas": 2, "block": 32},
		},
		"mode": "functional",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%v), want 202", code, info)
	}
	spec, _ := info["spec"].(map[string]any)
	wl, _ := spec["workload"].(string)
	want := "family:stream?block=32&ctas=2&loads=4&seed=1&size=128&stride=1&trips=1"
	if wl != want {
		t.Fatalf("job workload = %q, want canonical %q", wl, want)
	}
	id, _ := info["id"].(string)
	var done map[string]any
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"?wait_ms=30000", &done); code != http.StatusOK {
		t.Fatalf("wait = %d", code)
	}
	if state, _ := done["state"].(string); state != "done" {
		t.Fatalf("job state = %q (%v), want done", state, done)
	}
	result, _ := done["result"].(map[string]any)
	summary, _ := result["summary"].(map[string]any)
	glw, _ := summary["global_load_warps"].(map[string]any)
	// stream at loads=4 is all-deterministic by construction: 4 loads ×
	// 2 warps (2 CTAs × 32 threads) = 8 D warps, 0 N.
	if det, _ := glw["deterministic"].(float64); det != 8 {
		t.Errorf("deterministic load warps = %v, want 8", glw["deterministic"])
	}
	if nondet, _ := glw["non_deterministic"].(float64); nondet != 0 {
		t.Errorf("non-deterministic load warps = %v, want 0", glw["non_deterministic"])
	}

	// The same instance written differently (knob order, explicit defaults)
	// must canonicalize to the same workload and hit the result cache.
	code, info2 := submit(map[string]any{
		"family": map[string]any{
			"name":  "stream",
			"knobs": map[string]int{"block": 32, "loads": 4, "ctas": 2, "size": 128},
		},
		"mode": "functional",
	})
	if code != http.StatusAccepted {
		t.Fatalf("resubmit = %d, want 202", code)
	}
	spec2, _ := info2["spec"].(map[string]any)
	if wl2, _ := spec2["workload"].(string); wl2 != want {
		t.Errorf("equivalent spec resolved to %q, want %q", wl2, want)
	}

	// Exclusivity and validation errors.
	if code, _ := submit(map[string]any{
		"workload": "2mm",
		"family":   map[string]any{"name": "stream"},
		"mode":     "functional",
	}); code != http.StatusBadRequest {
		t.Errorf("workload+family = %d, want 400", code)
	}
	if code, _ := submit(map[string]any{
		"family": map[string]any{"name": "stream", "knobs": map[string]int{"size": 100}},
		"mode":   "functional",
	}); code != http.StatusBadRequest {
		t.Errorf("bad knob = %d, want 400", code)
	}
}

const validPTX = `
.kernel probe
.param .u32 in
.param .u32 idx
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    ld.param.u32 %r3, [idx];
    shl.u32      %r4, %r2, 2;
    add.u32      %r5, %r3, %r4;
    ld.global.u32 %r6, [%r5];
    ld.param.u32 %r7, [in];
    shl.u32      %r8, %r6, 2;
    add.u32      %r9, %r7, %r8;
    ld.global.u32 %r10, [%r9];
    exit;
`

// TestPTXSubmit drives POST /v1/ptx: a valid kernel is accepted with its
// classification and digest; a malformed one answers 422 with a
// line-attributed diagnostic; both outcomes are counted on /metrics.
func TestPTXSubmit(t *testing.T) {
	ts, _ := newService(t, server.SimRunner(), 1)

	var resp api.PTXResult
	if code := postJSON(t, ts.URL+"/v1/ptx", map[string]string{"ptx": validPTX}, &resp); code != http.StatusOK {
		t.Fatalf("ptx submit = %d, want 200", code)
	}
	if len(resp.SHA256) != 64 {
		t.Errorf("sha256 = %q, want 64 hex chars", resp.SHA256)
	}
	if len(resp.Kernels) != 1 {
		t.Fatalf("kernels = %d, want 1", len(resp.Kernels))
	}
	k := resp.Kernels[0]
	if k.Name != "probe" || k.Registers != 11 || k.Instructions != 12 {
		t.Errorf("kernel = %+v, want probe with 11 regs / 12 insts", k)
	}
	// The gtid-indexed load is D; the load through the loaded index is N.
	if k.Deterministic != 1 || k.NonDeterministic != 1 {
		t.Errorf("D=%d N=%d, want D=1 N=1", k.Deterministic, k.NonDeterministic)
	}

	// Raw text body, no JSON envelope.
	r, err := http.Post(ts.URL+"/v1/ptx", "text/plain", strings.NewReader(validPTX))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("raw text submit = %d, want 200", r.StatusCode)
	}

	// Malformed source: 422 with a line-attributed diagnostic.
	var fail api.Error
	bad := ".kernel broken\n    mov.u32 %r0, %r1, %r2;\n    exit;\n"
	if code := postJSON(t, ts.URL+"/v1/ptx", map[string]string{"ptx": bad}, &fail); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad ptx = %d, want 422", code)
	}
	if len(fail.Diagnostics) == 0 {
		t.Fatal("422 carried no diagnostics")
	}
	if fail.Diagnostics[0].Line != 2 {
		t.Errorf("diagnostic line = %d, want 2", fail.Diagnostics[0].Line)
	}
	if fail.Diagnostics[0].Message == "" {
		t.Error("diagnostic has no message")
	}

	// Empty body: 400, not 422.
	var e struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/v1/ptx", map[string]string{"ptx": "  "}, &e); code != http.StatusBadRequest {
		t.Errorf("empty ptx = %d, want 400", code)
	}

	// Outcome counters and the derived endpoint label on /metrics.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	b, _ := io.ReadAll(mr.Body)
	text := string(b)
	for _, want := range []string{
		`critloadd_ptx_submissions_total{outcome="accepted"} 2`,
		`critloadd_ptx_submissions_total{outcome="rejected"} 2`,
		`endpoint="/v1/ptx"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
