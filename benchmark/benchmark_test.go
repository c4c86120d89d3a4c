package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The harness resolves BENCHMARK.json, ./cmd/critloadd and benchmark/out
// from the repo root, where `go run ./benchmark` is started; tests start in
// the package directory.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 0.90, false}, {100, 0.90, true}, {999, 0.99, false}, {1000, 0.99, true},
		{19, 0.50, false}, {20, 0.50, true}, {3, 0.90, false},
	} {
		if got := supportsPercentile(c.n, c.p); got != c.want {
			t.Errorf("supportsPercentile(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = float64(i + 1)
	}
	if got := percentile(sample, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if pct, v := tailOf(sample, 0.99); pct != 99 || v != 990 {
		t.Errorf("tailOf(1000 samples, p99) = p%v %v", pct, v)
	}
	// 500 samples cannot carry a p99; the declared tail falls back to p90.
	if pct, v := tailOf(sample[:500], 0.99); pct != 90 || v != 450 {
		t.Errorf("tailOf(500 samples, p99) = p%v %v, want p90 450", pct, v)
	}
	// A workload that declares p90 never reports p99, however many samples.
	if pct, _ := tailOf(sample, 0.90); pct != 90 {
		t.Errorf("tailOf(1000 samples, p90) used p%v", pct)
	}
	if pct, v := tailOf([]float64{1, 2, 4}, 0.99); pct != 50 || v != 2 {
		t.Errorf("tailOf(3 samples) = p%v %v, want the median", pct, v)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestPromDelta(t *testing.T) {
	before := parseProm(`# HELP critloadd_executions_total Actual runs.
# TYPE critloadd_executions_total counter
critloadd_executions_total 3
critloadd_http_request_seconds_sum{endpoint="/v1/jobs/{id}"} 0.5
critloadd_http_request_seconds_count{endpoint="/v1/jobs/{id}"} 10
critloadd_queue_depth 2
`)
	after := parseProm(`critloadd_executions_total 10
critloadd_http_request_seconds_sum{endpoint="/v1/jobs/{id}"} 2.5
critloadd_http_request_seconds_count{endpoint="/v1/jobs/{id}"} 30
critloadd_http_requests_total{endpoint="/v1/jobs",code="202"} 7
not a metric line
`)
	d := after.delta(before)
	for series, want := range map[string]float64{
		"critloadd_executions_total":                                     7,
		`critloadd_http_request_seconds_sum{endpoint="/v1/jobs/{id}"}`:   2,
		`critloadd_http_request_seconds_count{endpoint="/v1/jobs/{id}"}`: 20,
		`critloadd_http_requests_total{endpoint="/v1/jobs",code="202"}`:  7, // registered on first use
	} {
		if got, ok := d[series]; !ok || got != want {
			t.Errorf("delta[%s] = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if _, ok := d["critloadd_queue_depth"]; ok {
		t.Error("a series absent from the later scrape has a delta")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "host", Start: 10, End: 90},
		{ID: 3, Parent: 2, Op: 1, Name: "launch", Start: 20, End: 40},
		{ID: 4, Parent: 2, Op: 1, Name: "launch", Start: 30, End: 60}, // overlaps span 3
		{ID: 5, Parent: 2, Op: 1, Name: "launch", Start: 80, End: 95}, // runs past its parent
		{ID: 6, Op: 2, Name: "op", Start: 100, End: 130},
		{ID: 7, Parent: 6, Op: 2, Name: "launch", Start: 100, End: 110},
		{ID: 8, Name: "probe", Start: 200, End: 205},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 80 - 40 - 10, 3: 20, 4: 30, 5: 15, 6: 20, 7: 10, 8: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	x := indexSpans(spans)
	if got := x.perOp("launch"); len(got) != 2 || got[0] != 65e-6 || got[1] != 10e-6 {
		t.Errorf("perOp(launch) = %v, want [65e-6 10e-6] ms", got)
	}
	if got := x.countPerOp("launch"); got != 2 {
		t.Errorf("countPerOp(launch) = %v, want the median of 3 and 1", got)
	}
	if got := x.durations("probe"); len(got) != 1 || got[0] != 5e-6 {
		t.Errorf("durations(probe) = %v", got)
	}
	if got := x.perOp("probe"); len(got) != 0 {
		t.Errorf("a span outside any op was counted per op: %v", got)
	}
}

// Protobuf writers for the canned profile.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbUint(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, v []byte) []byte {
	return append(pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(v))), v...)
}

// cannedProfile encodes stacks (function names innermost first, one location
// per function, each with a cpu value) the way runtime/pprof does: packed
// location ids and values, string table, gzip left out.
func cannedProfile(stacks [][]string, values []int64) []byte {
	strs := []string{""}
	fnID := map[string]uint64{}
	var fns, locs, samples []byte
	for i, stack := range stacks {
		var ids []byte
		for _, fn := range stack {
			id, ok := fnID[fn]
			if !ok {
				id = uint64(len(fnID) + 1)
				fnID[fn] = id
				strs = append(strs, fn)
				fns = pbBytes(fns, 5, pbUint(pbUint(nil, 1, id), 2, uint64(len(strs)-1)))
				locs = pbBytes(locs, 4, pbBytes(pbUint(nil, 1, id), 4, pbUint(nil, 1, id)))
			}
			ids = pbVarint(ids, id)
		}
		vals := pbVarint(pbVarint(nil, 1), uint64(values[i])) // samples/count, cpu/nanoseconds
		samples = pbBytes(samples, 2, pbBytes(pbBytes(nil, 1, ids), 2, vals))
	}
	out := append(append(samples, locs...), fns...)
	for _, s := range strs {
		out = pbBytes(out, 6, []byte(s))
	}
	return out
}

func TestProfileAttribution(t *testing.T) {
	prof := cannedProfile([][]string{
		// Innermost module frame wins over its callers.
		{"critload/internal/sm.(*SM).StepIssue", "critload/internal/gpu.(*GPU).runSerialLoop", "main.simPass"},
		// A runtime leaf that belongs to no category is skipped.
		{"runtime.memmove", "critload/internal/emu.(*Warp).Execute", "critload/internal/sm.(*SM).StepIssue"},
		// Allocation and GC are charged to the runtime, whoever asked.
		{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "critload/internal/cache.(*Cache).Access"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		// The standard library between the module and the leaf.
		{"encoding/json.(*encodeState).marshal", "critload/internal/server.writeJSON", "net/http.(*conn).serve"},
		{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "os.(*File).Sync", "critload/internal/journal.(*Journal).flushLocked"},
		{"net/http.(*conn).readRequest", "net/http.(*conn).serve"},
		{"critload/pkg/client.(*Client).attempt", "main.runJob"},
		// An internal package without a share of its own is passed over.
		{"critload/internal/experiments.RunTimingCtx", "main.simPass"},
		{"runtime.futex", "runtime.schedule"},
	}, []int64{30, 10, 10, 10, 10, 10, 5, 5, 5, 5})
	samples, err := parseProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 || samples[0].Value != 30 || samples[0].Funcs[1] != "critload/internal/gpu.(*GPU).runSerialLoop" {
		t.Fatalf("parsed %d samples, first %+v", len(samples), samples[0])
	}
	shares := attribute(samples)
	want := map[string]float64{"sm": .30, "emu": .10, "runtime_alloc": .10, "runtime_gc": .10,
		"json": .10, "syscall": .10, "nethttp": .05, "client": .05, "other": .10}
	total := 0.0
	for _, cat := range hostCPUCategories() {
		total += shares[cat]
		if math.Abs(shares[cat]-want[cat]) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", cat, shares[cat], want[cat])
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	if _, err := parseProfile([]byte{0x12, 0x7f}); err == nil {
		t.Error("a truncated profile parsed")
	}
}

func TestCompare(t *testing.T) {
	decl, err := loadDecl(declPath)
	if err != nil {
		t.Fatal(err)
	}
	set := func(scale float64, failed int, calibAfter float64) resultSet {
		s := resultSet{CalibMS: map[string][2]float64{}, Workloads: map[string]result{}}
		for _, w := range decl.Workloads {
			r := result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
			for _, m := range decl.EndToEnd {
				v := 10.0
				if m.Name == "ops_per_s" {
					v = 10 * scale // higher is better: scaling it up must not breach
				} else if m.Name == "op_p50_ms" {
					v = 10 * scale
				}
				r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
			}
			s.Workloads[w.Name] = r
			s.CalibMS[w.Name] = [2]float64{30, calibAfter}
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s resultSet) string {
		b, _ := json.Marshal(s)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", set(1, 0, 30))
	var out bytes.Buffer
	if err := compareSets(&out, decl, base, write("same.json", set(1.01, 0, 30))); err != nil {
		t.Errorf("a 1%% move breached: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareSets(&out, decl, base, write("slow.json", set(2, 0, 40))); err == nil {
		t.Error("op_p50_ms doubling passed")
	} else if n := strings.Count(out.String(), "BREACH"); n != len(decl.Workloads) {
		t.Errorf("%d breaches, want one per workload (ops_per_s doubled is an improvement):\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "noisy") {
		t.Error("a 33% calibration swing was not flagged")
	}
	if err := compareSets(&out, decl, base, write("failing.json", set(1, 1, 30))); err == nil {
		t.Error("a rise in failed ops passed")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload, untraced and traced, at tiny sizes and
// checks the output against BENCHMARK.json: every declared workload and
// metric emitted once, with a unit, within the contract's limits.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns critloadd and runs every workload")
	}
	decl, err := loadDecl(declPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]declMetric(nil), decl.EndToEnd...), decl.PerLayer...) {
		if !metricName.MatchString(m.Name) || m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("badly declared metric %+v", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	exercised := map[string]bool{}
	for _, dw := range decl.Workloads {
		w, _ := workloadByName(dw.Name)
		if dw.Why == "" || strings.Contains(dw.Why, "\n") {
			t.Errorf("%s: why must be one line", dw.Name)
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{W: w, Seed: 2, Seconds: 0.1, Trace: traced, Smoke: true,
				OutDir: outDir, Start: time.Now()}
			if !w.inProcess() {
				cfg.Seconds = 0.3
				if traced { // a p90 needs a hundred ops
					cfg.Seconds = 0.7
				}
			}
			out, err := runWorkload(ctx, cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			t.Logf("%s (traced %v): %d ops in %v", w.Name, traced, out.Attempted, time.Since(cfg.Start).Round(time.Millisecond))
			if out.Attempted < 1 || out.Failed != 0 {
				t.Errorf("%s (traced %v): %d ops, %d failed: %v", w.Name, traced, out.Attempted, out.Failed, out.Notes)
			}
			res, err := decl.resultOf(out, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s (traced %v): metric %s = %+v (present %v)", w.Name, traced, m.Name, got, ok)
				}
				if got.Value != 0 {
					exercised[m.Name] = true
				}
			}
			if traced {
				shares := 0.0
				for _, cat := range hostCPUCategories() {
					shares += res.Metrics["hostcpu."+cat+"_share"].Value
				}
				// A run too short for a single profile sample reports all zeros.
				if shares != 0 && math.Abs(shares-1) > 0.01 {
					t.Errorf("%s: hostcpu shares sum to %v", w.Name, shares)
				}
			}
		}
	}
	// Every layer metric must be live on some workload. Shares of a sampled
	// profile, and counts that are rightly 0 on a healthy smoke run, are
	// exempt.
	for _, m := range decl.PerLayer {
		exempt := strings.HasPrefix(m.Name, "hostcpu.") || m.Name == "client.retries" ||
			m.Name == "error_rate" || m.Name == "op_p99_ms" || m.Name == "heap.gc_pause_ms_per_op"
		if !exercised[m.Name] && !exempt {
			t.Errorf("per-layer metric %s is 0 on every workload", m.Name)
		}
	}
}
