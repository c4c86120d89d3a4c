package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"critload/internal/families"
	"critload/internal/jobs"
	"critload/internal/ptx"
	"critload/internal/workloads"
	"critload/pkg/api"
)

// stdEncode is the oracle of the hand encoder: what the pooled json.Encoder
// the daemon used to answer with writes for v.
func stdEncode(v any) (string, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.String(), err
}

// sameWire reports whether got and gotErr are what encoding/json gives for
// v: the same bytes, or an error with the same text.
func sameWire(t testing.TB, name string, got []byte, gotErr error, v any) bool {
	t.Helper()
	want, wantErr := stdEncode(v)
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, encoding/json's %v", name, gotErr, wantErr)
			return false
		}
	case string(got) != want:
		t.Errorf("%s: bytes differ from encoding/json's\n got: %q\nwant: %q", name, got, want)
		return false
	}
	return true
}

type tableIProgram struct{ name, src string }

// tableIPrograms returns the Table I programs as PTX text.
func tableIPrograms(t testing.TB) []tableIProgram {
	t.Helper()
	var out []tableIProgram
	for _, w := range workloads.All() {
		prog, err := w.Program()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var src strings.Builder
		for _, k := range prog.Kernels {
			src.WriteString(k.Disassemble())
		}
		out = append(out, tableIProgram{w.Name, src.String()})
	}
	if len(out) != 15 {
		t.Fatalf("%d Table I programs, want 15", len(out))
	}
	return out
}

func mustPTXResult(t testing.TB, src string) api.PTXResult {
	t.Helper()
	prog, err := ptx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return ptxResult(src, prog)
}

// TestWireEncodeClassifyAndPTX compares the classify and /v1/ptx responses
// of the 15 Table I programs and the five families, and hand-built edge
// values, with encoding/json's.
func TestWireEncodeClassifyAndPTX(t *testing.T) {
	for _, p := range tableIPrograms(t) {
		res, _, err := classifySource(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		sameWire(t, p.name+"/classify", appendClassify(nil, res), nil, res)
		pr := mustPTXResult(t, p.src)
		sameWire(t, p.name+"/ptx", appendPTX(nil, &pr), nil, pr)
	}
	for _, f := range families.List() {
		res, _, err := classifyFamily(&families.Spec{Name: f.Name})
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		sameWire(t, "family/"+f.Name, appendClassify(nil, res), nil, res)
	}

	odd := "<a&b> \"q\" \\ \b\f\n\r\t \x00\x1f\x7f \xe2\x80\xa8\xe2\x80\xa9 \xff\xfe \xe2\x80 \xc3\xa9"
	classify := []api.ClassifyResult{
		{},
		{Kernels: []api.Kernel{}},
		{Kernels: []api.Kernel{{Name: odd, Deterministic: -1}, {Loads: []api.Load{}}}},
		{Kernels: []api.Kernel{{Loads: []api.Load{
			{PC: odd, Inst: odd, Class: odd},
			{Roots: []api.Root{}},
			{Roots: []api.Root{{}, {Kind: odd, Name: odd}, {Name: "x"}}},
		}}}},
	}
	for i, c := range classify {
		sameWire(t, "classify/edge"+string(rune('0'+i)), appendClassify(nil, &c), nil, c)
	}
	ptxs := []api.PTXResult{
		{},
		{SHA256: odd, Kernels: []api.PTXKernel{}},
		{Kernels: []api.PTXKernel{{Name: odd, SharedBytes: -4, Registers: 1 << 40}, {SharedBytes: 4096, Loads: []api.Load{{}}}}},
	}
	for i, p := range ptxs {
		sameWire(t, "ptx/edge"+string(rune('0'+i)), appendPTX(nil, &p), nil, p)
	}
}

// batchItems is a 16-item batch of Table I sources with failing items mixed
// in: empty and blank sources (400) and sources the parser rejects (422).
func batchItems(progs []tableIProgram) []api.BatchItem {
	items := make([]api.BatchItem, 16)
	for i := range items {
		items[i] = api.BatchItem{PTX: progs[i%len(progs)].src}
		if i%3 == 0 {
			items[i].ID = progs[i%len(progs)].name + "<&>"
		}
	}
	items[2].PTX = ""
	items[5].PTX = " \n\t"
	items[7].PTX = ".kernel broken\n    mov.u32 %r0, %r1, %r2;\n    exit;\n"
	items[11].PTX = "junk \xff <&> \x01"
	return items
}

func TestWireEncodeBatch(t *testing.T) {
	resp := classifyBatch(batchItems(tableIPrograms(t)))
	if resp.Failed != 4 || resp.Succeeded != 12 {
		t.Fatalf("batch: %d failed, %d succeeded; want 4 and 12", resp.Failed, resp.Succeeded)
	}
	sameWire(t, "batch", appendBatch(nil, &resp), nil, resp)
	for i, r := range []api.BatchResult{
		{},
		{Items: []api.BatchItemResult{}},
		{Items: []api.BatchItemResult{{Result: &api.ClassifyResult{}}, {ID: "\x00", Status: -1, Error: "\xff"}}, Failed: -3},
	} {
		sameWire(t, "batch/edge"+string(rune('0'+i)), appendBatch(nil, &r), nil, r)
	}
}

var wireT0 = time.Date(2024, 5, 1, 12, 0, 0, 123456789, time.UTC)

// jobStates returns one snapshot per job state the API can serve.
func jobStates() map[string]jobs.JobInfo {
	spec := jobs.Spec{Workload: "2mm", Mode: jobs.ModeTiming, Size: 32, Seed: 1, MaxWarpInsts: 20000}
	base := jobs.JobInfo{ID: "j00000007", Spec: spec, Key: spec.Key().String(), Created: wireT0}
	// A result is json.Marshal output, as the manager stores it: the HTML
	// specials and U+2028 in it arrive escaped, and the wire must keep them so.
	result, err := json.Marshal(map[string]any{
		"workload": "2mm", "mode": "timing", "cycles": 7855,
		"counters": map[string]any{"a<b": 1, "c": []int{}},
		"summary":  map[string]any{"x": struct{}{}, "y": []any{1, -2.5e-3, 1e21, 1e-7, true, false, nil, "&\u2028"}},
	})
	if err != nil {
		panic(err)
	}

	out := map[string]jobs.JobInfo{}
	queued := base
	queued.State = jobs.StateQueued
	out["queued"] = queued

	running := base
	running.State = jobs.StateRunning
	running.Started = wireT0.Add(time.Millisecond)
	running.QueuedMillis = 1
	running.Progress = &jobs.Progress{Cycles: 4096, WarpInsts: 512, CyclesPerSec: 2.5e6, Updated: wireT0.Add(2 * time.Millisecond)}
	out["running"] = running

	heartbeatless := running
	heartbeatless.Progress = nil
	out["running-no-progress"] = heartbeatless

	done := base
	done.State = jobs.StateDone
	done.Started, done.Finished = wireT0.Add(time.Millisecond), wireT0.Add(9*time.Millisecond)
	done.QueuedMillis, done.WallMillis = 1, 8
	done.Result = result
	out["done"] = done

	hit := done
	hit.CacheHit = true
	out["cache-hit"] = hit

	recovered := done
	recovered.Recovered = true
	out["recovered"] = recovered

	failed := base
	failed.State = jobs.StateFailed
	failed.Error = "runner: <boom> & \"quoted\"\n"
	failed.Started, failed.Finished = wireT0, wireT0.Add(time.Millisecond)
	out["failed"] = failed

	cancelled := base
	cancelled.State = jobs.StateCancelled
	cancelled.Error = context.Canceled.Error()
	cancelled.Finished = wireT0.Add(time.Second)
	out["cancelled"] = cancelled
	return out
}

func sameJob(t testing.TB, name string, info jobs.JobInfo) {
	t.Helper()
	got, err := appendJob(nil, &info)
	sameWire(t, name, got, err, info)
}

// TestWireEncodeJobs compares job snapshots in every state, every
// combination of the spec's and the snapshot's omitempty members, and jobs a
// real manager ran, with encoding/json's.
func TestWireEncodeJobs(t *testing.T) {
	states := jobStates()
	for name, info := range states {
		sameJob(t, name, info)
	}

	done := states["done"]
	for mask := 0; mask < 1<<6; mask++ {
		info := done
		info.Spec = jobs.Spec{Workload: "bfs", Mode: jobs.ModeFunctional}
		s := &info.Spec
		if mask&1 != 0 {
			s.Size = -5
		}
		if mask&2 != 0 {
			s.Seed = math.MinInt64
		}
		if mask&4 != 0 {
			s.MaxWarpInsts = math.MaxUint64
		}
		if mask&8 != 0 {
			s.MaxCycles = 7
		}
		if mask&16 != 0 {
			s.Timeout = 1500 * time.Millisecond
		}
		if mask&32 != 0 {
			s.ReuseCheckpoints = true
		}
		sameJob(t, "spec-omitempty", info)
	}
	for mask := 0; mask < 1<<5; mask++ {
		info := done
		info.Error, info.CacheHit, info.Progress, info.Recovered, info.Result = "", false, nil, false, nil
		if mask&1 != 0 {
			info.Error = "e"
		}
		if mask&2 != 0 {
			info.CacheHit = true
		}
		if mask&4 != 0 {
			info.Progress = &jobs.Progress{}
		}
		if mask&8 != 0 {
			info.Recovered = true
		}
		if mask&16 != 0 {
			info.Result = json.RawMessage(`null`)
		}
		sameJob(t, "job-omitempty", info)
	}
	empty := done
	empty.Result = json.RawMessage{}
	sameJob(t, "empty-result", empty)
	sameJob(t, "zero", jobs.JobInfo{})

	// Snapshots a manager takes: local-zone times with monotonic readings,
	// and result bytes the manager encoded.
	mgr, err := jobs.NewManager(jobs.Config{Workers: 1, Runner: func(ctx context.Context, spec jobs.Spec) (any, error) {
		jobs.ReportProgress(ctx, 100, 10)
		return map[string]any{"workload": spec.Workload, "note": "<&>\xe2\x80\xa8", "n": []float64{1e21, 1e-7, 0.5}}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close(context.Background())
	spec := jobs.Spec{Workload: "bfs", Mode: jobs.ModeFunctional, Seed: 3}
	for i := 0; i < 2; i++ {
		info, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		sameJob(t, "manager-submit", info)
		if info, err = mgr.Wait(context.Background(), info.ID); err != nil || info.State != jobs.StateDone {
			t.Fatalf("wait: %v %s", err, info.State)
		}
		if i == 1 && !info.CacheHit {
			t.Fatal("second submit was not a cache hit")
		}
		sameJob(t, "manager-done", info)
	}
}

// TestWireEncodeTimes compares RFC 3339 timestamps, including the ones
// encoding/json refuses, with encoding/json's. TestWireGolden normalizes
// every job timestamp, so this is the only check of their format.
func TestWireEncodeTimes(t *testing.T) {
	date := func(year int, nsec int, loc *time.Location) time.Time {
		return time.Date(year, 7, 4, 23, 59, 58, nsec, loc)
	}
	utc := time.UTC
	times := map[string]time.Time{
		"nanosecond":       date(2024, 123456789, utc),
		"trailing-zeros":   date(2024, 120000000, utc),
		"millisecond":      date(2024, 5000000, utc),
		"100ns":            date(2024, 100, utc),
		"whole-second":     date(2024, 0, utc),
		"zero":             {},
		"unix-epoch":       time.Unix(0, 0),
		"east-offset":      date(2024, 1, time.FixedZone("IST", 5*3600+30*60)),
		"west-offset":      date(1999, 0, time.FixedZone("", -8*3600)),
		"seconds-offset":   date(2024, 0, time.FixedZone("", 3600+17)),
		"23h59-offset":     date(2024, 0, time.FixedZone("", 23*3600+59*60)),
		"24h-offset":       date(2024, 0, time.FixedZone("", 24*3600)),
		"-24h-offset":      date(2024, 0, time.FixedZone("", -24*3600)),
		"100h-offset":      date(2024, 0, time.FixedZone("", 100*3600)),
		"year-0":           date(0, 0, utc),
		"year-9999":        time.Date(9999, 12, 31, 23, 59, 59, 999999999, utc),
		"year-10000":       date(10000, 0, utc),
		"year-minus-1":     date(-1, 0, utc),
		"year-9999-rolled": time.Date(9999, 12, 31, 23, 0, 0, 0, utc).In(time.FixedZone("", 2*3600)),
		"monotonic":        time.Now(),
	}
	for name, tm := range times {
		info := jobStates()["running"]
		info.Created = tm
		sameJob(t, name+"/created", info)
		info = jobStates()["running"]
		info.Finished = tm
		sameJob(t, name+"/finished", info)
		info = jobStates()["running"]
		info.Progress.Updated = tm
		sameJob(t, name+"/progress", info)
	}
}

// TestWireEncodeRates compares the heartbeat's float rate, in both of
// encoding/json's notations and at the values it refuses.
func TestWireEncodeRates(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 2.5e6, 123456.789, 1e20, 999999999999999999999, 1e21, 1.5e300,
		math.MaxFloat64, 1e-6, 9.99e-7, 1e-7, 1.5e-9, -1e-9, 5e-324, math.SmallestNonzeroFloat64 * 3,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		info := jobStates()["running"]
		info.Progress.CyclesPerSec = f
		sameJob(t, "rate "+strconv.FormatFloat(f, 'g', -1, 64), info)
	}
}

// TestWireEncodeResults compares the result splice with encoding/json on
// result bytes. A valid result is fed as the manager stores it, through
// json.Marshal; bytes encoding/json refuses are fed as they are.
func TestWireEncodeResults(t *testing.T) {
	for _, raw := range []string{
		`{}`, `[]`, `0`, `-0`, `1.5e+10`, `-2E-3`, `0.001`, `"s"`, `true`, `false`, `null`,
		" \t\r\n{ \"a\" : [ 1 , 2 , { } , [ ] , \"<&>\" ] , \"b\" : { \"c\" : null } } \n",
		`{"a":{"b":{"c":[[],[{}],[[1]]]}},"d":[]}`,
		"[\"\xe2\x80\xa8\xe2\x80\xa9\",\"\xff\xfe\",\"\xe2\x80\",\"\x7f\",\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\\uD83D\"]",
		`{"<":">","&":"&&"}`,
	} {
		stored, err := json.Marshal(json.RawMessage(raw))
		if err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		sameResult(t, raw, stored)
	}
	// Invalid: encoding/json refuses every one. The last nests one level
	// past the scanner's limit, and json.Indent writes about 100 MB of
	// indentation before it fails.
	for _, raw := range []string{
		``, ` `, `{`, `}`, `[1,]`, `{"a":1,}`, `{"a" 1}`, `{1:2}`, `[1 2]`, `01`, `-`, `1.`, `1e`, `1e+`, `.5`,
		`+1`, `tru`, `nul`, `falsey`, `"abc`, "\"a\x01\"", `"\x"`, `"\u12G4"`, `"\u12"`, `1 2`, `{}}`, `[]]`,
		`{"a":1]`, `[1}`, `<`, "\"\\", "\xe2\x80\xa8",
		strings.Repeat("[", 10001) + "1" + strings.Repeat("]", 10001),
	} {
		sameResult(t, raw, []byte(raw))
	}
}

func sameResult(t *testing.T, raw string, result []byte) {
	t.Helper()
	info := jobStates()["done"]
	info.Result = result
	if len(raw) > 40 {
		raw = raw[:40]
	}
	sameJob(t, "result "+strconv.Quote(raw), info)
}

// TestWriteWireEncodesBeforeStatus pins the failure rule: a value that
// cannot be encoded answers 500 with an api.Error body, never a success
// status over an empty body, on the hand-encoded and the cold path alike.
func TestWriteWireEncodesBeforeStatus(t *testing.T) {
	running := jobStates()["running"]
	running.Progress.CyclesPerSec = math.Inf(1)
	for name, write := range map[string]func(http.ResponseWriter){
		"job":  func(w http.ResponseWriter) { writeJob(w, http.StatusAccepted, &running) },
		"cold": func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, map[string]float64{"rate": math.Inf(1)}) },
	} {
		rec := httptest.NewRecorder()
		write(rec)
		var body api.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: body %q: %v", name, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" ||
			!strings.Contains(body.Message, "json: unsupported value: +Inf") {
			t.Errorf("%s: %d %q %+v; want a 500 api.Error naming +Inf", name, rec.Code, rec.Header().Get("Content-Type"), body)
		}
	}
	rec := httptest.NewRecorder()
	done := jobStates()["done"]
	writeJob(rec, http.StatusAccepted, &done)
	want, _ := stdEncode(done)
	if rec.Code != http.StatusAccepted || rec.Body.String() != want {
		t.Errorf("encodable job: %d %q", rec.Code, rec.Body.String())
	}
}

// wireCases returns one warm value of each hand-encoded type, as the
// benchmarks and the allocation pin use them: a Table I classify response,
// a 16-item batch, a Table I /v1/ptx response and a done job whose result
// is a timing run's.
func wireCases(t testing.TB) map[string]func([]byte) ([]byte, any, error) {
	progs := tableIPrograms(t)
	classify, _, err := classifySource(progs[0].src)
	if err != nil {
		t.Fatal(err)
	}
	batch := classifyBatch(batchItems(progs))
	ptxRes := mustPTXResult(t, progs[0].src)
	result, err := json.Marshal(&RunResult{Workload: "2mm", Mode: jobs.ModeTiming, Cycles: 7855})
	if err != nil {
		t.Fatal(err)
	}
	job := jobStates()["done"]
	job.Result = result
	return map[string]func([]byte) ([]byte, any, error){
		"classify": func(b []byte) ([]byte, any, error) { return appendClassify(b, classify), classify, nil },
		"batch":    func(b []byte) ([]byte, any, error) { return appendBatch(b, &batch), &batch, nil },
		"ptx":      func(b []byte) ([]byte, any, error) { return appendPTX(b, &ptxRes), &ptxRes, nil },
		"job": func(b []byte) ([]byte, any, error) {
			b, err := appendJob(b, &job)
			return b, &job, err
		},
	}
}

// TestWireEncodeAllocs pins a warm hand encode of each type at zero
// allocations: everything is appended to the caller's buffer.
func TestWireEncodeAllocs(t *testing.T) {
	for name, enc := range wireCases(t) {
		buf, v, err := enc(nil)
		if !sameWire(t, name, buf, err, v) {
			continue
		}
		if n := testing.AllocsPerRun(50, func() { buf, _, _ = enc(buf[:0]) }); n != 0 {
			t.Errorf("%s: %.1f allocations per warm encode, want 0", name, n)
		}
	}
}

// BenchmarkWireEncode is the encode layer's own row: each hot response
// through the hand encoder and through the json.Encoder it replaced.
func BenchmarkWireEncode(b *testing.B) {
	for _, name := range []string{"classify", "batch", "ptx", "job"} {
		enc := wireCases(b)[name]
		buf, v, _ := enc(nil)
		b.Run(name+"/hand", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				buf, _, _ = enc(buf[:0])
			}
		})
		b.Run(name+"/encoding_json", func(b *testing.B) {
			var out bytes.Buffer
			e := json.NewEncoder(&out)
			e.SetIndent("", "  ")
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				out.Reset()
				if err := e.Encode(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
