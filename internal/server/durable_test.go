package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"critload/internal/jobs"
	"critload/internal/journal"
	"critload/internal/server"
	"critload/internal/workloads"
	"critload/pkg/api"
)

// startDurableService is newService with the durable job tier enabled on
// dir: a fsync'd write-ahead journal under dir/journal and the on-disk
// result store under dir/results. The returned shutdown is idempotent and
// also registered as a cleanup, so restart tests can stop the first
// incarnation explicitly and start a second one over the same dir.
func startDurableService(t *testing.T, dir string, workers int) (*httptest.Server, *jobs.Manager, func()) {
	t.Helper()
	results, err := jobs.OpenResultStore(filepath.Join(dir, "results"), 0)
	if err != nil {
		t.Fatalf("OpenResultStore: %v", err)
	}
	mgr, err := jobs.NewManager(jobs.Config{
		Workers:    workers,
		Runner:     server.SimRunner(),
		JournalDir: filepath.Join(dir, "journal"),
		Results:    results,
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	ts := httptest.NewServer(server.New(mgr))
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			mgr.Close(ctx)
		})
	}
	t.Cleanup(shutdown)
	return ts, mgr, shutdown
}

// TestHealthzRecoveryBlock pins the /healthz contract for both tiers: a
// plain in-memory service reports status only (no recovery key, so old
// scrapers see the same shape they always did), while a durable service
// attaches the journal replay summary.
func TestHealthzRecoveryBlock(t *testing.T) {
	plain, _ := newService(t, server.SimRunner(), 1)
	var loose map[string]json.RawMessage
	if code := getJSON(t, plain.URL+"/healthz", &loose); code != http.StatusOK {
		t.Fatalf("plain healthz = %d, want 200", code)
	}
	if _, ok := loose["recovery"]; ok {
		t.Fatalf("in-memory service leaked a recovery block: %v", loose)
	}

	durable, _, _ := startDurableService(t, t.TempDir(), 1)
	var health api.Health
	if code := getJSON(t, durable.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("durable healthz = %d, want 200", code)
	}
	if health.Status != "ok" {
		t.Fatalf("status = %q, want ok", health.Status)
	}
	if health.Recovery == nil || !health.Recovery.Enabled {
		t.Fatalf("durable service healthz missing recovery block: %+v", health)
	}
	if health.Recovery.Jobs != 0 || health.Recovery.Unrecoverable != 0 {
		t.Fatalf("fresh data dir replayed jobs: %+v", *health.Recovery)
	}
}

// TestDurableMetricsFamilies proves the journal and result-store counters
// reach /metrics with real fsyncs behind them: one executed job must have
// appended and synced journal records and persisted one result.
func TestDurableMetricsFamilies(t *testing.T) {
	ts, _, _ := startDurableService(t, t.TempDir(), 2)
	runJob(t, ts, map[string]any{"workload": "bfs", "mode": "functional", "size": 64, "seed": 1})

	text := scrapeMetrics(t, ts.URL)
	for metric, wantPositive := range map[string]bool{
		"critloadd_journal_appends_total":   true,
		"critloadd_journal_syncs_total":     true,
		"critloadd_journal_rotations_total": false,
		// Startup replay always ends in a compaction, even over an empty
		// journal, so a fresh durable service reports exactly one.
		"critloadd_journal_compactions_total":            true,
		"critloadd_journal_replay_truncated_bytes_total": false,
		"critloadd_journal_errors_total":                 false,
		"critloadd_journal_segments":                     true,
		"critloadd_journal_disk_bytes":                   true,
		"critloadd_jobs_recovered_total":                 false,
		"critloadd_resultstore_puts_total":               true,
		"critloadd_resultstore_hits_total":               false,
		"critloadd_resultstore_disk_hits_total":          false,
		// A never-seen spec probes the disk store before executing, so the
		// one submission records one miss.
		"critloadd_resultstore_misses_total":    true,
		"critloadd_resultstore_evictions_total": false,
		"critloadd_resultstore_dropped_total":   false,
		"critloadd_resultstore_files":           true,
		"critloadd_resultstore_disk_bytes":      true,
	} {
		v, ok := metricValue(text, metric)
		if !ok {
			t.Errorf("metrics output missing %s:\n%s", metric, grepMetrics(text, "critloadd_"))
			continue
		}
		if wantPositive && v <= 0 {
			t.Errorf("%s = %v, want > 0", metric, v)
		}
		if !wantPositive && v != 0 {
			t.Errorf("%s = %v, want 0 on a fresh durable service", metric, v)
		}
	}
}

// TestDurableRestartServesHistory is the HTTP-level recovery smoke: a job
// run before a clean shutdown must still be retrievable — same ID, done
// state, identical result bytes, and flagged recovered — from a second
// daemon incarnation on the same data dir, without re-executing anything.
func TestDurableRestartServesHistory(t *testing.T) {
	dir := t.TempDir()
	ts1, _, shutdown := startDurableService(t, dir, 1)

	body := map[string]any{"workload": "mis", "mode": "functional", "size": 64, "seed": 9}
	var submitted jobs.JobInfo
	if code := postJSON(t, ts1.URL+"/v1/jobs", body, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	first := pollDone(t, ts1, submitted.ID)
	shutdown()

	ts2, mgr2, _ := startDurableService(t, dir, 1)
	rec := mgr2.Recovery()
	if rec.Jobs != 1 || rec.Unrecoverable != 0 {
		t.Fatalf("recovery = %+v, want 1 job, 0 unrecoverable", rec)
	}
	second := pollDone(t, ts2, submitted.ID)
	if !second.Recovered {
		t.Fatalf("replayed job not flagged recovered: %+v", second.JobInfo)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("recovered result diverges:\n pre-restart: %s\npost-restart: %s",
			first.Result, second.Result)
	}
	if st := mgr2.Stats(); st.Executions != 0 {
		t.Fatalf("restart re-executed %d jobs serving history", st.Executions)
	}

	// A fresh submission of the same spec must be served from the disk
	// store (the in-memory cache died with the first process).
	var resub jobs.JobInfo
	if code := postJSON(t, ts2.URL+"/v1/jobs", body, &resub); code != http.StatusAccepted {
		t.Fatalf("resubmit = %d, want 202", code)
	}
	re := pollDone(t, ts2, resub.ID)
	if !re.CacheHit {
		t.Fatalf("resubmitted spec missed the durable result store: %+v", re.JobInfo)
	}
	if !bytes.Equal(first.Result, re.Result) {
		t.Fatalf("disk-served result diverges from original")
	}
}

// metricValue extracts one metric's value from a /metrics scrape.
func metricValue(text, metric string) (float64, bool) {
	m := regexp.MustCompile(`(?m)^` + metric + ` (\S+)$`).FindStringSubmatch(text)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// pollDone long-polls a job to the done state and returns its final
// snapshot with the result left as raw JSON for byte-level comparison.
func pollDone(t *testing.T, ts *httptest.Server, id string) (final struct {
	jobs.JobInfo
	Result json.RawMessage `json:"result"`
}) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"?wait_ms=2000", &final); code != http.StatusOK {
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
	return final
}

// durableSmokeSizes shrinks every Table I workload to a problem that
// functionally emulates in well under a second, mirroring the difftest
// checkpoint smoke sizes.
var durableSmokeSizes = map[string]int{
	"2mm": 32, "gaus": 24, "grm": 24, "lu": 24, "spmv": 1024,
	"htw": 32, "mriq": 256, "dwt": 64, "bpr": 512, "srad": 32,
	"bfs": 1024, "sssp": 512, "ccl": 512, "mst": 256, "mis": 512,
}

// TestAllWorkloadsResultPersistence runs every Table I workload through the
// durable tier and holds the persistence oracle: the bytes in the on-disk
// result store must decode to exactly the result the API served
// (reflect.DeepEqual after decoding, and byte-identical re-serialisation).
func TestAllWorkloadsResultPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep; skipped in -short mode")
	}
	ts, mgr, _ := startDurableService(t, t.TempDir(), 4)
	for _, name := range workloads.Names() {
		size, ok := durableSmokeSizes[name]
		if !ok {
			t.Fatalf("no smoke size for workload %q", name)
		}
		t.Run(name, func(t *testing.T) {
			served := runJob(t, ts, map[string]any{
				"workload": name, "mode": "functional", "size": size, "seed": 7,
			})
			spec := jobs.Spec{Workload: name, Mode: jobs.ModeFunctional, Size: size, Seed: 7}
			raw, ok := mgr.Results().Get(spec.Key())
			if !ok {
				t.Fatalf("result store has no entry for %s after a done job", name)
			}
			var stored server.RunResult
			if err := json.Unmarshal(raw, &stored); err != nil {
				t.Fatalf("stored result does not decode: %v", err)
			}
			if !reflect.DeepEqual(served, stored) {
				t.Fatalf("stored result diverges from served result:\nserved: %+v\nstored: %+v",
					served, stored)
			}
			reser, err := json.Marshal(&served)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reser, raw) {
				t.Fatalf("stored bytes are not the canonical serialisation:\nstored: %s\nwant:   %s",
					raw, reser)
			}
		})
	}
}

// TestOversizeJobRejectedBeforeJournal: a size beyond a workload's declared
// Max, or below its Min, is a 400 naming size, and the journal never sees
// the spec, so a restart cannot replay it.
func TestOversizeJobRejectedBeforeJournal(t *testing.T) {
	dir := t.TempDir()
	ts, _, shutdown := startDurableService(t, dir, 1)
	bodies := []map[string]any{
		{"workload": "2mm", "mode": "timing", "size": 32768},
		{"workload": "dwt", "mode": "functional", "size": 1},
		{"family": map[string]any{"name": "stream"}, "mode": "functional", "size": 1 << 20},
	}
	for _, w := range workloads.All() {
		bodies = append(bodies, map[string]any{"workload": w.Name, "mode": "functional", "size": w.Size.Max + 1})
	}
	for _, body := range bodies {
		var e api.Error
		if code := postJSON(t, ts.URL+"/v1/jobs", body, &e); code != http.StatusBadRequest || !strings.Contains(e.Message, "size") {
			t.Errorf("%v: %d %q, want 400 naming size", body, code, e.Message)
		}
	}
	shutdown()
	var recs []journal.Record
	if _, err := journal.Replay(filepath.Join(dir, "journal"), func(r journal.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("journal holds %d records after rejected submissions, want 0", len(recs))
	}
}
