package crashtest_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"critload/internal/jobs/crashtest"
	"critload/internal/journal"
	"critload/pkg/client"
)

// TestMain lets crashtest re-execute this binary as the daemon under test;
// in the parent process Main returns immediately and the tests run.
func TestMain(m *testing.M) {
	crashtest.Main()
	os.Exit(m.Run())
}

// testDir allocates one incarnation-chain's data dir. By default it is a
// plain t.TempDir; with CRITLOAD_CRASHTEST_DATA_ROOT set (the nightly
// campaign does), failing tests leave their journal and result store
// behind under that root for artifact upload, while passing tests still
// clean up.
func testDir(t *testing.T) string {
	root := os.Getenv("CRITLOAD_CRASHTEST_DATA_ROOT")
	if root == "" {
		return t.TempDir()
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(root, strings.ReplaceAll(t.Name(), "/", "_")+"-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir)
		}
	})
	return dir
}

// campaignSize reads the kill-point count: 5 by default, or
// CRITLOAD_CRASHTEST_POINTS when a longer sweep is wanted (CI's
// crash-recovery job runs 20 under -race, the nightly campaign 100).
func campaignSize(t *testing.T) int {
	if v := os.Getenv("CRITLOAD_CRASHTEST_POINTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad CRITLOAD_CRASHTEST_POINTS %q: %v", v, err)
		}
		return n
	}
	return 5
}

// campaignSeed fixes the kill-delay sequence. The default is constant so a
// failure reproduces; the nightly campaign sets CRITLOAD_CRASHTEST_SEED to
// its run ID so successive nights explore different points (the seed is
// logged, so any night still reproduces).
func campaignSeed(t *testing.T) int64 {
	if v := os.Getenv("CRITLOAD_CRASHTEST_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CRITLOAD_CRASHTEST_SEED %q: %v", v, err)
		}
		return n
	}
	return 0xC0FFEE
}

// crashSpecs is the workload mix every incarnation is fed: timing jobs
// first (long enough to be mid-execution when the process dies) and a
// tail of functional jobs (fast, so some are done and some still queued
// at most kill points).
var crashSpecs = []client.JobSpec{
	{Workload: "srad", Mode: "timing", Size: 32, Seed: 7},
	{Workload: "2mm", Mode: "timing", Size: 32, Seed: 7},
	{Workload: "dwt", Mode: "timing", Size: 64, Seed: 7},
	{Workload: "bfs", Mode: "functional", Size: 1024, Seed: 7},
	{Workload: "sssp", Mode: "functional", Size: 512, Seed: 7},
	{Workload: "mis", Mode: "functional", Size: 512, Seed: 7},
	{Workload: "spmv", Mode: "functional", Size: 1024, Seed: 7},
	{Workload: "mst", Mode: "functional", Size: 256, Seed: 7},
}

var (
	coldOnce    sync.Once
	coldResults []json.RawMessage
)

// coldRun computes each spec's reference result once, on a pristine daemon
// that lives and dies cleanly — the oracle recovered results must match
// byte for byte.
func coldRun(t *testing.T) []json.RawMessage {
	t.Helper()
	coldOnce.Do(func() {
		d := crashtest.Start(t, t.TempDir())
		c := d.Client(t)
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		for _, spec := range crashSpecs {
			job, err := c.RunJob(ctx, spec)
			if err != nil {
				t.Fatalf("cold run %s/%s: %v", spec.Workload, spec.Mode, err)
			}
			if job.State != client.StateDone {
				t.Fatalf("cold run %s/%s ended %q: %s", spec.Workload, spec.Mode, job.State, job.Error)
			}
			coldResults = append(coldResults, job.Result)
		}
		d.Shutdown(t)
	})
	if len(coldResults) != len(crashSpecs) {
		t.Fatal("cold reference run failed earlier in this binary")
	}
	return coldResults
}

// ackedJob is one submission the first incarnation acknowledged (202 with
// an ID) before dying. Acknowledged is the durability contract: anything
// acked must survive the crash.
type ackedJob struct {
	spec int
	id   string
}

// submitUntilKilled feeds crashSpecs to the daemon from a goroutine,
// recording every acknowledged ID; submissions that error (e.g. the
// process died mid-request) are not acked and carry no promise.
func submitUntilKilled(c *client.Client) (<-chan struct{}, func() []ackedJob) {
	var mu sync.Mutex
	var acked []ackedJob
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		for i, spec := range crashSpecs {
			job, err := c.SubmitJob(ctx, spec)
			if err != nil {
				return
			}
			mu.Lock()
			acked = append(acked, ackedJob{spec: i, id: job.ID})
			mu.Unlock()
		}
	}()
	return done, func() []ackedJob {
		<-done
		mu.Lock()
		defer mu.Unlock()
		return acked
	}
}

// verifyRecovered asserts the durability contract against a restarted
// incarnation: every acked job still exists, reaches done, and its result
// is byte-identical to the cold reference.
func verifyRecovered(t *testing.T, d *crashtest.Daemon, acked []ackedJob, want []json.RawMessage) {
	t.Helper()
	c := d.Client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	hs, err := c.HealthStatus(ctx)
	if err != nil {
		t.Fatalf("health after restart: %v", err)
	}
	if hs.Recovery == nil || !hs.Recovery.Enabled {
		t.Fatalf("restarted daemon reports no recovery block: %+v", hs)
	}
	if hs.Recovery.Unrecoverable != 0 {
		t.Fatalf("recovery lost %d jobs: %+v", hs.Recovery.Unrecoverable, *hs.Recovery)
	}

	for _, a := range acked {
		spec := crashSpecs[a.spec]
		if _, err := c.GetJob(ctx, a.id); err != nil {
			t.Fatalf("acked job %s (%s/%s) lost after crash: %v", a.id, spec.Workload, spec.Mode, err)
		}
		job, err := c.WaitJob(ctx, a.id, 0)
		if err != nil {
			t.Fatalf("waiting for recovered job %s (%s/%s): %v", a.id, spec.Workload, spec.Mode, err)
		}
		if job.State != client.StateDone {
			t.Fatalf("recovered job %s (%s/%s) ended %q: %s",
				a.id, spec.Workload, spec.Mode, job.State, job.Error)
		}
		if !bytes.Equal(job.Result, want[a.spec]) {
			t.Fatalf("recovered result for %s (%s/%s) diverges from cold run:\ncold: %s\ngot:  %s",
				a.id, spec.Workload, spec.Mode, want[a.spec], job.Result)
		}
	}
}

// TestCrashRecoveryRandomizedKills is the headline oracle: a daemon fed
// the workload mix is SIGKILLed after a randomized delay — sometimes
// mid-submission, sometimes mid-execution, sometimes after everything
// finished — and a second incarnation on the same data dir must recover
// every acknowledged job with a byte-identical result. The seed is fixed
// so a failing kill point reproduces.
func TestCrashRecoveryRandomizedKills(t *testing.T) {
	want := coldRun(t)
	points := campaignSize(t)
	seed := campaignSeed(t)
	t.Logf("campaign: %d kill points, seed %#x", points, seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < points; i++ {
		delay := time.Duration(rng.Int63n(int64(1500 * time.Millisecond)))
		t.Run(fmt.Sprintf("kill%02d_after_%s", i, delay.Round(time.Millisecond)), func(t *testing.T) {
			dir := testDir(t)
			d1 := crashtest.Start(t, dir)
			_, collect := submitUntilKilled(d1.Client(t))
			time.Sleep(delay)
			d1.Kill(t)
			acked := collect()

			d2 := crashtest.Start(t, dir)
			verifyRecovered(t, d2, acked, want)
			d2.Shutdown(t)
		})
	}
}

// TestCrashRecoveryTornTail pins the torn-write path end to end: garbage
// appended to the journal's newest segment (a crash mid-append writes
// exactly this) must be truncated on replay without losing any record
// fsync'd before it.
func TestCrashRecoveryTornTail(t *testing.T) {
	want := coldRun(t)
	dir := testDir(t)
	d1 := crashtest.Start(t, dir)
	_, collect := submitUntilKilled(d1.Client(t))
	time.Sleep(200 * time.Millisecond)
	d1.Kill(t)
	acked := collect()
	if len(acked) == 0 {
		t.Skip("no submissions acked before the kill; nothing to assert")
	}

	segs, err := filepath.Glob(filepath.Join(dir, "journal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments after acked submissions (err=%v)", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0x5a}, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2 := crashtest.Start(t, dir)
	verifyRecovered(t, d2, acked, want)
	d2.Shutdown(t)
}

// TestCrashRecoveryFullyCorruptJournal pins the degradation floor: when
// every journal segment is destroyed, the daemon must still start — with
// an empty queue and the corruption visible on /healthz — and serve new
// jobs, never refuse to boot.
func TestCrashRecoveryFullyCorruptJournal(t *testing.T) {
	dir := testDir(t)
	d1 := crashtest.Start(t, dir)
	c1 := d1.Client(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c1.RunJob(ctx, crashSpecs[3]); err != nil {
		t.Fatalf("seeding job: %v", err)
	}
	d1.Kill(t)

	segs, err := filepath.Glob(filepath.Join(dir, "journal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments to corrupt (err=%v)", err)
	}
	for _, seg := range segs {
		if err := os.WriteFile(seg, bytes.Repeat([]byte{0xff}, 256), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d2 := crashtest.Start(t, dir)
	c2 := d2.Client(t)
	hs, err := c2.HealthStatus(ctx)
	if err != nil {
		t.Fatalf("health over corrupt journal: %v", err)
	}
	if hs.Recovery == nil || hs.Recovery.Jobs != 0 {
		t.Fatalf("fully corrupt journal should degrade to an empty queue, got %+v", hs.Recovery)
	}
	if hs.Recovery.DroppedSegments == 0 {
		t.Fatalf("corruption not surfaced on /healthz: %+v", *hs.Recovery)
	}
	job, err := c2.RunJob(ctx, crashSpecs[4])
	if err != nil || job.State != client.StateDone {
		t.Fatalf("daemon unusable after corrupt-journal start: %v / %+v", err, job)
	}
	d2.Shutdown(t)
}

// TestCrashRecoveryCacheHitsAcked pins what a deferred completed record
// costs. A completed record is not fsync'd on its own: it rides the next
// group commit, so the daemon is killed the instant the last cache hit is
// acknowledged, while that hit's completed record is still in the
// process's write buffer. The restarted daemon must find every
// acknowledged job done, with the cold run's bytes, and count every job
// the journal on disk left live under completed_from_store.
func TestCrashRecoveryCacheHitsAcked(t *testing.T) {
	specs := crashSpecs[3:6] // functional: fast, and all three cold in one incarnation
	dir := testDir(t)
	d1 := crashtest.Start(t, dir)
	c1 := d1.Client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var acked []string
	var want []json.RawMessage
	for _, spec := range specs {
		job, err := c1.RunJob(ctx, spec)
		if err != nil || job.State != client.StateDone {
			t.Fatalf("cold run %s: %v / %+v", spec.Workload, err, job)
		}
		acked, want = append(acked, job.ID), append(want, job.Result)
	}
	for i, spec := range specs {
		job, err := c1.SubmitJob(ctx, spec)
		if err != nil {
			t.Fatalf("resubmitting %s: %v", spec.Workload, err)
		}
		if !job.CacheHit || job.State != client.StateDone {
			t.Fatalf("resubmitted %s = %+v, want a finished cache hit", spec.Workload, job)
		}
		acked, want = append(acked, job.ID), append(want, want[i])
	}
	d1.Kill(t)

	// Read what the kill left on disk: a job with a submitted record and no
	// terminal one is live to the next incarnation.
	submitted, live := map[string]bool{}, map[string]bool{}
	if _, err := journal.Replay(filepath.Join(dir, "journal"), func(r journal.Record) error {
		switch r.Type {
		case journal.TypeSubmitted:
			submitted[r.ID], live[r.ID] = true, true
		case journal.TypeCompleted, journal.TypeFailed, journal.TypeCancelled:
			delete(live, r.ID)
		}
		return nil
	}); err != nil {
		t.Fatalf("replaying the killed daemon's journal: %v", err)
	}
	for _, id := range acked {
		if !submitted[id] {
			t.Fatalf("acked job %s has no submitted record on disk", id)
		}
	}
	if len(live) == 0 {
		t.Fatalf("every completed record reached disk before the kill; the deferred path went unexercised")
	}
	t.Logf("%d acked jobs, %d live in the journal at the kill", len(acked), len(live))

	d2 := crashtest.Start(t, dir)
	c2 := d2.Client(t)
	hs, err := c2.HealthStatus(ctx)
	if err != nil {
		t.Fatalf("health after restart: %v", err)
	}
	if rec := hs.Recovery; rec == nil || rec.CompletedFromStore != len(live) || rec.Requeued != 0 || rec.Unrecoverable != 0 {
		t.Fatalf("recovery = %+v, want the %d jobs the journal left live completed from the store", hs.Recovery, len(live))
	}
	for i, id := range acked {
		job, err := c2.WaitJob(ctx, id, 0)
		if err != nil || job.State != client.StateDone {
			t.Fatalf("acked job %s after the crash: %v / %+v", id, err, job)
		}
		if !bytes.Equal(job.Result, want[i]) {
			t.Fatalf("acked job %s result diverges from the cold run:\ncold: %s\ngot:  %s", id, want[i], job.Result)
		}
	}
	d2.Shutdown(t)
}

// TestCrashRecoveryLostResults pins what an unsynced result store costs.
// Result files are not fsynced, so a power loss can leave one missing,
// truncated or empty. With every job done, the daemon is killed and the
// results directory damaged those three ways; the restarted daemon must
// still finish every acknowledged job with the cold run's bytes, re-running
// exactly the jobs whose files were damaged.
func TestCrashRecoveryLostResults(t *testing.T) {
	want := coldRun(t)
	dir := testDir(t)
	d1 := crashtest.Start(t, dir)
	c1 := d1.Client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var acked []ackedJob
	for i, spec := range crashSpecs {
		job, err := c1.RunJob(ctx, spec)
		if err != nil || job.State != client.StateDone {
			t.Fatalf("running %s/%s: %v / %+v", spec.Workload, spec.Mode, err, job)
		}
		acked = append(acked, ackedJob{spec: i, id: job.ID})
	}
	d1.Kill(t)

	files, err := filepath.Glob(filepath.Join(dir, "results", "*.res"))
	if err != nil || len(files) != len(crashSpecs) {
		t.Fatalf("result files = %v (%v), want one per spec", files, err)
	}
	damage := []func(string) error{
		os.Remove,
		func(p string) error {
			info, err := os.Stat(p)
			if err != nil {
				return err
			}
			return os.Truncate(p, info.Size()/2)
		},
		func(p string) error { return os.Truncate(p, 0) },
	}
	for i, fn := range damage {
		if err := fn(files[i]); err != nil {
			t.Fatal(err)
		}
	}

	d2 := crashtest.Start(t, dir)
	verifyRecovered(t, d2, acked, want)
	if n := executions(t, d2); n != len(damage) {
		t.Fatalf("restarted daemon ran %d executions, want %d: one per damaged result", n, len(damage))
	}
	d2.Shutdown(t)
}

// executions reads the daemon's runner-invocation counter from /metrics.
func executions(t *testing.T, d *crashtest.Daemon) int {
	t.Helper()
	resp, err := http.Get("http://" + d.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "critloadd_executions_total "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("critloadd_executions_total %q: %v", v, err)
			}
			return n
		}
	}
	t.Fatalf("no critloadd_executions_total on /metrics (%v)", sc.Err())
	return 0
}
