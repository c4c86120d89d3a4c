package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"critload/internal/journal"
)

// durableConfig is a manager configuration with the durable tier enabled
// on dir: a journal under dir/journal and a result store under dir/results.
// NoSync keeps the tests fast; the crash harness exercises real fsyncs.
func durableConfig(t testing.TB, dir string, runner Runner) Config {
	t.Helper()
	rs, err := OpenResultStore(filepath.Join(dir, "results"), 0)
	if err != nil {
		t.Fatalf("OpenResultStore: %v", err)
	}
	return Config{
		Workers: 2, Runner: runner,
		JournalDir: filepath.Join(dir, "journal"), JournalNoSync: true,
		Results: rs,
	}
}

// writeJournal writes records directly to dir's journal, simulating the
// aftermath of a crash (no compaction, arbitrary live state).
func writeJournal(t *testing.T, dir string, recs []journal.Record) {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{NoSync: true}, nil)
	if err != nil {
		t.Fatalf("Open journal: %v", err)
	}
	for _, r := range recs {
		if err := j.Append(r, false); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func submittedRec(t *testing.T, id string, s Spec) journal.Record {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return journal.Record{Type: journal.TypeSubmitted, At: time.Now(), ID: id, Data: b}
}

// TestRecoveryRestoresHistory is the round trip: a durable manager runs
// jobs, shuts down cleanly, and a second manager over the same directory
// reports the same jobs — same ids, same states, byte-identical results —
// and serves repeat submissions from disk without re-simulating.
func TestRecoveryRestoresHistory(t *testing.T) {
	dir := t.TempDir()
	m1 := newManager(t, durableConfig(t, dir, instantRunner))
	a, err := m1.Submit(spec("aes"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m1.Submit(spec("bfs"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, id := range []string{a.ID, b.ID} {
		if info, err := m1.Wait(ctx, id); err != nil || info.State != StateDone {
			t.Fatalf("job %s: %+v, %v", id, info, err)
		}
	}
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2 := newManager(t, durableConfig(t, dir, instantRunner))
	rec := m2.Recovery()
	if !rec.Enabled || rec.Jobs != 2 || rec.Requeued != 0 || rec.ResultsMissing != 0 || rec.Unrecoverable != 0 {
		t.Fatalf("recovery info = %+v", rec)
	}
	for id, workload := range map[string]string{a.ID: "aes", b.ID: "bfs"} {
		info, err := m2.Get(id)
		if err != nil {
			t.Fatalf("recovered job %s lost: %v", id, err)
		}
		if info.State != StateDone || !info.Recovered || info.Spec.Workload != workload {
			t.Fatalf("recovered job %s = %+v", id, info)
		}
		// The recovered result is the stored JSON: the bytes the first
		// run encoded.
		if want := resultOf(workload); !bytes.Equal(info.Result, want) {
			t.Fatalf("recovered result %s, want %s", info.Result, want)
		}
	}
	if st := m2.Stats(); st.Recovered != 2 {
		t.Fatalf("stats = %+v, want 2 recovered", st)
	}

	// A repeat submission is a disk-warmed cache hit, not a re-simulation.
	again, err := m2.Submit(spec("aes"))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.State != StateDone {
		t.Fatalf("repeat submission = %+v, want immediate cache hit", again)
	}
	if st := m2.Stats(); st.Executions != 0 {
		t.Fatalf("recovery re-simulated: %+v", st)
	}
	// Ids keep ascending across the restart: no reuse.
	if again.ID == a.ID || again.ID == b.ID || again.ID <= b.ID {
		t.Fatalf("id %s reused or regressed (prior max %s)", again.ID, b.ID)
	}
}

// TestRecoveryRestoresFailedAndCancelled covers the other terminal states:
// the recorded error text and the cancellation both survive the restart.
func TestRecoveryRestoresFailedAndCancelled(t *testing.T) {
	dir := t.TempDir()
	br := newBlockingRunner()
	runner := func(ctx context.Context, s Spec) (any, error) {
		if s.Workload == "bad" {
			return nil, errors.New("simulated failure")
		}
		return br.run(ctx, s)
	}
	cfg := durableConfig(t, dir, runner)
	cfg.Workers = 1
	m1 := newManager(t, cfg)

	failed, err := m1.Submit(spec("bad"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if info, _ := m1.Wait(ctx, failed.ID); info.State != StateFailed {
		t.Fatalf("job = %+v, want failed", info)
	}
	slow, err := m1.Submit(spec("slow"))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := m1.Submit(spec("victim"))
	if err != nil {
		t.Fatal(err)
	}
	if info, err := m1.Cancel(victim.ID); err != nil || info.State != StateCancelled {
		t.Fatalf("cancel = %+v, %v", info, err)
	}
	close(br.release)
	if info, _ := m1.Wait(ctx, slow.ID); info.State != StateDone {
		t.Fatalf("job = %+v, want done", info)
	}
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2 := newManager(t, durableConfig(t, dir, instantRunner))
	checks := map[string]struct {
		state State
		errIs string
	}{
		failed.ID: {StateFailed, "simulated failure"},
		victim.ID: {StateCancelled, ""},
		slow.ID:   {StateDone, ""},
	}
	for id, want := range checks {
		info, err := m2.Get(id)
		if err != nil {
			t.Fatalf("recovered job %s lost: %v", id, err)
		}
		if info.State != want.state || !info.Recovered {
			t.Fatalf("job %s = %+v, want recovered %s", id, info, want.state)
		}
		if want.errIs != "" && !strings.Contains(info.Error, want.errIs) {
			t.Fatalf("job %s error %q, want %q", id, info.Error, want.errIs)
		}
	}
}

// TestRecoveryRequeuesLiveJobs is the heart of crash recovery: jobs that
// were queued or running when the process died are re-enqueued and run to
// completion, with the singleflight rule deduplicating identical specs
// across the restart boundary.
func TestRecoveryRequeuesLiveJobs(t *testing.T) {
	dir := t.TempDir()
	recs := []journal.Record{
		submittedRec(t, "j00000001", spec("lava")),
		{Type: journal.TypeStarted, At: time.Now(), ID: "j00000001"},
		submittedRec(t, "j00000002", spec("srad")),
		submittedRec(t, "j00000003", spec("lava")), // same spec as j1
	}
	writeJournal(t, filepath.Join(dir, "journal"), recs)

	m := newManager(t, durableConfig(t, dir, instantRunner))
	rec := m.Recovery()
	if rec.Jobs != 3 || rec.Requeued != 3 || rec.Unrecoverable != 0 {
		t.Fatalf("recovery info = %+v", rec)
	}
	ctx := context.Background()
	for _, id := range []string{"j00000001", "j00000002", "j00000003"} {
		info, err := m.Wait(ctx, id)
		if err != nil || info.State != StateDone || !info.Recovered {
			t.Fatalf("requeued job %s = %+v, %v", id, info, err)
		}
	}
	// j1 and j3 share a key: one execution covers both.
	if st := m.Stats(); st.Executions != 2 || st.Deduped != 1 {
		t.Fatalf("stats = %+v, want 2 executions, 1 dedup", st)
	}
}

// TestRecoveryCompletesFromStore: a job live at the crash whose result is
// already durable (an identical spec completed before) finishes without
// touching the runner.
func TestRecoveryCompletesFromStore(t *testing.T) {
	dir := t.TempDir()
	s := spec("nw")
	rs, err := OpenResultStore(filepath.Join(dir, "results"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Put(s.Key(), resultOf("nw")); err != nil {
		t.Fatal(err)
	}
	writeJournal(t, filepath.Join(dir, "journal"), []journal.Record{
		submittedRec(t, "j00000001", s),
		{Type: journal.TypeStarted, At: time.Now(), ID: "j00000001"},
	})

	poisoned := func(context.Context, Spec) (any, error) {
		return nil, errors.New("runner must not be invoked")
	}
	m := newManager(t, durableConfig(t, dir, poisoned))
	info, err := m.Get("j00000001")
	if err != nil || info.State != StateDone {
		t.Fatalf("job = %+v, %v", info, err)
	}
	rec := m.Recovery()
	if rec.CompletedFromStore != 1 || rec.Requeued != 0 {
		t.Fatalf("recovery info = %+v", rec)
	}
	if st := m.Stats(); st.Executions != 0 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRecoveryResultMissing: the result store is a cache, not fsynced, so
// a power loss can leave a completed job's result deleted, truncated,
// empty or torn. Recovery re-runs such a job exactly once: it reaches done
// with the runner's bytes, and results_missing counts the re-run.
func TestRecoveryResultMissing(t *testing.T) {
	damage := map[string]func(path string) error{
		"deleted":  os.Remove,
		"halved":   func(p string) error { return truncateTo(p, 0.5) },
		"empty":    func(p string) error { return truncateTo(p, 0) },
		"bit-flip": flipByte,
	}
	for name, fn := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := spec("2mm")
			want := resultOf(s.Workload)
			rs, err := OpenResultStore(filepath.Join(dir, "results"), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.Put(s.Key(), want); err != nil {
				t.Fatal(err)
			}
			if err := fn(resultPath(rs, s.Key())); err != nil {
				t.Fatal(err)
			}
			writeJournal(t, filepath.Join(dir, "journal"), []journal.Record{
				submittedRec(t, "j00000001", s),
				{Type: journal.TypeCompleted, At: time.Now(), ID: "j00000001"},
			})
			m := newManager(t, durableConfig(t, dir, instantRunner))
			info, err := m.Wait(context.Background(), "j00000001")
			if err != nil || info.State != StateDone || !bytes.Equal(info.Result, want) {
				t.Fatalf("job = %+v, %v; want done with %s", info, err, want)
			}
			if rec := m.Recovery(); rec.ResultsMissing != 1 || rec.Requeued != 0 {
				t.Fatalf("recovery info = %+v, want the one re-run under results_missing", rec)
			}
			if st := m.Stats(); st.Executions != 1 {
				t.Fatalf("stats = %+v, want exactly one re-execution", st)
			}
		})
	}
}

// truncateTo cuts the file at path to frac of its size.
func truncateTo(path string, frac float64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, int64(float64(info.Size())*frac))
}

// flipByte inverts one byte in the middle of the file at path.
func flipByte(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b[len(b)/2] ^= 0xff
	return os.WriteFile(path, b, 0o644)
}

// TestRecoveryUnusableSpecFails: a submitted record whose payload no longer
// decodes or validates becomes a visible failed job, not a 404 and not a
// startup error.
func TestRecoveryUnusableSpecFails(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, filepath.Join(dir, "journal"), []journal.Record{
		{Type: journal.TypeSubmitted, At: time.Now(), ID: "j00000001", Data: []byte("not a spec")},
		submittedRec(t, "j00000002", Spec{Workload: "x", Mode: "no-such-mode"}),
	})
	m := newManager(t, durableConfig(t, dir, instantRunner))
	for _, id := range []string{"j00000001", "j00000002"} {
		info, err := m.Get(id)
		if err != nil {
			t.Fatalf("job %s lost: %v", id, err)
		}
		if info.State != StateFailed || !strings.Contains(info.Error, "not recoverable") {
			t.Fatalf("job %s = %+v, want RecoveredError failure", id, info)
		}
	}
	if rec := m.Recovery(); rec.Unrecoverable != 2 {
		t.Fatalf("recovery info = %+v", rec)
	}
	// The sentinel is a typed error usable with errors.As.
	var re *RecoveredError
	err := error(&RecoveredError{State: StateQueued, Reason: "x"})
	if !errors.As(err, &re) || re.State != StateQueued {
		t.Fatalf("RecoveredError does not satisfy errors.As")
	}
}

// TestRecoveryOversizeSpecFailsUnrun: a spec journaled before sizes were
// admitted, one far beyond its workload's Max, comes back failed on replay
// and never reaches the runner, so it cannot exhaust memory on every start.
func TestRecoveryOversizeSpecFailsUnrun(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, filepath.Join(dir, "journal"), []journal.Record{
		submittedRec(t, "j00000001", Spec{Workload: "2mm", Mode: ModeTiming, Size: 32768}),
		submittedRec(t, "j00000002", Spec{Workload: "2mm", Mode: ModeTiming, Size: 32}),
	})
	var ran []Spec
	var mu sync.Mutex
	m := newManager(t, durableConfig(t, dir, func(_ context.Context, s Spec) (any, error) {
		mu.Lock()
		defer mu.Unlock()
		ran = append(ran, s)
		return "ok", nil
	}))
	ok, err := m.Wait(context.Background(), "j00000002")
	if err != nil || ok.State != StateDone {
		t.Fatalf("admissible job = %+v, %v", ok, err)
	}
	info, err := m.Get("j00000001")
	if err != nil || info.State != StateFailed || !strings.Contains(info.Error, "not recoverable") || !strings.Contains(info.Error, "size") {
		t.Fatalf("oversize job = %+v, %v; want a RecoveredError naming size", info, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 || ran[0].Size != 32 {
		t.Fatalf("runner saw %+v, want only the admissible spec", ran)
	}
}

// TestRecoveryQueueFull: more live jobs than the restarted queue can hold
// fail with RecoveredError instead of wedging or crashing the startup.
func TestRecoveryQueueFull(t *testing.T) {
	dir := t.TempDir()
	var recs []journal.Record
	for i := 1; i <= 6; i++ {
		recs = append(recs, submittedRec(t, fmt.Sprintf("j%08d", i), spec(fmt.Sprintf("wl%d", i))))
	}
	writeJournal(t, filepath.Join(dir, "journal"), recs)

	br := newBlockingRunner()
	cfg := durableConfig(t, dir, br.run)
	cfg.Workers, cfg.QueueDepth = 1, 2
	m := newManager(t, cfg)
	rec := m.Recovery()
	if rec.Requeued+rec.Unrecoverable != 6 || rec.Unrecoverable < 3 {
		t.Fatalf("recovery info = %+v, want 6 jobs with >=3 unrecoverable", rec)
	}
	close(br.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	failed := 0
	for i := 1; i <= 6; i++ {
		info, err := m.Wait(ctx, fmt.Sprintf("j%08d", i))
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		switch info.State {
		case StateDone:
		case StateFailed:
			failed++
			if !strings.Contains(info.Error, "not recoverable") {
				t.Fatalf("unexpected failure: %+v", info)
			}
		default:
			t.Fatalf("job %s stuck in %s", info.ID, info.State)
		}
	}
	if failed != rec.Unrecoverable {
		t.Fatalf("%d failed jobs vs %d unrecoverable", failed, rec.Unrecoverable)
	}
}

// TestCleanShutdownCompacts: Close leaves a single compacted segment whose
// replay is exactly the retained jobs' submitted+terminal record pairs.
func TestCleanShutdownCompacts(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, durableConfig(t, dir, instantRunner))
	ctx := context.Background()
	for _, w := range []string{"aes", "bfs", "gauss"} {
		info, err := m.Submit(spec(w))
		if err != nil {
			t.Fatal(err)
		}
		if info, err = m.Wait(ctx, info.ID); err != nil || info.State != StateDone {
			t.Fatalf("job = %+v, %v", info, err)
		}
	}
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := journal.Replay(filepath.Join(dir, "journal"), nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if st.Records != 6 || st.TruncatedBytes != 0 {
		t.Fatalf("compacted journal = %+v, want 6 clean records", st)
	}
}

// TestReplayAnyPrefixConsistent is the property test: for a journal
// produced by a real manager under concurrent submitters, replaying ANY
// record prefix yields a consistent state — every job's transitions are
// monotonic (queued -> running -> exactly one terminal state), specs never
// mutate, and jobs never disappear as the prefix grows. Run under -race
// this also hammers the Submit/run/Cancel journaling paths concurrently.
func TestReplayAnyPrefixConsistent(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, durableConfig(t, dir, instantRunner))
	var wg sync.WaitGroup
	ctx := context.Background()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// Overlapping workloads across goroutines exercise dedup and
				// cache paths; every third job is cancelled immediately.
				info, err := m.Submit(spec(fmt.Sprintf("wl%d", (g+i)%5)))
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if i%3 == 0 {
					m.Cancel(info.ID)
				}
				m.Wait(ctx, info.ID)
			}
		}(g)
	}
	wg.Wait()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen the journal pre-compaction state? Close compacted it; the
	// property must hold for the compacted stream too — and for every
	// prefix of it.
	var recs []journal.Record
	if _, err := journal.Replay(filepath.Join(dir, "journal"), func(r journal.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("no records to test")
	}

	rank := func(s State) int {
		switch s {
		case StateQueued:
			return 0
		case StateRunning:
			return 1
		default:
			return 2
		}
	}
	prev := newReplayState()
	for i := 0; i <= len(recs); i++ {
		cur := newReplayState()
		for _, r := range recs[:i] {
			if err := cur.apply(r); err != nil {
				t.Fatalf("apply: %v", err)
			}
		}
		for id, pj := range prev.jobs {
			cj := cur.jobs[id]
			if cj == nil {
				t.Fatalf("prefix %d: job %s disappeared", i, id)
			}
			if rank(cj.state) < rank(pj.state) {
				t.Fatalf("prefix %d: job %s went backwards %s -> %s", i, id, pj.state, cj.state)
			}
			if pj.state.Terminal() && cj.state != pj.state {
				t.Fatalf("prefix %d: job %s changed terminal state %s -> %s", i, id, pj.state, cj.state)
			}
			if cj.spec != pj.spec {
				t.Fatalf("prefix %d: job %s spec mutated", i, id)
			}
		}
		prev = cur
	}
}

// TestResultPutFailureRerunsAfterRestart: when the result store cannot
// write a result the failure is counted and the job still reaches done for
// its client, with its completed record journalled. The next start finds
// the job done but its result unreadable, and re-runs it once to the same
// bytes, which the healthy store then holds.
func TestResultPutFailureRerunsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	m1 := newManager(t, durableConfig(t, dir, instantRunner))
	// A regular file where the results directory was fails CreateTemp with
	// ENOTDIR whatever the process's privileges.
	resultsDir := filepath.Join(dir, "results")
	if err := os.RemoveAll(resultsDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(resultsDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := m1.Submit(spec("hotspot"))
	if err != nil {
		t.Fatal(err)
	}
	first, err = m1.Wait(ctx, first.ID)
	if err != nil || first.State != StateDone {
		t.Fatalf("job with a failing store = %+v, %v; the client must still get its result", first, err)
	}
	if st := m1.Results().Stats(); st.PutErrors < 1 {
		t.Fatalf("result store stats = %+v, want the failed Put counted in PutErrors", st)
	}
	if st := m1.Stats(); st.JournalErrors != 0 {
		t.Fatalf("stats = %+v: a failed result write is not a journal error", st)
	}
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !onDisk(t, dir, journal.TypeCompleted)[first.ID] {
		t.Fatalf("no completed record for %s: a done job is journalled whatever the store holds", first.ID)
	}

	if err := os.Remove(resultsDir); err != nil {
		t.Fatal(err)
	}
	m2 := newManager(t, durableConfig(t, dir, instantRunner))
	if rec := m2.Recovery(); rec.Jobs != 1 || rec.ResultsMissing != 1 || rec.Requeued != 0 {
		t.Fatalf("recovery info = %+v, want the done job re-run under results_missing", rec)
	}
	again, err := m2.Wait(ctx, first.ID)
	if err != nil || again.State != StateDone || !again.Recovered {
		t.Fatalf("re-run job = %+v, %v", again, err)
	}
	if st := m2.Stats(); st.Executions != 1 || st.JournalErrors != 0 {
		t.Fatalf("stats = %+v, want one re-execution on the healthy store", st)
	}
	want := first.Result
	if !bytes.Equal(again.Result, want) {
		t.Fatalf("re-executed result %s, want %s", again.Result, want)
	}
	if raw, ok := m2.Results().Get(first.Spec.Key()); !ok || !bytes.Equal(raw, want) {
		t.Fatalf("stored result = %s, %v; want %s in the store after the re-run", raw, ok, want)
	}
}

// TestResultIsMarshalOutput pins what the daemon's wire encoder relies on:
// every Result a manager hands out is json.Marshal output — compact, with
// <, >, &, U+2028 and U+2029 escaped — so json.Marshal gives it back
// unchanged. It holds for a fresh run, a memory hit, a disk hit after the
// memory tier evicted the result, and a job recovered after a restart.
func TestResultIsMarshalOutput(t *testing.T) {
	runner := func(_ context.Context, s Spec) (any, error) {
		return map[string]any{
			"workload": s.Workload,
			"html":     "<&>",
			"lines":    "\u2028\u2029",
			"invalid":  "\xff\xe2\x80",
			"raw":      json.RawMessage("{ \"a\" : [ 1 , \"<\" ] }\n"),
		}, nil
	}
	check := func(how string, info JobInfo) {
		t.Helper()
		if info.State != StateDone || len(info.Result) == 0 {
			t.Fatalf("%s: job = %+v", how, info)
		}
		if again, err := json.Marshal(info.Result); err != nil || !bytes.Equal(again, info.Result) {
			t.Errorf("%s: result %s is not json.Marshal output (%s, %v)", how, info.Result, again, err)
		}
	}
	dir := t.TempDir()
	cfg := durableConfig(t, dir, runner)
	cfg.CacheEntries = 1
	m1 := newManager(t, cfg)
	ctx := context.Background()
	run := func(workload string) JobInfo {
		t.Helper()
		info, err := m1.Submit(spec(workload))
		if err != nil {
			t.Fatal(err)
		}
		if info, err = m1.Wait(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		return info
	}

	first := run("a")
	check("fresh run", first)
	if hit := run("a"); !hit.CacheHit {
		t.Fatalf("resubmission = %+v, want a memory hit", hit)
	} else {
		check("memory hit", hit)
	}
	run("b") // evicts a's result from the one-entry memory tier
	if hit := run("a"); !hit.CacheHit || m1.Stats().DiskHits != 1 {
		t.Fatalf("resubmission = %+v, stats %+v; want a disk hit", hit, m1.Stats())
	} else {
		check("disk hit", hit)
	}
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	m2 := newManager(t, durableConfig(t, dir, runner))
	recovered, err := m2.Get(first.ID)
	if err != nil || !recovered.Recovered || m2.Stats().Executions != 0 {
		t.Fatalf("after restart: %+v, %v, stats %+v; want the job recovered from the store", recovered, err, m2.Stats())
	}
	check("recovered", recovered)
}
