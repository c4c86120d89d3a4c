package jobs

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"critload/internal/journal"
)

// syncedConfig is durableConfig with real fsyncs: the configuration whose
// journal traffic the commit path is judged by.
func syncedConfig(tb testing.TB, dir string) Config {
	cfg := durableConfig(tb, dir, instantRunner)
	cfg.JournalNoSync = false
	return cfg
}

// onDisk reports which records of type typ the journal files under dir
// hold, by job id; records still in the write buffer are not there.
func onDisk(t *testing.T, dir string, typ journal.Type) map[string]bool {
	t.Helper()
	ids := map[string]bool{}
	if _, err := journal.Replay(filepath.Join(dir, "journal"), func(r journal.Record) error {
		if r.Type == typ {
			ids[r.ID] = true
		}
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return ids
}

// TestJournalSyncsPerSubmission pins the journal traffic of the commit
// path: a submission costs one fsync, shared by every record written
// before it, and a completion costs none — its record rides the next
// commit. A cache hit journals exactly two records. Every Submit returns
// with its submitted record on disk.
func TestJournalSyncsPerSubmission(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	m := newManager(t, syncedConfig(t, dir))
	jnl := m.Journal()
	ctx := context.Background()

	start := jnl.Stats()
	var cold []string
	for i := 0; i < n; i++ {
		info, err := m.Submit(spec(fmt.Sprintf("wl%d", i)))
		if err != nil {
			t.Fatalf("cold Submit %d: %v", i, err)
		}
		if !onDisk(t, dir, journal.TypeSubmitted)[info.ID] {
			t.Fatalf("Submit returned %s before its submitted record was on disk", info.ID)
		}
		if info, err = m.Wait(ctx, info.ID); err != nil || info.State != StateDone {
			t.Fatalf("cold job %d = %+v, %v", i, info, err)
		}
		cold = append(cold, info.ID)
	}
	afterCold := jnl.Stats()
	if syncs := afterCold.Syncs - start.Syncs; syncs > n {
		t.Fatalf("%d cold jobs cost %d journal fsyncs, want at most %d", n, syncs, n)
	}

	for i := 0; i < n; i++ {
		info, err := m.Submit(spec(fmt.Sprintf("wl%d", i)))
		if err != nil || !info.CacheHit || info.State != StateDone {
			t.Fatalf("cached Submit %d = %+v, %v", i, info, err)
		}
		if !onDisk(t, dir, journal.TypeSubmitted)[info.ID] {
			t.Fatalf("Submit returned %s before its submitted record was on disk", info.ID)
		}
	}
	afterHits := jnl.Stats()
	if appends := afterHits.Appends - afterCold.Appends; appends != 2*n {
		t.Fatalf("%d cache hits journalled %d records, want %d (submitted + completed each)", n, appends, 2*n)
	}
	if syncs := afterHits.Syncs - afterCold.Syncs; syncs > n {
		t.Fatalf("%d cache hits cost %d journal fsyncs, want at most %d", n, syncs, n)
	}

	// The cold completions rode the cache hits' commits: each is on disk,
	// and only after its result (the store is checked before the record is
	// written, so a record written first is withheld and missing here).
	completed := onDisk(t, dir, journal.TypeCompleted)
	for _, id := range cold {
		if !completed[id] {
			t.Fatalf("completed record of %s not on disk after %d later commits", id, n)
		}
	}
}

// BenchmarkSubmitCached times a cache-hit Submit against a real journal and
// result store: the journal's group commit is the op's only fsync. The
// parallel2 case runs two submitters on two Ps, as the benchmark's svc-*
// clients do, so their submissions can share commits.
func BenchmarkSubmitCached(b *testing.B) {
	run := func(b *testing.B, parallel bool) {
		m, err := NewManager(syncedConfig(b, b.TempDir()))
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close(context.Background())
		s := spec("wl0")
		info, err := m.Submit(s)
		if err == nil {
			info, err = m.Wait(context.Background(), info.ID)
		}
		if err != nil || info.State != StateDone {
			b.Fatalf("warming the cache: %+v, %v", info, err)
		}
		submit := func() {
			if info, err := m.Submit(s); err != nil || !info.CacheHit {
				b.Errorf("Submit = %+v, %v; want a cache hit", info, err)
			}
		}
		before := m.Journal().Stats().Syncs
		b.ReportAllocs()
		b.ResetTimer()
		if parallel {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					submit()
				}
			})
		} else {
			for i := 0; i < b.N; i++ {
				submit()
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(m.Journal().Stats().Syncs-before)/float64(b.N), "syncs/op")
	}
	b.Run("serial", func(b *testing.B) { run(b, false) })
	b.Run("parallel2", func(b *testing.B) { run(b, true) })
}
