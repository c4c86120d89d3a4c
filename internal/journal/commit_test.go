package journal

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitConcurrentAppends races synced appends against each
// other, against segment rotation and against one Compact. Every
// Append(r, true) must return with r on disk — Replay of the directory
// delivers it — and the group commit must never cost more fsyncs than
// appends. The Compact is handed every record already registered for
// appending, so it keeps each one whether its write landed before the
// compaction (then replaced by the compacted copy) or after (then a
// duplicate); per-goroutine order is checked on first occurrences.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	const goroutines, perG = 8, 200
	dir := t.TempDir()
	// About five records per segment: rotations land between appends and
	// while group commits are in flight.
	j, err := Open(dir, Options{SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	recOf := func(g, i int) Record {
		return Record{Type: TypeSubmitted, At: time.Unix(1700000000, 0), ID: fmt.Sprintf("g%d-%03d", g, i),
			Data: []byte(`{"workload":"bfs"}`)}
	}

	var (
		regMu      sync.Mutex // guards registered; held by the Compact throughout
		registered [goroutines]int
		replayMu   sync.RWMutex // replays share it; the Compact excludes them
		total      int
		compactAt  = goroutines * perG / 3
		compacted  = make(chan struct{})
	)
	replayHas := func(id string) bool {
		replayMu.RLock()
		defer replayMu.RUnlock()
		found := false
		if _, err := Replay(dir, func(r Record) error {
			found = found || r.ID == id
			return nil
		}); err != nil {
			t.Errorf("Replay: %v", err)
		}
		return found
	}
	compact := func() {
		regMu.Lock()
		defer regMu.Unlock()
		replayMu.Lock()
		defer replayMu.Unlock()
		var recs []Record
		for g := range registered {
			for i := 0; i < registered[g]; i++ {
				recs = append(recs, recOf(g, i))
			}
		}
		if err := j.Compact(recs); err != nil {
			t.Errorf("Compact: %v", err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				regMu.Lock()
				registered[g] = i + 1
				total++
				if total == compactAt {
					go func() { compact(); close(compacted) }()
				}
				regMu.Unlock()
				r := recOf(g, i)
				if err := j.Append(r, true); err != nil {
					t.Errorf("Append %s: %v", r.ID, err)
					return
				}
				if !replayHas(r.ID) {
					t.Errorf("Append(%s, true) returned before the record was on disk", r.ID)
					return
				}
			}
		}()
	}
	wg.Wait()
	regMu.Lock()
	started := total >= compactAt // an appender that failed may stop short of it
	regMu.Unlock()
	if started {
		<-compacted
	}
	if t.Failed() {
		return
	}

	st := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st.Appends != goroutines*perG || st.Compactions != 1 || st.Rotations == 0 {
		t.Fatalf("stats = %+v, want %d appends, one compaction, some rotations", st, goroutines*perG)
	}
	if st.Syncs > st.Appends {
		t.Fatalf("%d fsyncs for %d synced appends: the group commit does not share them", st.Syncs, st.Appends)
	}
	t.Logf("%d appends, %d fsyncs, %d rotations", st.Appends, st.Syncs, st.Rotations)

	seen := map[string]bool{}
	var next [goroutines]int
	got, _ := replayAll(t, dir)
	for _, r := range got {
		if seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		var g, i int
		if _, err := fmt.Sscanf(r.ID, "g%d-%d", &g, &i); err != nil || g < 0 || g >= goroutines {
			t.Fatalf("replayed foreign record %q", r.ID)
		}
		if i != next[g] {
			t.Fatalf("goroutine %d replays record %d after %d: order lost", g, i, next[g]-1)
		}
		next[g]++
	}
	for g, n := range next {
		if n != perG {
			t.Fatalf("goroutine %d: %d of %d records replay after Close", g, n, perG)
		}
	}
}
