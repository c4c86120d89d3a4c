package journal

import (
	"fmt"
	"strings"
	"testing"
)

// countDirSyncs swaps the directory-sync seam for one that records, per
// call, how many segments the directory then held.
func countDirSyncs(t *testing.T) *[]int {
	t.Helper()
	orig := syncDir
	var calls []int
	syncDir = func(dir string) error {
		seqs, err := segments(dir)
		if err != nil {
			t.Errorf("segments: %v", err)
		}
		calls = append(calls, len(seqs))
		return orig(dir)
	}
	t.Cleanup(func() { syncDir = orig })
	return &calls
}

// TestDirectorySyncedForNewSegments pins when the journal fsyncs its
// directory: a record in a segment created since the last directory sync
// is not durable until the directory entry naming the segment is. So the
// first synced append after Open on an empty directory makes one, each
// rotation one more, appends within a segment none, and Compact one before
// it removes the segments it replaces. Directory syncs are not counted in
// Stats().Syncs.
func TestDirectorySyncedForNewSegments(t *testing.T) {
	calls := countDirSyncs(t)
	j, err := Open(t.TempDir(), Options{SegmentBytes: 16 << 10}, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	if len(*calls) != 0 {
		t.Fatalf("Open made %d directory syncs, want none before the first commit", len(*calls))
	}
	appends := 0
	appendSynced := func(data string) {
		t.Helper()
		appends++
		if err := j.Append(rec(TypeSubmitted, fmt.Sprintf("j%08d", appends), data), true); err != nil {
			t.Fatalf("Append %d: %v", appends, err)
		}
	}

	appendSynced(`{"workload":"bfs"}`)
	if len(*calls) != 1 {
		t.Fatalf("first synced append made %d directory syncs, want 1", len(*calls))
	}
	for i := 0; i < 100; i++ {
		appendSynced(`{"workload":"bfs"}`)
	}
	if st := j.Stats(); st.Rotations != 0 || len(*calls) != 1 {
		t.Fatalf("100 synced appends within one segment: %d rotations, %d directory syncs; want 0 and 1",
			st.Rotations, len(*calls))
	}

	big := strings.Repeat("x", 4<<10) // four fill a segment
	for j.Stats().Rotations < 3 {
		appendSynced(big)
		st := j.Stats()
		if want := 1 + int(st.Rotations); len(*calls) != want {
			t.Fatalf("after %d rotations: %d directory syncs, want %d", st.Rotations, len(*calls), want)
		}
	}
	if st := j.Stats(); st.Syncs != uint64(appends) {
		t.Fatalf("Stats().Syncs = %d after %d synced appends: directory syncs must not count", st.Syncs, appends)
	}

	before := len(*calls)
	if err := j.Compact([]Record{rec(TypeSubmitted, "j00000001", `{"workload":"bfs"}`)}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := (*calls)[before:]; len(got) != 1 || got[0] < 2 {
		t.Fatalf("Compact's directory syncs saw %v segments each; want one sync, made while the old segments remained", got)
	}
	if seqs, _ := segments(j.Dir()); len(seqs) != 1 {
		t.Fatalf("segments after Compact = %v, want the compacted one", seqs)
	}
}
