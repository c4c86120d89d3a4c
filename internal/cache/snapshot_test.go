package cache

import (
	"bytes"
	"strings"
	"testing"

	"critload/internal/checkpoint"
	"critload/internal/memreq"
)

func snapConfig() Config {
	return Config{Bytes: 1024, LineBytes: 128, Ways: 2, MSHREntries: 4, MSHRTargets: 4, HitLatency: 18}
}

func snapBytes(t *testing.T, c *Cache) []byte {
	t.Helper()
	w := checkpoint.NewWriter()
	c.Snapshot(w)
	return w.Bytes()
}

// way returns way w of set s.
func (c *Cache) way(s, w int) *line { return &c.lines[s*c.cfg.Ways+w] }

// TestSnapshotRoundTrip checks that restoring a snapshot into a fresh,
// identically-configured cache reproduces it byte for byte: tags, line
// states, LRU timestamps and outcome counters all survive.
func TestSnapshotRoundTrip(t *testing.T) {
	src, err := New(snapConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	*src.way(0, 0) = line{tag: 0x80, state: valid, lastUse: 7}
	*src.way(0, 1) = line{tag: 0x200, state: valid, lastUse: 9}
	*src.way(3, 1) = line{tag: 0x380, state: valid, lastUse: 3}
	src.Accesses[Hit] = 5
	src.Accesses[Miss] = 2
	src.FillCount = 2

	b1 := snapBytes(t, src)
	dst, err := New(snapConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := dst.Restore(checkpoint.NewReader(b1)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if b2 := snapBytes(t, dst); !bytes.Equal(b1, b2) {
		t.Fatalf("re-snapshot differs: %d vs %d bytes", len(b1), len(b2))
	}
	if dst.Accesses[Hit] != 5 || dst.Accesses[Miss] != 2 || dst.FillCount != 2 {
		t.Errorf("counters not restored: %v fills %d", dst.Accesses, dst.FillCount)
	}
	if *dst.way(0, 1) != (line{tag: 0x200, state: valid, lastUse: 9}) {
		t.Errorf("line not restored: %+v", *dst.way(0, 1))
	}
}

// TestSnapshotPanicsWithInflightMiss checks the boundary invariant: a cache
// with a live MSHR entry refuses to serialize.
func TestSnapshotPanicsWithInflightMiss(t *testing.T) {
	c, err := New(snapConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Access(&memreq.Request{Block: 0x80}, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot of a busy cache did not panic")
		}
	}()
	c.Snapshot(checkpoint.NewWriter())
}

// TestRestoreRejections covers the refusal paths: a busy receiver, a
// geometry mismatch, a payload holding a reserved line, and truncation.
func TestRestoreRejections(t *testing.T) {
	src, err := New(snapConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	good := snapBytes(t, src)

	busy, _ := New(snapConfig())
	busy.Access(&memreq.Request{Block: 0x80}, 0, nil)
	if err := busy.Restore(checkpoint.NewReader(good)); err == nil || !strings.Contains(err.Error(), "in-flight") {
		t.Errorf("busy restore: %v", err)
	}

	narrow := snapConfig()
	narrow.Ways = 4
	mismatched, err := New(narrow)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := mismatched.Restore(checkpoint.NewReader(good)); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Errorf("geometry mismatch: %v", err)
	}

	*src.way(1, 0) = line{tag: 0x180, state: reserved, lastUse: 1}
	withReserved := snapBytes(t, src)
	dst, _ := New(snapConfig())
	if err := dst.Restore(checkpoint.NewReader(withReserved)); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Errorf("reserved-line payload: %v", err)
	}

	dst2, _ := New(snapConfig())
	if err := dst2.Restore(checkpoint.NewReader(good[:len(good)-4])); err == nil {
		t.Error("truncated payload accepted")
	}
}
