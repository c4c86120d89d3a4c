package sm

import (
	"bytes"
	"strings"
	"testing"

	"critload/internal/checkpoint"
)

func snapBytes(t *testing.T, s *SM) []byte {
	t.Helper()
	w := checkpoint.NewWriter()
	s.Snapshot(w)
	return w.Bytes()
}

// TestSnapshotRoundTrip checks that the state persisting across kernel
// boundaries — function-unit horizons, scheduler cursors, warp-age counter,
// stall cache and monotonic counters — survives a restore into a fresh SM
// byte for byte.
func TestSnapshotRoundTrip(t *testing.T) {
	src, _, _ := newTestSM(t)
	src.unitBusyUntil[0] = 57
	src.unitBusyUntil[len(src.unitBusyUntil)-1] = 91
	for i := range src.rr {
		src.rr[i] = i + 1
	}
	src.age = 17
	src.lastIssue = 204
	src.stallUntil = 250
	src.nextReqID = 99
	src.InstructionsIssued = 12345

	b1 := snapBytes(t, src)
	dst, _, _ := newTestSM(t)
	if err := dst.Restore(checkpoint.NewReader(b1)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if b2 := snapBytes(t, dst); !bytes.Equal(b1, b2) {
		t.Fatalf("re-snapshot differs: %d vs %d bytes", len(b1), len(b2))
	}
	if dst.unitBusyUntil[0] != 57 || dst.age != 17 || dst.lastIssue != 204 ||
		dst.stallUntil != 250 || dst.nextReqID != 99 || dst.InstructionsIssued != 12345 {
		t.Errorf("state not restored: %+v", dst.unitBusyUntil)
	}
	for i := range dst.rr {
		if dst.rr[i] != i+1 {
			t.Errorf("rr[%d] = %d, want %d", i, dst.rr[i], i+1)
		}
	}
}

// TestSnapshotPanicsOnBusySM checks the boundary invariant: an SM holding a
// CTA refuses to serialize.
func TestSnapshotPanicsOnBusySM(t *testing.T) {
	s, _, _ := newTestSM(t)
	s.ctas = append(s.ctas, &ctaCtx{})
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot of a busy SM did not panic")
		}
	}()
	s.Snapshot(checkpoint.NewWriter())
}

// TestSnapshotRequiresFlushedIdleWindow checks the same invariant for lazily
// accounted occupancy: a drained fast-forward SM is frozen with an idle window
// open, refuses to serialize until FlushIdle folds the window in, and has then
// recorded every cycle it was stepped.
func TestSnapshotRequiresFlushedIdleWindow(t *testing.T) {
	s, _, col := newTestSM(t)
	s.SetFastForward(true)
	launchOn(t, s, mustKernel(t, ".kernel k\n    mov.u32 %r0, 1;\n    add.u32 %r1, %r0, 2;\n    exit;\n"), 64)
	end := run(t, s, 1000) + 50
	for now := end - 49; now < end; now++ {
		if err := s.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	if s.idleFrom == 0 {
		t.Fatal("a drained fast-forward SM has no idle window open")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Snapshot with an open idle window did not panic")
			}
		}()
		s.Snapshot(checkpoint.NewWriter())
	}()
	s.FlushIdle(end)
	snapBytes(t, s)
	if col.SMCycles != uint64(end) {
		t.Errorf("%d SM cycles recorded over cycles 0..%d", col.SMCycles, end-1)
	}
}

// TestRestoreRejections covers the refusal paths: a busy receiver, a payload
// with a foreign scheduler count, and truncation.
func TestRestoreRejections(t *testing.T) {
	src, _, _ := newTestSM(t)
	good := snapBytes(t, src)

	busy, _, _ := newTestSM(t)
	busy.inflight = 1
	if err := busy.Restore(checkpoint.NewReader(good)); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Errorf("busy restore: %v", err)
	}

	dst, _, _ := newTestSM(t)
	if err := dst.Restore(checkpoint.NewReader(good[:len(good)-8])); err == nil {
		t.Error("truncated payload accepted")
	}
}
