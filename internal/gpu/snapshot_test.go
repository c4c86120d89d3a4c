package gpu

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"critload/internal/mem"
	"critload/internal/stats"
)

// vecAddDevice runs one vecadd launch on a fresh device and returns the
// device plus the launch ingredients needed to repeat the kernel.
func vecAddDevice(t *testing.T) (*GPU, *mem.Memory, *stats.Collector, []uint32) {
	t.Helper()
	m := mem.New()
	const n = 1024
	a := make([]uint32, n)
	b := make([]uint32, n)
	for i := range a {
		a[i] = uint32(i)
		b[i] = uint32(2 * i)
	}
	aB, bB := m.AllocU32s(a), m.AllocU32s(b)
	cB := m.Alloc(4 * n)
	col := stats.New()
	g := MustNew(testConfig(), m, col)
	l := launchOf(t, vecAddSrc, "vecadd", n/256, 256, aB, bB, cB, n)
	if err := g.LaunchKernel(l); err != nil {
		t.Fatalf("LaunchKernel: %v", err)
	}
	return g, m, col, []uint32{aB, bB, cB, n}
}

// TestDeviceSnapshotRoundTripAndResume checks the whole-device contract: a
// snapshot taken after a launch restores into a fresh device byte for byte,
// and resuming with a second launch on the restored device reproduces the
// straight-through run exactly — cycles, collector and memory.
func TestDeviceSnapshotRoundTripAndResume(t *testing.T) {
	g, m, col, params := vecAddDevice(t)
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	m2 := mem.New()
	col2 := stats.New()
	g2 := MustNew(testConfig(), m2, col2)
	if err := g2.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	snap2, err := g2.Snapshot()
	if err != nil {
		t.Fatalf("re-Snapshot: %v", err)
	}
	if !bytes.Equal(snap, snap2) {
		t.Fatalf("re-snapshot differs: %d vs %d bytes", len(snap), len(snap2))
	}

	// Resume: run the same kernel again on both devices.
	aB, bB, cB, n := params[0], params[1], params[2], params[3]
	for _, run := range []struct {
		g *GPU
	}{{g}, {g2}} {
		l := launchOf(t, vecAddSrc, "vecadd", int(n)/256, 256, aB, bB, cB, n)
		if err := run.g.LaunchKernel(l); err != nil {
			t.Fatalf("resume LaunchKernel: %v", err)
		}
	}
	if g.Cycle() != g2.Cycle() {
		t.Errorf("resumed cycle %d, straight-through %d", g2.Cycle(), g.Cycle())
	}
	if !reflect.DeepEqual(col, col2) {
		t.Errorf("resumed collector differs from straight-through")
	}
	for i := uint32(0); i < n; i++ {
		if got, want := m2.Read32(cB+4*i), m.Read32(cB+4*i); got != want {
			t.Fatalf("resumed c[%d] = %d, straight-through %d", i, got, want)
		}
	}
}

// TestArchClearsEngineAndBudgetFields checks the checkpoint-key ingredient:
// two configurations differing only in engine selection or run budgets have
// equal Arch().
func TestArchClearsEngineAndBudgetFields(t *testing.T) {
	base := DefaultConfig()
	varied := DefaultConfig()
	varied.FastForward = false
	varied.MaxCycles = 123
	varied.MaxWarpInsts = 456
	if base.Arch() != varied.Arch() {
		t.Errorf("Arch() differs across engine/budget fields:\n%+v\n%+v", base.Arch(), varied.Arch())
	}
	archDiff := DefaultConfig()
	archDiff.NumSMs = 7
	if base.Arch() == archDiff.Arch() {
		t.Error("Arch() hides an SM-count difference")
	}
}

// TestRestoreRejections covers the refusal paths: a geometry mismatch and a
// truncated payload.
func TestRestoreRejections(t *testing.T) {
	g, _, _, _ := vecAddDevice(t)
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	cfg := testConfig()
	cfg.NumSMs = 7
	mismatched := MustNew(cfg, mem.New(), stats.New())
	if err := mismatched.Restore(snap); err == nil || !strings.Contains(err.Error(), "SMs") {
		t.Errorf("SM-count mismatch: %v", err)
	}

	dst := MustNew(testConfig(), mem.New(), stats.New())
	if err := dst.Restore(snap[:len(snap)-16]); err == nil {
		t.Error("truncated payload accepted")
	}
}
