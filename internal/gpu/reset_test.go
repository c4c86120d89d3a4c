package gpu

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"critload/internal/cache"
	"critload/internal/mem"
	"critload/internal/stats"
	"critload/internal/workloads"
)

// TestResetEqualsNew pins the reset a released device goes through: after a
// complete run, reset and bound to fresh memory and a fresh collector, the
// device must snapshot byte for byte like one built from scratch. srad fills
// the L2 slices and keeps the DRAM channels busy; bfs's uncoalesced loads
// park SMs on refused L1 heads.
func TestResetEqualsNew(t *testing.T) {
	for name, size := range map[string]int{"srad": 32, "bfs": 1024} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloads.Get(name)
			inst, err := w.Setup(workloads.Params{Size: size, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			g, err := build(cfg, inst.Mem, stats.New())
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Run(g.LaunchKernel); err != nil {
				t.Fatal(err)
			}
			if p := g.parts[0]; p.l2.Accesses[cache.Miss] == 0 || p.ch.Serviced == 0 {
				t.Fatalf("run left no L2 or DRAM state to reset")
			}
			g.reset()
			g.bind(cfg, mem.New(), stats.New())
			fresh, err := build(cfg, mem.New(), stats.New())
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("reset device snapshots differently from a new one (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestReleasePoolsOnlyCleanBoundaries pins which devices Release pools: a
// fast-forward device at a clean boundary, in its own architecture's pool.
// A naive device, a budget-stopped one, one whose launch failed and one
// whose Restore failed are dropped.
func TestReleasePoolsOnlyCleanBoundaries(t *testing.T) {
	clean := DefaultConfig()
	srad := func(t *testing.T, cfg Config) (*GPU, error) {
		t.Helper()
		w, _ := workloads.Get("srad")
		inst, err := w.Setup(workloads.Params{Size: 32, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		g, err := build(cfg, inst.Mem, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		return g, inst.Run(g.LaunchKernel)
	}
	// pooled releases g and reports whether it landed in cfg's pool, which
	// it empties.
	pooled := func(cfg Config, g *GPU) bool {
		g.Release()
		found := false
		for p := poolOf(cfg); ; {
			d := p.get()
			if d == nil {
				return found
			}
			found = found || d == g
		}
	}

	g, err := srad(t, clean)
	if err != nil {
		t.Fatal(err)
	}
	if !pooled(clean, g) {
		t.Errorf("a clean fast-forward device was not pooled")
	}

	ablation := clean
	ablation.SM.NonDetBypassL1 = true
	g, err = srad(t, ablation)
	if err != nil {
		t.Fatal(err)
	}
	if pooled(clean, g) {
		t.Errorf("an ablation device reached the default configuration's pool")
	}

	naive := clean
	naive.FastForward = false
	budget := clean
	budget.MaxWarpInsts = 2000
	livelock := clean
	livelock.MaxCycles = 1000
	for _, c := range []struct {
		name    string
		cfg     Config
		wantErr bool
	}{{"naive", naive, false}, {"budget-stopped", budget, false}, {"failed launch", livelock, true}} {
		g, err := srad(t, c.cfg)
		if (err != nil) != c.wantErr {
			t.Fatalf("%s: run error %v", c.name, err)
		}
		if c.cfg.MaxWarpInsts > 0 && !g.stopIssue {
			t.Fatalf("%s: the run did not reach its budget", c.name)
		}
		if pooled(c.cfg, g) {
			t.Errorf("%s device was pooled", c.name)
		}
	}

	g, err = srad(t, clean)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Restore([]byte("not a snapshot")); err == nil {
		t.Fatal("Restore of junk succeeded")
	}
	if pooled(clean, g) {
		t.Errorf("a device whose Restore failed was pooled")
	}
}

// TestIdleDevicesAgeOut pins the pools' retention: a device idle across a
// whole collection cycle is dropped at the next collection, and the
// collector drives that without anyone calling into the package.
func TestIdleDevicesAgeOut(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMs = 3 // an architecture of its own, so no other test's devices
	p := poolOf(cfg)
	g := MustNew(cfg, nil, nil)
	g.Release()
	p.age()
	if d := p.get(); d != g {
		t.Fatalf("a device released just before a collection was dropped")
	}
	g.Release()
	p.age()
	p.age()
	if p.get() != nil {
		t.Fatalf("a device idle across a whole collection cycle was kept")
	}
	g.Release()
	idle := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.fresh)+len(p.aged) > 0
	}
	for i := 0; i < 100 && idle(); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if idle() {
		t.Fatalf("collections did not drain an idle device")
	}
}
