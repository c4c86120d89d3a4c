package gpu

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"

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
// fast-forward device at a clean boundary, taken only by its own
// architecture.
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
	// pooled releases g and reports whether it landed in the idle list
	// under cfg's architecture, whose devices it takes out.
	pooled := func(cfg Config, g *GPU) bool {
		g.Release()
		found := false
		for d := takeIdle(cfg); d != nil; d = takeIdle(cfg) {
			found = found || d == g
		}
		return found
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
		t.Errorf("an ablation device was taken for the default configuration")
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

// idleDevices is the idle list as it stands, oldest first.
func idleDevices() []*GPU {
	idle.Lock()
	defer idle.Unlock()
	return slices.Clone(idle.devs)
}

// TestIdleDevicesBounded pins the idle list's retention rule: it keeps the
// GOMAXPROCS most recently released devices whatever their architecture, New
// takes the newest of its own architecture, and collections drop nothing.
func TestIdleDevicesBounded(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// Two devices of one architecture must fit to tell newest from oldest.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	n := runtime.GOMAXPROCS(0)
	// Architectures of their own, so no other test's devices match.
	three, four := DefaultConfig(), DefaultConfig()
	three.NumSMs, four.NumSMs = 3, 4
	// Two devices of four, then n of three, released oldest first.
	devs := make([]*GPU, n+2)
	for i := range devs {
		cfg := three
		if i < 2 {
			cfg = four
		}
		g, err := build(cfg, mem.New(), stats.New())
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = g
	}
	for _, g := range devs {
		g.Release()
		runtime.GC()
	}
	for i := 0; i < 3; i++ {
		if got := idleDevices(); !slices.Equal(got, devs[2:]) {
			t.Fatalf("after %d collections the idle list holds %d devices, want exactly the %d newest released", i, len(got), n)
		}
		runtime.GC()
	}
	if g := MustNew(four, nil, nil); slices.Contains(devs, g) {
		t.Fatalf("New of architecture four took a dropped or foreign device")
	}
	for i := n + 1; i >= 2; i-- {
		if g := MustNew(three, nil, nil); g != devs[i] {
			t.Fatalf("New took released device %d, want %d, the newest left of its architecture", slices.Index(devs, g), i)
		}
		runtime.GC()
	}
	if g := MustNew(three, nil, nil); slices.Contains(devs, g) {
		t.Fatalf("New took a device the idle list had dropped")
	}
}

// TestIdleListConcurrent takes and releases devices of two architectures from
// four goroutines: no device may be handed to two holders at once, and the
// idle list never grows past GOMAXPROCS.
func TestIdleListConcurrent(t *testing.T) {
	three, four := DefaultConfig(), DefaultConfig()
	three.NumSMs, four.NumSMs = 3, 4
	var mu sync.Mutex
	held := map[*GPU]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				cfg := three
				if (w+r)%2 == 1 {
					cfg = four
				}
				g := MustNew(cfg, nil, nil)
				mu.Lock()
				twice := held[g]
				held[g] = true
				mu.Unlock()
				if twice {
					t.Errorf("a device was handed to two holders at once")
					return
				}
				runtime.Gosched()
				mu.Lock()
				delete(held, g)
				mu.Unlock()
				g.Release()
				if n := len(idleDevices()); n > runtime.GOMAXPROCS(0) {
					t.Errorf("the idle list holds %d devices, more than GOMAXPROCS", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}
