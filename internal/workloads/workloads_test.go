package workloads

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"critload/internal/dataflow"
	"critload/internal/emu"
	"critload/internal/ptx"
	"critload/internal/stats"
)

// smallSize gives per-workload reduced sizes for fast functional tests.
var smallSize = map[string]int{
	"2mm": 32, "gaus": 24, "grm": 24, "lu": 24, "spmv": 512,
	"htw": 64, "mriq": 64, "dwt": 64, "bpr": 256, "srad": 32,
	"bfs": 512, "sssp": 256, "ccl": 256, "mst": 128, "mis": 256,
}

// setupSmall builds a small instance of the named workload.
func setupSmall(t *testing.T, name string) *Instance {
	t.Helper()
	w, ok := Get(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	inst, err := w.Setup(Params{Size: smallSize[name], Seed: 42})
	if err != nil {
		t.Fatalf("Setup(%s): %v", name, err)
	}
	return inst
}

// TestAllWorkloadsFunctionallyCorrect runs every registered workload on the
// functional emulator and checks the device results against the CPU
// reference.
func TestAllWorkloadsFunctionallyCorrect(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			inst := setupSmall(t, name)
			exec := FunctionalExecutor(inst.Mem, nil, 0)
			if err := inst.Run(exec); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := inst.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

// TestMemoryBoundSizeVariants verifies the 4x input of the benchmark's
// sim-memlat workload (grm/192): the generator must scale to that size and
// still pass its CPU reference check.
func TestMemoryBoundSizeVariants(t *testing.T) {
	t.Run("grm-192", func(t *testing.T) {
		if testing.Short() {
			t.Skip("multi-second functional run")
		}
		w, ok := Get("grm")
		if !ok {
			t.Fatal("workload grm not registered")
		}
		inst, err := w.Setup(Params{Size: 192, Seed: 1})
		if err != nil {
			t.Fatalf("Setup: %v", err)
		}
		if err := inst.Run(FunctionalExecutor(inst.Mem, nil, 0)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := inst.Verify(); err != nil {
			t.Fatalf("Verify: %v", err)
		}
	})
}

// TestWorkloadMetadata checks the registry matches Table I's structure.
func TestWorkloadMetadata(t *testing.T) {
	names := Names()
	if len(names) != 15 {
		t.Fatalf("registered workloads = %d, want 15", len(names))
	}
	want := []string{"2mm", "gaus", "grm", "lu", "spmv", "htw", "mriq", "dwt", "bpr", "srad", "bfs", "sssp", "ccl", "mst", "mis"}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], n)
		}
	}
	perCategory := map[Category]int{}
	for _, w := range All() {
		perCategory[w.Category]++
		if w.Description == "" || w.DataSet == "" {
			t.Errorf("%s: missing metadata", w.Name)
		}
	}
	for _, c := range []Category{Linear, Image, Graph} {
		if perCategory[c] != 5 {
			t.Errorf("%s workloads = %d, want 5", c, perCategory[c])
		}
	}
}

// TestWorkloadInstancesExposeGeometry checks the Table I geometry fields.
func TestWorkloadInstancesExposeGeometry(t *testing.T) {
	for _, name := range Names() {
		inst := setupSmall(t, name)
		if inst.CTAs <= 0 || inst.ThreadsPerCTA <= 0 {
			t.Errorf("%s: geometry %d CTAs × %d threads", name, inst.CTAs, inst.ThreadsPerCTA)
		}
	}
}

// classifierFor builds a per-kernel map of stats classifiers.
func classifierFor(inst *Instance) map[string]stats.Classifier {
	out := map[string]stats.Classifier{}
	for _, k := range inst.Prog.Kernels {
		res := dataflow.Classify(k)
		out[k.Name] = func(pc uint32) bool {
			li, ok := res.Load(int(pc) / 8)
			return ok && li.Class == dataflow.NonDeterministic
		}
	}
	return out
}

// TestCategoriesShowExpectedLoadMix checks the paper's Figure 1 shape: the
// graph workloads execute non-deterministic loads, the dense linear algebra
// ones do not.
func TestCategoriesShowExpectedLoadMix(t *testing.T) {
	nondetFraction := func(name string) float64 {
		inst := setupSmall(t, name)
		col := stats.New()
		classifiers := classifierFor(inst)
		var current stats.Classifier
		listener := func(ctaID int, w *emu.Warp, s *emu.Step) {
			col.ObserveStep(ctaID, s, current)
		}
		exec := func(l *emu.Launch) error {
			current = classifiers[l.Kernel.Name]
			e := FunctionalExecutor(inst.Mem, listener, 0)
			return e(l)
		}
		if err := inst.Run(exec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, nd := col.LoadFraction()
		return nd
	}

	for _, name := range []string{"2mm", "gaus", "lu", "grm"} {
		if f := nondetFraction(name); f != 0 {
			t.Errorf("%s: non-deterministic fraction %v, want 0", name, f)
		}
	}
	for _, name := range []string{"bfs", "sssp", "mis", "ccl", "mst", "spmv"} {
		if f := nondetFraction(name); f <= 0.05 {
			t.Errorf("%s: non-deterministic fraction %v, want > 0.05", name, f)
		}
	}
}

// TestSizeKnobs holds every built-in to its size knob: it runs and verifies
// at Size.Min, at 17 and at Size.Default, and at Size.Max the heap Setup
// allocates plus the device memory it reserves stays within Budget. 17 is a
// partial tile everywhere and is narrower than spmv's column band. The Max
// cases run first and one at a time, because heap growth is read
// process-wide.
func TestSizeKnobs(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name+"/max", func(t *testing.T) {
			if _, err := w.Setup(Params{Size: w.Size.Max + 1}); err == nil || !strings.Contains(err.Error(), "size") {
				t.Errorf("size Max+1 = %d: err %v, want one naming size", w.Size.Max+1, err)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			inst, err := w.Setup(Params{Size: w.Size.Max, Seed: 1})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("Setup(%d): %v", w.Size.Max, err)
			}
			used := after.TotalAlloc - before.TotalAlloc + uint64(inst.Mem.Allocated())
			if used > Budget {
				t.Errorf("Setup(%d) takes %d bytes, over the %d budget", w.Size.Max, used, Budget)
			}
		})
	}
	for _, w := range All() {
		for _, n := range []int{w.Size.Min, 17, w.Size.Default} {
			t.Run(fmt.Sprintf("%s/%d", w.Name, n), func(t *testing.T) {
				t.Parallel()
				inst, err := w.Setup(Params{Size: n, Seed: 1})
				if err != nil {
					t.Fatalf("Setup: %v", err)
				}
				if err := inst.Run(FunctionalExecutor(inst.Mem, nil, 0)); err != nil {
					t.Fatalf("Run: %v", err)
				}
				if err := inst.Verify(); err != nil {
					t.Fatalf("Verify: %v", err)
				}
			})
		}
	}
}

// TestSetupSharesOneProgram: a built-in's program is parsed once and every
// instance runs the same read-only copy, including instances set up
// concurrently and a first parse raced from many goroutines.
func TestSetupSharesOneProgram(t *testing.T) {
	w, _ := Get("srad")
	want, _ := w.Program()
	fresh := &Workload{Name: "srad", src: sradSrc}
	var wg sync.WaitGroup
	progs := make([]*ptx.Program, 8)
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				progs[i], _ = fresh.Program()
				return
			}
			inst, err := w.Setup(Params{Size: 16, Seed: int64(i)})
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = inst.Prog
		}()
	}
	wg.Wait()
	first, _ := fresh.Program()
	for i, p := range progs {
		if i%2 == 0 && p != first || i%2 == 1 && p != want {
			t.Errorf("goroutine %d got program %p, want one shared copy", i, p)
		}
	}
}
