package difftest

import (
	"testing"

	"critload/internal/checkpoint"
	"critload/internal/experiments"
	"critload/internal/gpu"
	"critload/internal/workloads"
)

// ckptSmokeSizes mirrors the experiments package's timing smoke sizes: the
// smallest problem per workload that still exercises multiple CTAs and, for
// the iterative workloads, multiple kernel launches.
var ckptSmokeSizes = map[string]int{
	"2mm": 32, "gaus": 24, "grm": 24, "lu": 24, "spmv": 1024,
	"htw": 32, "mriq": 256, "dwt": 64, "bpr": 512, "srad": 32,
	"bfs": 1024, "sssp": 512, "ccl": 512, "mst": 256, "mis": 512,
}

// ckptEngines are the two cycle engines the checkpoint oracle must hold across.
var ckptEngines = []struct {
	name string
	cfg  func() gpu.Config
}{
	{"serial", func() gpu.Config {
		cfg := gpu.DefaultConfig()
		cfg.FastForward = false
		return cfg
	}},
	{"ff", gpu.DefaultConfig},
}

// TestCheckpointResumeMatchesColdAllWorkloads is the workload-scale half of
// the checkpoint oracle, run across engines: for every workload, each engine
// runs cold while populating its own checkpoint store, then re-runs warm from
// the *other* engine's store and must reproduce its own cold run
// byte-for-byte (collector, cycle counts, verified outputs). A snapshot the
// fast-forward engine writes carries its skip caches into the serial engine
// and vice versa, so this proves those caches are inert at a launch boundary;
// the prefix key deliberately ignores engine selection.
func TestCheckpointResumeMatchesColdAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep; skipped in -short mode")
	}
	for _, name := range workloads.Names() {
		size, ok := ckptSmokeSizes[name]
		if !ok {
			t.Fatalf("no smoke size for workload %q", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := experiments.Options{Size: size, Seed: 7}

			// Each engine's seeding run is also its cold reference: saving
			// checkpoints never changes a run, and DiffRuns compares cycles
			// and collectors only.
			stores := make([]*checkpoint.Store, len(ckptEngines))
			refs := make([]*experiments.Run, len(ckptEngines))
			for i, eng := range ckptEngines {
				store, err := checkpoint.Open(t.TempDir(), 0)
				if err != nil {
					t.Fatal(err)
				}
				opts := base
				cfg := eng.cfg()
				opts.GPU = &cfg
				opts.Checkpoints = store
				ref, err := experiments.RunTiming(name, opts)
				if err != nil {
					t.Fatalf("%s seeding run: %v", eng.name, err)
				}
				if ref.WarmStartIndex != 0 {
					t.Fatalf("%s seeding run warm-started at %d over an empty store", eng.name, ref.WarmStartIndex)
				}
				stores[i], refs[i] = store, ref
			}

			for i, eng := range ckptEngines {
				from := (i + 1) % len(ckptEngines)
				t.Run(eng.name, func(t *testing.T) {
					warm := base
					cfg := eng.cfg()
					warm.GPU = &cfg
					warm.Checkpoints = stores[from]
					got, err := experiments.RunTiming(name, warm)
					if err != nil {
						t.Fatalf("warm run from %s checkpoints: %v", ckptEngines[from].name, err)
					}
					if got.WarmStartIndex < 1 {
						t.Fatalf("warm run did not resume (WarmStartIndex = %d)", got.WarmStartIndex)
					}
					if got.WarmStartCycles <= 0 {
						t.Fatalf("warm run inherited %d cycles", got.WarmStartCycles)
					}
					if diffs := experiments.DiffRuns(refs[i], got); len(diffs) > 0 {
						t.Fatalf("warm run from %s checkpoints diverges from cold:\n%s", ckptEngines[from].name, diffs[0])
					}
					if err := got.Instance.Verify(); err != nil {
						t.Fatalf("warm run failed verification: %v", err)
					}
				})
			}

			for i, store := range stores {
				if st := store.Stats(); st.Hits == 0 || st.CyclesSkipped == 0 {
					t.Fatalf("%s store never warm-started a run: %+v", ckptEngines[i].name, st)
				}
			}
		})
	}
}
