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
// the checkpoint oracle: for every workload, a serial cold run populates a
// checkpoint store, then each engine re-runs warm from those checkpoints and
// must reproduce its own cold run byte-for-byte (collector, cycle counts,
// verified outputs). Sharing one store across engines also proves checkpoints
// written by one engine restore correctly under another — the prefix key
// deliberately ignores engine selection.
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
			store, err := checkpoint.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			base := experiments.Options{Size: size, Seed: 7}

			// Populate the store with a serial cold run.
			seedOpts := base
			seedCfg := ckptEngines[0].cfg()
			seedOpts.GPU = &seedCfg
			seedOpts.Checkpoints = store
			seeded, err := experiments.RunTiming(name, seedOpts)
			if err != nil {
				t.Fatalf("seeding run: %v", err)
			}
			if seeded.WarmStartIndex != 0 {
				t.Fatalf("seeding run warm-started at %d over an empty store", seeded.WarmStartIndex)
			}

			for _, eng := range ckptEngines {
				eng := eng
				t.Run(eng.name, func(t *testing.T) {
					cold := base
					cfg := eng.cfg()
					cold.GPU = &cfg
					ref, err := experiments.RunTiming(name, cold)
					if err != nil {
						t.Fatalf("cold run: %v", err)
					}

					warm := cold
					warm.Checkpoints = store
					got, err := experiments.RunTiming(name, warm)
					if err != nil {
						t.Fatalf("warm run: %v", err)
					}
					if got.WarmStartIndex < 1 {
						t.Fatalf("warm run did not resume (WarmStartIndex = %d)", got.WarmStartIndex)
					}
					if got.WarmStartCycles <= 0 {
						t.Fatalf("warm run inherited %d cycles", got.WarmStartCycles)
					}
					if diffs := experiments.DiffRuns(ref, got); len(diffs) > 0 {
						t.Fatalf("warm run diverges from cold:\n%s", diffs[0])
					}
					if err := got.Instance.Verify(); err != nil {
						t.Fatalf("warm run failed verification: %v", err)
					}
				})
			}

			if st := store.Stats(); st.Hits == 0 || st.CyclesSkipped == 0 {
				t.Fatalf("store never warm-started a run: %+v", st)
			}
		})
	}
}
