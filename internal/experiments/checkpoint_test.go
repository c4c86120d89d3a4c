package experiments

import (
	"encoding/hex"
	"reflect"
	"testing"

	"critload/internal/checkpoint"
	"critload/internal/gpu"
)

// TestPrefixKeyInvariants pins the prefix-key contract: engine selection and
// run-length budgets must not split the keyspace (all engines are
// byte-identical and budget validity is checked at load time), while anything
// architectural must.
func TestPrefixKeyInvariants(t *testing.T) {
	base := gpu.DefaultConfig()
	ref := prefixKey("2mm", 32, 7, base)

	neutral := map[string]func(*gpu.Config){
		"fastforward": func(c *gpu.Config) { c.FastForward = !c.FastForward },
		"max-cycles":  func(c *gpu.Config) { c.MaxCycles = 123 },
		"max-insts":   func(c *gpu.Config) { c.MaxWarpInsts = 456 },
	}
	for name, mutate := range neutral {
		cfg := base
		mutate(&cfg)
		if prefixKey("2mm", 32, 7, cfg) != ref {
			t.Errorf("%s changed the prefix key; sweeps over it cannot share checkpoints", name)
		}
	}

	distinct := map[string]checkpoint.Key{
		"workload": prefixKey("lu", 32, 7, base),
		"size":     prefixKey("2mm", 64, 7, base),
		"seed":     prefixKey("2mm", 32, 8, base),
	}
	archCfg := base
	archCfg.NumSMs++
	distinct["arch"] = prefixKey("2mm", 32, 7, archCfg)
	for name, k := range distinct {
		if k == ref {
			t.Errorf("%s did not change the prefix key; foreign state could be restored", name)
		}
	}
}

// TestPrefixKeyGoldenHash pins the on-disk identity of stored checkpoints: a
// change to the key material (a gpu.Config field added, removed or renamed,
// a default retuned) silently orphans every file in a checkpoint store, so it
// must show up here and be made deliberately — bump the schema version in
// prefixKey, then update the hash.
func TestPrefixKeyGoldenHash(t *testing.T) {
	const want = "3467997db3718106b7d03c870a0263244982f2bfdb475108f517ec2bff62efd0"
	key := prefixKey("2mm", 32, 7, gpu.DefaultConfig())
	if got := hex.EncodeToString(key[:]); got != want {
		t.Errorf("prefixKey(2mm, 32, 7, DefaultConfig) = %s, want %s", got, want)
	}
}

// TestPrefixKeyFieldAudit forces every gpu.Config field to be classified:
// architectural (it shapes simulated state, so Arch() must keep it and the
// prefix key must split on it) or engine/budget (provably state-neutral, so
// Arch() must clear it). Adding a field without deciding fails here rather
// than shipping a key that restores foreign state — or one that splits
// byte-identical configurations.
func TestPrefixKeyFieldAudit(t *testing.T) {
	architectural := map[string]bool{
		"NumSMs": true, "NumPartitions": true, "SM": true, "L2": true,
		"ICNT": true, "DRAM": true, "CTAPolicy": true, "L2Clusters": true,
	}
	// Neutral by the differential-testing contract (FastForward) or checked
	// against the stored checkpoint at load time (the two budgets).
	neutral := map[string]bool{
		"FastForward": true, "MaxCycles": true, "MaxWarpInsts": true,
	}

	cfg := gpu.DefaultConfig()
	cfg.CTAPolicy = gpu.CTAClustered
	cfg.L2Clusters = 2
	cfg.MaxCycles = 123
	cfg.MaxWarpInsts = 456
	full, arch := reflect.ValueOf(cfg), reflect.ValueOf(cfg.Arch())
	for i := 0; i < full.NumField(); i++ {
		name := full.Type().Field(i).Name
		if full.Field(i).IsZero() {
			t.Errorf("audit fixture leaves Config.%s zero; give it a value so clearing is observable", name)
		}
		switch {
		case architectural[name]:
			if !reflect.DeepEqual(full.Field(i).Interface(), arch.Field(i).Interface()) {
				t.Errorf("Arch() altered architectural field %s", name)
			}
		case neutral[name]:
			if !arch.Field(i).IsZero() {
				t.Errorf("Arch() kept engine/budget field %s; byte-identical runs would get different prefix keys", name)
			}
		default:
			t.Errorf("gpu.Config field %s is not classified: decide whether it shapes simulated state, handle it in Config.Arch(), bump the prefix-key schema, then update this audit", name)
		}
		delete(architectural, name)
		delete(neutral, name)
	}
	for name := range architectural {
		t.Errorf("audit lists architectural field %s that gpu.Config no longer has", name)
	}
	for name := range neutral {
		t.Errorf("audit lists engine/budget field %s that gpu.Config no longer has", name)
	}
}

// TestWarmStartFallsBackOnCorruptPayload proves the never-poison contract: a
// structurally intact store entry whose payload is not a device snapshot must
// degrade the run to a cold start that still produces correct results.
func TestWarmStartFallsBackOnCorruptPayload(t *testing.T) {
	ref, err := RunTiming("gaus", Options{Size: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	store, err := checkpoint.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Size: 24, Seed: 7, Checkpoints: store}
	key := prefixKey("gaus", 24, 7, opts.gpuConfig())
	if err := store.Save(key, checkpoint.Meta{Index: 1, Cycle: 10, WarpInsts: 10},
		[]byte("not a device snapshot")); err != nil {
		t.Fatal(err)
	}

	got, err := RunTiming("gaus", opts)
	if err != nil {
		t.Fatalf("run with poisoned store: %v", err)
	}
	if got.WarmStartIndex != 0 {
		t.Fatalf("run warm-started from a corrupt payload (index %d)", got.WarmStartIndex)
	}
	if diffs := DiffRuns(ref, got); len(diffs) > 0 {
		t.Fatalf("cold fallback diverges from reference:\n%s", diffs[0])
	}
	if err := got.Instance.Verify(); err != nil {
		t.Fatalf("cold fallback failed verification: %v", err)
	}
}

// TestWarmStartRespectsBudgets proves load-time validity: a checkpoint deeper
// than the run's instruction budget must not be restored, and a tighter
// budget reproduces the cold run of that budget exactly.
func TestWarmStartRespectsBudgets(t *testing.T) {
	store, err := checkpoint.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Populate from a complete run.
	full, err := RunTiming("srad", Options{Size: 32, Seed: 7, Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Saves == 0 {
		t.Fatalf("complete run saved nothing: %+v", st)
	}

	// A budget below the first boundary: nothing to resume from.
	budget := uint64(100)
	ref, err := RunTiming("srad", Options{Size: 32, Seed: 7, MaxWarpInsts: budget})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunTiming("srad", Options{Size: 32, Seed: 7, MaxWarpInsts: budget, Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	if got.WarmStartIndex != 0 {
		t.Fatalf("tiny budget warm-started at %d; checkpoint deeper than the window", got.WarmStartIndex)
	}
	if diffs := DiffRuns(ref, got); len(diffs) > 0 {
		t.Fatalf("budgeted run with store diverges:\n%s", diffs[0])
	}

	// A mid-run budget: resume is allowed but only from a boundary strictly
	// inside the window, and the result still matches the budgeted cold run.
	budget = full.Col.WarpInsts / 2
	ref, err = RunTiming("srad", Options{Size: 32, Seed: 7, MaxWarpInsts: budget})
	if err != nil {
		t.Fatal(err)
	}
	got, err = RunTiming("srad", Options{Size: 32, Seed: 7, MaxWarpInsts: budget, Checkpoints: store})
	if err != nil {
		t.Fatal(err)
	}
	if got.WarmStartIndex > 0 && got.WarmStartCycles >= ref.Cycles {
		t.Fatalf("resumed past the measurement window: inherited %d of %d cycles",
			got.WarmStartCycles, ref.Cycles)
	}
	if diffs := DiffRuns(ref, got); len(diffs) > 0 {
		t.Fatalf("mid-budget run with store diverges:\n%s", diffs[0])
	}
}
