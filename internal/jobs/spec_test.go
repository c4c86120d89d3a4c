package jobs

import (
	"context"
	"reflect"
	"testing"
	"time"

	"critload/internal/workloads"
)

func TestSpecKeyDerivation(t *testing.T) {
	base := Spec{Workload: "bfs", Mode: ModeTiming, Size: 1024, Seed: 7, MaxWarpInsts: 400_000}

	tests := []struct {
		name string
		a, b Spec
		same bool
	}{
		{"identical specs", base, base, true},
		{"timeout excluded from key",
			base, with(base, func(s *Spec) { s.Timeout = time.Minute }), true},
		{"reuse_checkpoints excluded from key",
			base, with(base, func(s *Spec) { s.ReuseCheckpoints = true }), true},
		{"different workload",
			base, with(base, func(s *Spec) { s.Workload = "sssp" }), false},
		{"different mode",
			base, with(base, func(s *Spec) { s.Mode = ModeFunctional }), false},
		{"different size",
			base, with(base, func(s *Spec) { s.Size = 2048 }), false},
		{"different seed",
			base, with(base, func(s *Spec) { s.Seed = 8 }), false},
		{"different instruction budget",
			base, with(base, func(s *Spec) { s.MaxWarpInsts = 100 }), false},
		{"different cycle bound",
			base, with(base, func(s *Spec) { s.MaxCycles = 1000 }), false},
		{"functional runs ignore the timing knobs",
			Spec{Workload: "bfs", Mode: ModeFunctional, Size: 1024, Seed: 7},
			Spec{Workload: "bfs", Mode: ModeFunctional, Size: 1024, Seed: 7,
				MaxWarpInsts: 9, MaxCycles: 9},
			true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ka, kb := tt.a.Key(), tt.b.Key()
			if (ka == kb) != tt.same {
				t.Errorf("keys %s / %s: equal=%v, want %v", ka, kb, ka == kb, tt.same)
			}
		})
	}
}

func with(s Spec, mut func(*Spec)) Spec {
	mut(&s)
	return s
}

func TestSpecValidate(t *testing.T) {
	dwt, _ := workloads.Get("dwt")
	mm, _ := workloads.Get("2mm")
	tests := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"valid functional", Spec{Workload: "bfs", Mode: ModeFunctional}, true},
		{"valid timing", Spec{Workload: "2mm", Mode: ModeTiming, Size: 32}, true},
		{"missing workload", Spec{Mode: ModeTiming}, false},
		{"unknown mode", Spec{Workload: "bfs", Mode: "warp-speed"}, false},
		{"negative size", Spec{Workload: "bfs", Mode: ModeTiming, Size: -1}, false},
		{"unknown workload", Spec{Workload: "nope", Mode: ModeTiming}, false},
		{"size 0 is the default", Spec{Workload: "dwt", Mode: ModeTiming, Size: 0}, true},
		{"size at min", Spec{Workload: "dwt", Mode: ModeTiming, Size: dwt.Size.Min}, true},
		{"size below min", Spec{Workload: "dwt", Mode: ModeTiming, Size: dwt.Size.Min - 1}, false},
		{"size at max", Spec{Workload: "2mm", Mode: ModeTiming, Size: mm.Size.Max}, true},
		{"size above max", Spec{Workload: "2mm", Mode: ModeTiming, Size: mm.Size.Max + 1}, false},
		{"12 GiB of 2mm", Spec{Workload: "2mm", Mode: ModeTiming, Size: 32768}, false},
		{"negative timeout", Spec{Workload: "bfs", Mode: ModeTiming, Timeout: -time.Second}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.spec.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

// TestSpecKeyGoldenHashes pins exact digests for canonical specs. Cache
// keys address both the in-memory cache and the on-disk result store, so
// any change to keyMaterial — a renamed JSON tag, a reordered field, a
// newly-included knob — silently orphans every persisted result. This test
// turns that silent invalidation into a loud, deliberate decision.
func TestSpecKeyGoldenHashes(t *testing.T) {
	golden := []struct {
		spec Spec
		want string
	}{
		{Spec{Workload: "bfs", Mode: ModeFunctional, Size: 1024, Seed: 7},
			"42c42b6cdde2bf58fe45c853e44bba973441778f8c1a3d4e0e266cfca59f7591"},
		{Spec{Workload: "srad", Mode: ModeTiming, Size: 32, Seed: 3},
			"3d40d0d7b4fbc7eea13e8f8da834a3d9cf6a4e6b77b7a8401ac4a8cfb7699f38"},
		{Spec{Workload: "2mm", Mode: ModeTiming, Size: 64, Seed: 1, MaxWarpInsts: 400_000, MaxCycles: 1_000_000},
			"123dc40739d550d6ea748f2ab900f7014d2b564b82a4fcf2d77d67149b7e736a"},
	}
	for _, g := range golden {
		if got := g.spec.Key().String(); got != g.want {
			t.Errorf("key for %s/%s changed:\n got %s\nwant %s\n(changing keyMaterial orphans every durably stored result — bump deliberately)",
				g.spec.Workload, g.spec.Mode, got, g.want)
		}
	}
}

// TestSpecKeyFieldAudit forces every Spec field to be classified: either
// it participates in the cache key (via keyMaterial) or it is explicitly
// excluded as result-neutral. Adding a field to Spec without deciding
// fails here rather than shipping a key that wrongly conflates — or
// wrongly splits — cached results.
func TestSpecKeyFieldAudit(t *testing.T) {
	keyed := map[string]bool{
		"Workload": true, "Mode": true, "Size": true, "Seed": true,
		"MaxWarpInsts": true, "MaxCycles": true,
	}
	// Result-neutral by design: Timeout bounds a run without changing what
	// a successful run produces; ReuseCheckpoints changes how fast a
	// timing result arrives, never its bytes (difftest's checkpoint oracle).
	excluded := map[string]bool{
		"Timeout": true, "ReuseCheckpoints": true,
	}

	st := reflect.TypeOf(Spec{})
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		if !keyed[name] && !excluded[name] {
			t.Errorf("Spec field %s is not classified: add it to keyMaterial or document why it is result-neutral, then update this audit", name)
		}
		delete(keyed, name)
		delete(excluded, name)
	}
	for name := range keyed {
		t.Errorf("audit lists keyed field %s that Spec no longer has", name)
	}
	for name := range excluded {
		t.Errorf("audit lists excluded field %s that Spec no longer has", name)
	}

	km := reflect.TypeOf(keyMaterial{})
	if got, want := km.NumField(), 6; got != want {
		t.Errorf("keyMaterial has %d fields, audit expects %d — keep the keyed set above in sync", got, want)
	}
	for i := 0; i < km.NumField(); i++ {
		name := km.Field(i).Name
		if _, ok := st.FieldByName(name); !ok {
			t.Errorf("keyMaterial field %s has no Spec counterpart", name)
		}
	}
}

// TestCacheHitAcrossNeutralKnobs is the manager-level regression for the
// exclusions: re-submitting a spec that differs only in Timeout or
// ReuseCheckpoints must be served from the result cache, not re-executed.
func TestCacheHitAcrossNeutralKnobs(t *testing.T) {
	runs := 0
	m := newManager(t, Config{Workers: 1, Runner: func(ctx context.Context, s Spec) (any, error) {
		runs++
		return s.Workload + "-result", nil
	}})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	first, err := m.Submit(Spec{Workload: "bfs", Mode: ModeFunctional, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}

	again, err := m.Submit(Spec{Workload: "bfs", Mode: ModeFunctional,
		Timeout: 2 * time.Minute, ReuseCheckpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Wait(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Fatalf("neutral-knob resubmission missed the cache: %+v", info)
	}
	if runs != 1 {
		t.Fatalf("runner executed %d times, want 1", runs)
	}
}
