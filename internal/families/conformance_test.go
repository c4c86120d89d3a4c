package families_test

import (
	"fmt"
	"testing"

	"critload/internal/difftest"
	"critload/internal/experiments"
	. "critload/internal/families"
)

// conformanceSpecs returns the knob points each family is gated on: the
// schema defaults plus hand-picked corners that change the D/N structure.
// Sizes are kept small so the full four-oracle difftest stays fast under
// -race in CI.
func conformanceSpecs(f *Family) []*Spec {
	small := map[string]int{"size": 128, "ctas": 2, "block": 32}
	corner := map[string]map[string]int{
		"stream":         {"loads": 8, "stride": 7, "trips": 3},
		"indirect-chase": {"depth": 4, "width": 3},
		"shared-tile":    {"fanout": 8},
		"atomic-contend": {"spread": 1},
		"mixed-dn":       {"loads": 12, "dn": 25},
	}
	specs := []*Spec{{Name: f.Name, Knobs: small}}
	knobs := map[string]int{}
	for k, v := range small {
		knobs[k] = v
	}
	for k, v := range corner[f.Name] {
		knobs[k] = v
	}
	specs = append(specs, &Spec{Name: f.Name, Knobs: knobs})
	if f.Name == "mixed-dn" {
		// The extreme mixes exercise the at-least-one-D clamp and the no-N
		// degenerate chain.
		specs = append(specs,
			&Spec{Name: f.Name, Knobs: map[string]int{"size": 128, "ctas": 2, "block": 32, "dn": 0}},
			&Spec{Name: f.Name, Knobs: map[string]int{"size": 128, "ctas": 2, "block": 32, "dn": 100}})
	}
	return specs
}

// TestFamilyConformance is the CI gate behind the family-conformance matrix
// job: for every shipped family, each conformance point must (1) carry the
// ground-truth D/N mix the family's schema promises, (2) pass all four
// difftest oracles — classifier vs ground truth, emulator determinism,
// fast-forward vs serial, checkpoint/resume — and (3) run end-to-end
// through the workloads registry the way a job spec would, with the
// CPU-reference Verify green.
func TestFamilyConformance(t *testing.T) {
	for _, f := range List() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			for _, spec := range conformanceSpecs(f) {
				name, err := spec.CanonicalName()
				if err != nil {
					t.Fatal(err)
				}
				t.Run(name, func(t *testing.T) {
					checkConformance(t, f, spec, name)
				})
			}
		})
	}
}

func checkConformance(t *testing.T, f *Family, spec *Spec, name string) {
	_, v, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantDet, wantNonDet := f.ExpectedClasses(v)
	rep := difftest.Check(c, difftest.Options{})
	if rep.Det != wantDet || rep.NonDet != wantNonDet {
		t.Errorf("ground truth D=%d N=%d, family schema promises D=%d N=%d",
			rep.Det, rep.NonDet, wantDet, wantNonDet)
	}
	if rep.Failed() {
		for _, d := range rep.Divergences {
			t.Errorf("oracle %s: %s", d.Oracle, d.Detail)
		}
		return
	}

	// Registry path: the canonical name must run like any Table I workload.
	run, err := experiments.RunFunctional(name, experiments.Options{})
	if err != nil {
		t.Fatalf("functional run: %v", err)
	}
	if err := run.Instance.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
	if run.Col.WarpInsts == 0 {
		t.Error("functional run executed no instructions")
	}
}

// TestFamilyExpectTotals cross-checks every family's expect function against
// a brute-force count over its knob grid corners, so the schema's promise
// and the builder's construction cannot drift apart silently.
func TestFamilyExpectTotals(t *testing.T) {
	for _, f := range List() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for _, spec := range conformanceSpecs(f) {
				_, v, err := spec.Resolve()
				if err != nil {
					t.Fatal(err)
				}
				det, nondet := f.ExpectedClasses(v)
				if det < 1 {
					t.Errorf("%v: expect promises %d deterministic loads; every family needs ≥1", v, det)
				}
				c, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				if got := len(c.Want); got != det+nondet {
					t.Errorf("%v: lowered %d labeled loads, schema promises %d",
						v, got, det+nondet)
				}
			}
		})
	}
}

func ExampleSpec_CanonicalName() {
	name, _ := (&Spec{Name: "mixed-dn", Knobs: map[string]int{"dn": 75}}).CanonicalName()
	fmt.Println(name)
	// Output: family:mixed-dn?block=64&ctas=4&dn=75&loads=8&seed=1&size=256
}
