package families

import (
	"strings"
	"testing"

	"critload/internal/ptx"
	"critload/internal/workloads"
)

func TestCanonicalNameRoundTrip(t *testing.T) {
	for _, f := range List() {
		s := &Spec{Name: f.Name}
		name, err := s.CanonicalName()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !strings.HasPrefix(name, NamePrefix+f.Name+"?") {
			t.Fatalf("%s: canonical name %q lacks prefix", f.Name, name)
		}
		// Parse → canonicalize must be a fixed point.
		back, err := ParseName(name)
		if err != nil {
			t.Fatalf("%s: parse %q: %v", f.Name, name, err)
		}
		name2, err := back.CanonicalName()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if name2 != name {
			t.Fatalf("%s: canonicalization not stable: %q then %q", f.Name, name, name2)
		}
		// Every knob appears exactly once.
		query := name[strings.IndexByte(name, '?')+1:]
		if got := len(strings.Split(query, "&")); got != len(f.Knobs) {
			t.Fatalf("%s: %d knobs in %q, schema has %d", f.Name, got, name, len(f.Knobs))
		}
	}
}

func TestPartialKnobsCanonicalize(t *testing.T) {
	s, err := ParseName("family:stream?loads=8")
	if err != nil {
		t.Fatal(err)
	}
	name, err := s.CanonicalName()
	if err != nil {
		t.Fatal(err)
	}
	want := "family:stream?block=64&ctas=4&loads=8&seed=1&size=256&stride=1&trips=1"
	if name != want {
		t.Fatalf("canonical = %q, want %q", name, want)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		spec Spec
		want string // substring of the expected error; "" = valid
	}{
		{Spec{Name: "stream"}, ""},
		{Spec{Name: "nope"}, "unknown family"},
		{Spec{Name: "stream", Knobs: map[string]int{"bogus": 1}}, "no knob"},
		{Spec{Name: "stream", Knobs: map[string]int{"size": 100}}, "power of two"},
		{Spec{Name: "stream", Knobs: map[string]int{"size": 8192}}, "out of range"},
		{Spec{Name: "stream", Knobs: map[string]int{"loads": 0}}, "out of range"},
		{Spec{Name: "mixed-dn", Knobs: map[string]int{"dn": 101}}, "out of range"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c.spec, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want substring %q", c.spec, err, c.want)
		}
	}
}

func TestWorkloadResolver(t *testing.T) {
	name := "family:indirect-chase?depth=1"
	w, ok := workloads.Get(name)
	if !ok {
		t.Fatalf("workloads.Get(%q) did not resolve", name)
	}
	if w.Category != workloads.Synthetic {
		t.Fatalf("category = %v, want synthetic", w.Category)
	}
	if !strings.HasPrefix(w.Name, "family:indirect-chase?") {
		t.Fatalf("resolved name %q not canonical", w.Name)
	}
	if _, ok := workloads.Get("family:nope"); ok {
		t.Fatal("unknown family resolved")
	}
	if _, ok := workloads.Get("family:stream?loads=banana"); ok {
		t.Fatal("malformed knob resolved")
	}
	if _, ok := workloads.Get("2mm"); !ok {
		t.Fatal("Table I workloads must still resolve")
	}
}

// TestFamilyKernelsUnderRegisterCaps builds every family with all knobs at
// their minimum, default and maximum and checks the kernel stays well inside
// the assembler's register and predicate caps.
func TestFamilyKernelsUnderRegisterCaps(t *testing.T) {
	for _, f := range List() {
		for _, pick := range []func(Knob) int{
			func(k Knob) int { return k.Min },
			func(k Knob) int { return k.Default },
			func(k Knob) int { return k.Max },
		} {
			knobs := map[string]int{}
			for _, k := range f.Knobs {
				knobs[k.Name] = pick(k)
			}
			c, err := (&Spec{Name: f.Name, Knobs: knobs}).Build()
			if err != nil {
				t.Fatalf("%s %v: %v", f.Name, knobs, err)
			}
			if k := c.Kernel; k.NumRegs > ptx.MaxRegs/4 || k.NumPreds > ptx.MaxPreds/4 {
				t.Errorf("%s %v: %d registers and %d predicates, over a quarter of the caps",
					f.Name, knobs, k.NumRegs, k.NumPreds)
			}
		}
	}
}
