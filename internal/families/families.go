// Package families synthesizes parameterized workload *families* from the
// labeled IR of internal/kgen. Where the fifteen Table I workloads are fixed
// points in the paper's benchmark space, a family is a named generator —
// stream, indirect-chase, shared-tile, atomic-contend, mixed-dn — whose
// typed knobs (problem size, indirection depth, D/N mix, sharing fanout,
// contention, seed) sweep the *load-class* axes the paper's Table I insight
// actually varies over. Each family lowers deterministically to a PTX
// program plus by-construction ground-truth D/N labels for every global
// load, so the classifier and all three cycle engines can be checked
// against it the same way the fuzz harness checks generated kernels.
//
// A family instance is addressed by a canonical workload name,
//
//	family:<name>?<knob>=<value>&...
//
// with every knob present at its resolved value and knobs sorted by name,
// so identical instances always share one name — and therefore one job
// cache key, one checkpoint prefix, one journal identity. The package
// registers a workloads resolver at init time, which makes those names
// first-class simulate targets everywhere a Table I name is accepted.
package families

import (
	"fmt"
	"sort"

	"critload/internal/kgen"
	"critload/pkg/api"
)

// Knob is one typed family parameter; /v1/workloads lists the schemas as is.
type Knob = api.Knob

// Family is one registered workload family: a knob schema plus a builder
// that assembles the kgen IR op list from resolved knob values.
type Family struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Knobs       []Knob `json:"knobs"`

	// build assembles the IR body from resolved knob values. The returned
	// op list is normalized through kgen.Repair before lowering, so a
	// builder bug degrades to a still-valid (if unintended) program rather
	// than an unlowerable one; the golden corpus pins intent.
	build func(v map[string]int) []kgen.Op

	// expect returns the ground-truth load-class counts the builder
	// constructs for the given knobs — asserted by the conformance tests so
	// the family's *intent* (not just its labels) is pinned.
	expect func(v map[string]int) (det, nondet int)
}

// knob returns the schema entry by name.
func (f *Family) knob(name string) (Knob, bool) {
	for _, k := range f.Knobs {
		if k.Name == name {
			return k, true
		}
	}
	return Knob{}, false
}

// Defaults returns the family's knob values with every knob at its default.
func (f *Family) Defaults() map[string]int {
	v := make(map[string]int, len(f.Knobs))
	for _, k := range f.Knobs {
		v[k.Name] = k.Default
	}
	return v
}

// ExpectedClasses returns the ground-truth D/N load counts the family
// constructs for resolved knob values.
func (f *Family) ExpectedClasses(v map[string]int) (det, nondet int) {
	return f.expect(v)
}

var registry = map[string]*Family{}
var order []string

func register(f *Family) {
	if _, dup := registry[f.Name]; dup {
		panic(fmt.Sprintf("families: duplicate %q", f.Name))
	}
	sort.Slice(f.Knobs, func(i, j int) bool { return f.Knobs[i].Name < f.Knobs[j].Name })
	registry[f.Name] = f
	order = append(order, f.Name)
}

// Get returns a family by name.
func Get(name string) (*Family, bool) {
	f, ok := registry[name]
	return f, ok
}

// Names returns the family names in registration order.
func Names() []string {
	return append([]string(nil), order...)
}

// List returns every family in registration order.
func List() []*Family {
	out := make([]*Family, 0, len(order))
	for _, n := range order {
		out = append(out, registry[n])
	}
	return out
}

// Knobs shared by every family: launch geometry, data footprint, input seed.
func commonKnobs(extra ...Knob) []Knob {
	base := []Knob{
		{Name: "size", Description: "words per data array (power of two)",
			Min: 64, Max: 4096, Default: 256, Pow2: true},
		{Name: "ctas", Description: "CTAs in the launch grid",
			Min: 1, Max: 16, Default: 4},
		{Name: "block", Description: "threads per CTA (32, 64 or 128)",
			Min: 32, Max: 128, Default: 64, Pow2: true},
		{Name: "seed", Description: "input-array and immediate seed",
			Min: 0, Max: 1 << 30, Default: 1},
	}
	return append(base, extra...)
}
