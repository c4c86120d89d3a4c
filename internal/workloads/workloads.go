// Package workloads re-implements the paper's fifteen benchmark applications
// (Table I) in the PTX-subset ISA, each with a synthetic input generator and
// a CPU reference checker. The kernels preserve the address-dataflow
// structure of the originals — linear thread/CTA indexing for the linear
// algebra apps, shared-memory tiling for the image apps, and index-array /
// CSR indirection for the graph apps — which is what the paper's load
// classification and all downstream measurements depend on.
package workloads

import (
	"fmt"
	"sort"

	"critload/internal/emu"
	"critload/internal/mem"
	"critload/internal/ptx"
)

// Category groups workloads as in Table I.
type Category int

// Workload categories. Synthetic covers resolver-backed parameterized
// kernels (internal/families) that are generated on demand rather than
// registered as fixed Table I benchmarks.
const (
	Linear Category = iota
	Image
	Graph
	Synthetic
)

func (c Category) String() string {
	switch c {
	case Linear:
		return "linear"
	case Image:
		return "image"
	case Graph:
		return "graph"
	case Synthetic:
		return "synthetic"
	}
	return "?"
}

// Params configures an instance. Size scales the main data structure with a
// workload-specific meaning (matrix dimension, image edge, vertex count);
// zero selects the workload's standard size. Seed drives input generation.
type Params struct {
	Size int
	Seed int64
}

// Executor runs one kernel launch; the functional driver and the timing GPU
// both satisfy it.
type Executor func(l *emu.Launch) error

// Instance is a ready-to-run workload instance: device memory initialized,
// host logic captured in Run, and a CPU reference check in Verify.
type Instance struct {
	Workload *Workload
	Mem      *mem.Memory
	Prog     *ptx.Program

	// MainKernel is the kernel whose geometry Table I reports.
	MainKernel string
	// CTAs and ThreadsPerCTA describe the main kernel's launch geometry.
	CTAs          int
	ThreadsPerCTA int

	// Run drives all launches (host loops included) through exec.
	Run func(exec Executor) error
	// Verify compares device results against the CPU reference.
	Verify func() error
}

// Workload is one registered benchmark.
type Workload struct {
	Name        string
	Category    Category
	Description string
	DataSet     string // description of the synthetic input at default size
	// Setup builds an instance.
	Setup func(p Params) (*Instance, error)
}

var registry = map[string]*Workload{}

// resolvers are fallback name resolvers consulted — in registration order —
// when a name is not in the static registry. The families package registers
// one at init time to make parameterized family specs (names of the form
// "family:<name>?<knobs>") first-class workloads everywhere a Table I name
// is accepted: experiments, job specs, checkpoint keys, all three engines.
// Registration must happen during package initialization; Get reads the
// slice without locking afterwards.
var resolvers []func(name string) (*Workload, bool)

// RegisterResolver installs a fallback resolver. Init-time only.
func RegisterResolver(fn func(name string) (*Workload, bool)) {
	resolvers = append(resolvers, fn)
}

func register(w *Workload) {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate %q", w.Name))
	}
	registry[w.Name] = w
}

// Get returns a workload by name: a Table I benchmark from the static
// registry, or — for names no benchmark claims — whatever a registered
// resolver synthesizes (parameterized families).
func Get(name string) (*Workload, bool) {
	if w, ok := registry[name]; ok {
		return w, true
	}
	for _, fn := range resolvers {
		if w, ok := fn(name); ok {
			return w, true
		}
	}
	return nil, false
}

// Names returns all workload names in the paper's Table I order.
func Names() []string {
	order := map[string]int{
		"2mm": 0, "gaus": 1, "grm": 2, "lu": 3, "spmv": 4,
		"htw": 5, "mriq": 6, "dwt": 7, "bpr": 8, "srad": 9,
		"bfs": 10, "sssp": 11, "ccl": 12, "mst": 13, "mis": 14,
	}
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		oi, iok := order[names[i]]
		oj, jok := order[names[j]]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		default:
			return names[i] < names[j]
		}
	})
	return names
}

// All returns every workload in Table I order.
func All() []*Workload {
	var out []*Workload
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// ByCategory returns workloads of one category in Table I order.
func ByCategory(c Category) []*Workload {
	var out []*Workload
	for _, w := range All() {
		if w.Category == c {
			out = append(out, w)
		}
	}
	return out
}

// FunctionalExecutor returns an Executor running launches on the functional
// emulator against m, with an optional listener. Its launches share one CTA's
// storage.
func FunctionalExecutor(m *mem.Memory, listener emu.StepListener, maxWarpInsts uint64) Executor {
	var used uint64
	cta := new(emu.CTA)
	return func(l *emu.Launch) error {
		budget := uint64(0)
		if maxWarpInsts > 0 {
			if used >= maxWarpInsts {
				return nil // silently skip once the window is exhausted
			}
			budget = maxWarpInsts - used
		}
		env := &emu.Env{Mem: m, Launch: l}
		res, err := emu.RunIn(env, cta, emu.RunOptions{Listener: listener, MaxWarpInsts: budget})
		used += res.WarpInsts
		return err
	}
}
