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
	"math/rand"
	"sort"
	"sync"

	"critload/internal/emu"
	"critload/internal/mem"
	"critload/internal/ptx"
	"critload/pkg/api"
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

// Budget is the most memory one built-in instance may take, in bytes: the
// heap Setup allocates plus the device memory it reserves. Each built-in's
// Size.Max is the largest size that stays within it.
const Budget = 128 << 20

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
	Mem  *mem.Memory
	Prog *ptx.Program

	// CTAs and ThreadsPerCTA describe the launch geometry Table I reports.
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
	// Size is the one scale knob. Setup maps a zero size to Size.Default and
	// admits only values Size.Check accepts.
	Size api.Knob
	// Build makes an instance at an admitted size.
	Build func(size int, seed int64) (*Instance, error)

	// A built-in's PTX source, parsed on first use into prog and shared by
	// every instance, and the offset it adds to the seed so that workloads
	// draw different inputs at one seed.
	src   string
	salt  int64
	parse sync.Once
	prog  *ptx.Program
}

// CheckSize resolves a requested size, zero meaning the default, and checks
// it against the size knob.
func (w *Workload) CheckSize(size int) (int, error) {
	if size == 0 {
		return w.Size.Default, nil
	}
	if err := w.Size.Check(size); err != nil {
		return 0, fmt.Errorf("workloads: %s: %w", w.Name, err)
	}
	return size, nil
}

// Setup builds an instance.
func (w *Workload) Setup(p Params) (*Instance, error) {
	n, err := w.CheckSize(p.Size)
	if err != nil {
		return nil, err
	}
	return w.Build(n, p.Seed)
}

// Program returns the workload's kernels without building inputs when it
// can: a built-in's program is parsed once per process and is read-only.
// Other workloads set up a default instance to get theirs.
func (w *Workload) Program() (*ptx.Program, error) {
	if w.src == "" {
		inst, err := w.Setup(Params{})
		if err != nil {
			return nil, err
		}
		return inst.Prog, nil
	}
	return w.parsed(), nil
}

// parsed returns a built-in's program, parsing its source on first use.
func (w *Workload) parsed() *ptx.Program {
	w.parse.Do(func() { w.prog = ptx.MustParse(w.src) })
	return w.prog
}

// sizeKnob declares a built-in's size knob.
func sizeKnob(description string, min, def, max int) api.Knob {
	return api.Knob{Name: "size", Description: description, Min: min, Max: max, Default: def}
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

// register declares a built-in. Its Build hands build the admitted size, a
// generator seeded with the seed plus salt, empty device memory and the
// shared program; build returns the instance without Mem and Prog.
func register(w *Workload, build func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance) {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate %q", w.Name))
	}
	w.Build = func(n int, seed int64) (*Instance, error) {
		m, prog := mem.New(), w.parsed()
		inst := build(n, rand.New(rand.NewSource(seed+w.salt)), m, prog)
		inst.Mem, inst.Prog = m, prog
		return inst, nil
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

// FunctionalExecutor returns an Executor running launches on the functional
// emulator against m, with an optional listener. Its launches share one CTA's
// storage and one step record.
func FunctionalExecutor(m *mem.Memory, listener emu.StepListener, maxWarpInsts uint64) Executor {
	var used uint64
	cta, step := new(emu.CTA), new(emu.Step)
	return func(l *emu.Launch) error {
		budget := uint64(0)
		if maxWarpInsts > 0 {
			if used >= maxWarpInsts {
				return nil // silently skip once the window is exhausted
			}
			budget = maxWarpInsts - used
		}
		env := &emu.Env{Mem: m, Launch: l}
		res, err := emu.RunIn(env, cta, step, emu.RunOptions{Listener: listener, MaxWarpInsts: budget})
		used += res.WarpInsts
		return err
	}
}
