package families

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"critload/internal/emu"
	"critload/internal/isa"
	"critload/internal/kgen"
	"critload/internal/ptx"
	"critload/internal/workloads"
	"critload/pkg/api"
)

// NamePrefix marks family-instance workload names.
const NamePrefix = "family:"

// Spec selects one family instance: a family name plus knob overrides.
// Omitted knobs take their schema defaults. It is api.FamilySpec, the JSON
// shape the service accepts in classify requests and job specs, with the
// family machinery attached.
type Spec api.FamilySpec

// Resolve validates the spec and returns the family plus the fully-resolved
// knob values (defaults filled in).
func (s *Spec) Resolve() (*Family, map[string]int, error) {
	f, ok := Get(s.Name)
	if !ok {
		return nil, nil, fmt.Errorf("families: unknown family %q (have: %s)",
			s.Name, strings.Join(Names(), ", "))
	}
	v := f.Defaults()
	for name, val := range s.Knobs {
		k, ok := f.knob(name)
		if !ok {
			return nil, nil, fmt.Errorf("families: %s has no knob %q", f.Name, name)
		}
		if err := k.Check(val); err != nil {
			return nil, nil, fmt.Errorf("families: %s: %w", f.Name, err)
		}
		v[name] = val
	}
	return f, v, nil
}

// Validate reports whether the spec names a known family with in-range knobs.
func (s *Spec) Validate() error {
	_, _, err := s.Resolve()
	return err
}

// CanonicalName returns the instance's canonical workload name:
// family:<name>?<knob>=<val>&... with every knob at its resolved value and
// knobs in sorted order, so identical instances always share one name — and
// therefore one job cache key, one checkpoint prefix, one journal identity.
func (s *Spec) CanonicalName() (string, error) {
	f, v, err := s.Resolve()
	if err != nil {
		return "", err
	}
	return canonicalName(f, v), nil
}

// canonicalName formats the canonical name from resolved values. Knob order
// is the schema order, which register() sorts by name.
func canonicalName(f *Family, v map[string]int) string {
	var b strings.Builder
	b.WriteString(NamePrefix)
	b.WriteString(f.Name)
	for i, k := range f.Knobs {
		if i == 0 {
			b.WriteByte('?')
		} else {
			b.WriteByte('&')
		}
		b.WriteString(k.Name)
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(v[k.Name]))
	}
	return b.String()
}

// IsFamilyName reports whether a workload name addresses a family instance.
func IsFamilyName(name string) bool {
	return strings.HasPrefix(name, NamePrefix)
}

// ParseName parses a family workload name ("family:<name>?<knob>=<val>&...")
// back into a Spec. The name need not be canonical — knobs may be partial or
// unordered; CanonicalName normalizes.
func ParseName(name string) (*Spec, error) {
	if !IsFamilyName(name) {
		return nil, fmt.Errorf("families: %q does not start with %q", name, NamePrefix)
	}
	base, query, _ := strings.Cut(strings.TrimPrefix(name, NamePrefix), "?")
	if base == "" {
		return nil, fmt.Errorf("families: empty family name in %q", name)
	}
	s := &Spec{Name: base}
	if query != "" {
		s.Knobs = map[string]int{}
		for _, kv := range strings.Split(query, "&") {
			k, val, ok := strings.Cut(kv, "=")
			if !ok || k == "" {
				return nil, fmt.Errorf("families: bad knob setting %q in %q", kv, name)
			}
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("families: knob %s: %v", k, err)
			}
			s.Knobs[k] = n
		}
	}
	return s, nil
}

// progSeed derives the kgen program seed from the family name and the seed
// knob, so two families at the same seed still see different input arrays.
func progSeed(family string, seed int) int64 {
	h := fnv.New64a()
	h.Write([]byte(family))
	return int64(h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15)
}

// kernelName derives a PTX-identifier-safe kernel name from the canonical
// instance name: fam_<family>_<fnv32 of the canonical name>.
func kernelName(family, canonical string) string {
	h := fnv.New32a()
	h.Write([]byte(canonical))
	return fmt.Sprintf("fam_%s_%08x", strings.ReplaceAll(family, "-", "_"), h.Sum32())
}

// Build lowers the spec to a self-contained, ground-truth-labeled kgen case.
// The op list is passed through kgen.Repair (the identity on well-formed
// programs) before lowering, so the result is valid by construction.
func (s *Spec) Build() (*kgen.Case, error) {
	f, v, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	canonical := canonicalName(f, v)
	p := kgen.Repair(&kgen.Prog{
		Seed:      progSeed(f.Name, v["seed"]),
		GridX:     v["ctas"],
		BlockX:    v["block"],
		DataWords: v["size"],
		AtomOp:    isa.AtomAdd,
		Ops:       f.build(v),
	})
	c, err := kgen.Build(p)
	if err != nil {
		return nil, fmt.Errorf("families: %s: %w", canonical, err)
	}
	name := kernelName(f.Name, canonical)
	c.Name, c.Kernel.Name = name, name
	return c, nil
}

// Workload adapts the spec to the workloads registry contract, so a family
// instance runs everywhere a Table I benchmark does: experiments, job specs,
// checkpointing, all three engines. Its size knob is the family's, with the
// instance's own size as the default. Verify replays the case on the
// functional emulator from a fresh environment and compares snapshots —
// valid for any engine because generated kernels are race-free by
// construction (stores hit own slots; atomics are commutative).
func (s *Spec) Workload() (*workloads.Workload, error) {
	f, v, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	canonical := canonicalName(f, v)
	size, _ := f.knob("size")
	size.Default = v["size"]
	build := func(n int, seed int64) (*workloads.Instance, error) {
		vv := make(map[string]int, len(v))
		for k, val := range v {
			vv[k] = val
		}
		vv["size"] = n
		if seed != 0 {
			sk, _ := f.knob("seed")
			vv["seed"] = int(uint64(seed) % uint64(sk.Max+1))
		}
		c, err := (&Spec{Name: f.Name, Knobs: vv}).Build()
		if err != nil {
			return nil, err
		}
		env := c.NewEnv()
		return &workloads.Instance{
			Mem:           env.Mem,
			Prog:          &ptx.Program{Kernels: []*ptx.Kernel{c.Kernel}},
			CTAs:          c.GridX,
			ThreadsPerCTA: c.BlockX,
			Run: func(exec workloads.Executor) error {
				return exec(env.Launch)
			},
			Verify: func() error {
				ref := c.NewEnv()
				if _, err := emu.Run(&emu.Env{Mem: ref.Mem, Launch: ref.Launch}, emu.RunOptions{}); err != nil {
					return fmt.Errorf("families: %s: reference run: %w", canonical, err)
				}
				got, want := env.Snapshot(), ref.Snapshot()
				for i := range want {
					if got[i] != want[i] {
						return fmt.Errorf("families: %s: mutable word %d = %#x, reference %#x",
							canonical, i, got[i], want[i])
					}
				}
				return nil
			},
		}, nil
	}
	return &workloads.Workload{
		Name:        canonical,
		Category:    workloads.Synthetic,
		Description: f.Description,
		DataSet:     fmt.Sprintf("seeded synthetic arrays, %d words per bank", v["size"]),
		Size:        size,
		Build:       build,
	}, nil
}

func init() {
	// Family instance names resolve as workloads everywhere a Table I name
	// is accepted. Non-family names fall through untouched; malformed family
	// names resolve to nothing and surface as "unknown workload" upstream.
	workloads.RegisterResolver(func(name string) (*workloads.Workload, bool) {
		if !IsFamilyName(name) {
			return nil, false
		}
		spec, err := ParseName(name)
		if err != nil {
			return nil, false
		}
		w, err := spec.Workload()
		if err != nil {
			return nil, false
		}
		return w, true
	})
}
