package dataflow_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"critload/internal/dataflow"
	"critload/internal/families"
	"critload/internal/isa"
	"critload/internal/kgen"
	"critload/internal/ptx"
	"critload/internal/workloads"
)

// wantRoots turns a reference root list into the value-graph classifier's
// form: distinct (kind, name) pairs, ordered by kind and then by the first
// place in the kernel that produces the pair (instruction index, then
// operand index).
func wantRoots(k *ptx.Kernel, ref []dataflow.Root) []dataflow.Root {
	place := map[dataflow.Root]int{}
	note := func(r dataflow.Root) {
		if _, ok := place[r]; !ok {
			place[r] = len(place)
		}
	}
	for _, in := range k.Insts {
		if in.DefReg() < 0 && in.DefPred() < 0 {
			continue
		}
		if kind, name, ok := dataflow.ReferenceRootOf(in); ok {
			note(dataflow.Root{Kind: kind, Name: name})
			continue
		}
		for s := 0; s < in.NSrc; s++ {
			switch o := in.Srcs[s]; o.Kind {
			case isa.OpdImm, isa.OpdFImm:
				note(dataflow.Root{Kind: dataflow.RootImmediate})
			case isa.OpdSReg:
				note(dataflow.Root{Kind: dataflow.RootSpecialReg, Name: o.SReg.String()})
			}
		}
	}
	var out []dataflow.Root
	seen := map[dataflow.Root]bool{}
	for _, r := range ref {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return place[out[i]] < place[out[j]]
	})
	return out
}

// checkAgainstReference classifies k with both implementations and reports
// every load whose class or roots differ.
func checkAgainstReference(t testing.TB, what string, k *ptx.Kernel) {
	t.Helper()
	got := dataflow.Classify(k)
	ref := dataflow.ReferenceClassify(k)
	if len(got.Loads) != len(ref.Loads) {
		t.Fatalf("%s: %d loads, reference has %d", what, len(got.Loads), len(ref.Loads))
	}
	for i, r := range ref.Loads {
		g := got.Loads[i]
		refRoots := make([]dataflow.Root, len(r.Roots))
		for j, rr := range r.Roots {
			refRoots[j] = dataflow.Root{Kind: rr.Kind, Name: rr.Name}
		}
		want := wantRoots(k, refRoots)
		if g.InstIndex != r.InstIndex || g.PC != r.PC || g.Class != r.Class ||
			fmt.Sprint(g.Roots) != fmt.Sprint(want) {
			t.Errorf("%s: load at inst %d: got %v %v, reference %v %v\n%s",
				what, r.InstIndex, g.Class, g.Roots, r.Class, want, k.Disassemble())
			return
		}
		if li, ok := got.Load(r.InstIndex); !ok || li.InstIndex != r.InstIndex {
			t.Errorf("%s: Load(%d) = %v, %v", what, r.InstIndex, li, ok)
		}
		if got.NonDetAt(r.PC) != (r.Class == dataflow.NonDeterministic) {
			t.Errorf("%s: NonDetAt(0x%x) disagrees with the load's class", what, r.PC)
		}
	}
}

// TestClassifyMatchesReference holds the value-graph classifier to the
// previous per-load backward walk on the Table I programs, kgen seeds, the
// workload families and random control-flow graphs.
func TestClassifyMatchesReference(t *testing.T) {
	for _, w := range workloads.All() {
		inst, err := w.Setup(workloads.Params{Seed: 1})
		if err != nil {
			t.Fatalf("%s setup: %v", w.Name, err)
		}
		for _, k := range inst.Prog.Kernels {
			checkAgainstReference(t, w.Name+"/"+k.Name, k)
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		c, err := kgen.Build(kgen.Generate(seed, kgen.DefaultConfig()))
		if err != nil {
			t.Fatalf("kgen seed %d: %v", seed, err)
		}
		checkAgainstReference(t, fmt.Sprintf("kgen seed %d", seed), c.Kernel)
	}
	for _, f := range families.List() {
		spec := families.Spec{Name: f.Name}
		c, err := spec.Build()
		if err != nil {
			t.Fatalf("family %s: %v", f.Name, err)
		}
		checkAgainstReference(t, "family "+f.Name, c.Kernel)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 256)
	for i := 0; i < 500; i++ {
		rng.Read(data)
		checkRandomCFG(t, data)
	}
}

// FuzzClassifyEquivalence drives the random-CFG generator from fuzzed bytes.
func FuzzClassifyEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("guarded selp setp atom ld.shared and two back edges"))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64+rng.Intn(192))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRandomCFG(t, data)
	})
}

func checkRandomCFG(t testing.TB, data []byte) {
	t.Helper()
	src := randomCFG(data)
	prog, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("generated kernel does not parse: %v\n%s", err, src)
	}
	checkAgainstReference(t, "random CFG", prog.Kernels[0])
}

// randomCFG renders a kernel whose every choice comes from data (zero once
// data runs out): defs from two params, three special registers, immediates,
// data, shared, constant and atomic loads, arithmetic, setp and selp, moves
// from predicates, guards on any instruction, and branches forward and back
// to labels placed anywhere. Registers are drawn from a small pool, so many
// reads see several definitions and some see none.
func randomCFG(data []byte) string {
	pos := 0
	next := func(n int) int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1]) % n
	}
	const nregs, npreds, nlabels = 6, 3, 4
	reg := func() string { return fmt.Sprintf("%%r%d", next(nregs)) }
	pred := func() string { return fmt.Sprintf("%%p%d", next(npreds)) }
	sregs := []string{"%tid.x", "%ctaid.x", "%ntid.x"}
	src := func() string {
		switch next(5) {
		case 0:
			return fmt.Sprint(next(64))
		case 1:
			return sregs[next(len(sregs))]
		}
		return reg()
	}
	n := 4 + next(48)
	labelAt := make([]int, nlabels)
	for j := range labelAt {
		labelAt[j] = next(n + 1)
	}
	var b strings.Builder
	b.WriteString(".kernel rnd\n.param .u32 a\n.param .u32 b\n.shared 256\n")
	for i := 0; i <= n; i++ {
		for j, at := range labelAt {
			if at == i {
				fmt.Fprintf(&b, "L%d:\n", j)
			}
		}
		if i == n {
			b.WriteString("    exit;\n")
			break
		}
		b.WriteString("    ")
		if next(4) == 0 {
			neg := []string{"", "!"}[next(2)]
			fmt.Fprintf(&b, "@%s%s ", neg, pred())
		}
		switch next(14) {
		case 0:
			fmt.Fprintf(&b, "mov.u32 %s, %s", reg(), sregs[next(len(sregs))])
		case 1:
			fmt.Fprintf(&b, "mov.u32 %s, %d", reg(), next(100))
		case 2:
			fmt.Fprintf(&b, "ld.param.u32 %s, [%s]", reg(), []string{"a", "b"}[next(2)])
		case 3, 4:
			op := []string{"add", "sub", "mul", "and", "shl", "min"}[next(6)]
			fmt.Fprintf(&b, "%s.u32 %s, %s, %s", op, reg(), src(), src())
		case 5:
			fmt.Fprintf(&b, "mad.lo.u32 %s, %s, %s, %s", reg(), src(), src(), src())
		case 6:
			if next(8) == 0 {
				fmt.Fprintf(&b, "ld.global.u32 %s, [%d]", reg(), 4*next(64))
			} else {
				fmt.Fprintf(&b, "ld.global.u32 %s, [%s+%d]", reg(), reg(), 4*next(4))
			}
		case 7:
			fmt.Fprintf(&b, "ld.shared.u32 %s, [%s]", reg(), reg())
		case 8:
			fmt.Fprintf(&b, "ld.const.u32 %s, [%s]", reg(), reg())
		case 9:
			fmt.Fprintf(&b, "atom.global.add.u32 %s, [%s], %s", reg(), reg(), src())
		case 10:
			fmt.Fprintf(&b, "setp.lt.u32 %s, %s, %s", pred(), src(), src())
		case 11:
			fmt.Fprintf(&b, "selp.u32 %s, %s, %s, %s", reg(), src(), src(), pred())
		case 12:
			if next(2) == 0 {
				fmt.Fprintf(&b, "mov.u32 %s, %s", reg(), pred())
			} else {
				fmt.Fprintf(&b, "st.global.u32 [%s], %s", reg(), reg())
			}
		case 13:
			fmt.Fprintf(&b, "bra L%d", next(nlabels))
		}
		b.WriteString(";\n")
	}
	return b.String()
}

// BenchmarkClassifyTableI classifies every kernel of the Table I programs,
// each freshly parsed as the daemon sees it, so the control-flow graph is
// built inside the timed loop too.
func BenchmarkClassifyTableI(b *testing.B) {
	var corpus []string
	for _, w := range workloads.All() {
		inst, err := w.Setup(workloads.Params{Seed: 1})
		if err != nil {
			b.Fatalf("%s setup: %v", w.Name, err)
		}
		for _, k := range inst.Prog.Kernels {
			corpus = append(corpus, k.Disassemble())
		}
	}
	progs := make([]*ptx.Program, len(corpus))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, src := range corpus {
			progs[j] = ptx.MustParse(src)
		}
		b.StartTimer()
		for _, p := range progs {
			dataflow.Classify(p.Kernels[0])
		}
	}
}
