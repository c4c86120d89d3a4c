package kgen

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"critload/internal/dataflow"
	"critload/internal/isa"
	"critload/internal/ptx"
)

// TestGenerateDeterministic is the generator's core contract: the same seed
// must produce byte-identical PTX, twice in the same process and across the
// two independent Generate+Build pipelines.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		a, err := Build(Generate(seed, DefaultConfig()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Build(Generate(seed, DefaultConfig()))
		if err != nil {
			t.Fatalf("seed %d second build: %v", seed, err)
		}
		if a.Kernel.Disassemble() != b.Kernel.Disassemble() {
			t.Fatalf("seed %d: PTX differs across identical generations", seed)
		}
		if !reflect.DeepEqual(a.Want, b.Want) {
			t.Fatalf("seed %d: ground truth differs across identical generations", seed)
		}
	}
}

// TestGenerateCoverage asserts — rather than hopes — that every generated
// kernel carries both load classes and at least one observable store.
func TestGenerateCoverage(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		c, err := Build(Generate(seed, DefaultConfig()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		det, nondet := 0, 0
		for _, cls := range c.Want {
			if cls == dataflow.Deterministic {
				det++
			} else {
				nondet++
			}
		}
		if det == 0 || nondet == 0 {
			t.Errorf("seed %d: want both classes, got det=%d nondet=%d", seed, det, nondet)
		}
		stores := 0
		for _, in := range c.Kernel.Insts {
			if in.Op.IsMemory() && in.Op.String() == "st" {
				stores++
			}
		}
		if stores == 0 {
			t.Errorf("seed %d: kernel has no stores, functional oracle is vacuous", seed)
		}
	}
}

// TestClassifierMatchesGroundTruth is oracle #1 in miniature: the reference
// analysis inside the lowering pass and dataflow.Classify must agree on
// every global load of every generated kernel.
func TestClassifierMatchesGroundTruth(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		c, err := Build(Generate(seed, DefaultConfig()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := map[int]dataflow.Class{}
		for _, li := range dataflow.Classify(c.Kernel).Loads {
			got[li.InstIndex] = li.Class
		}
		if !reflect.DeepEqual(got, c.Want) {
			t.Errorf("seed %d: classifier disagrees with generator ground truth\n got=%v\nwant=%v\n%s",
				seed, got, c.Want, c.Kernel.Disassemble())
		}
	}
}

// TestRoundTrip: generated kernels must survive Disassemble→Parse with
// stable instruction indices, or the committed corpus format is broken.
func TestRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		c, err := Build(Generate(seed, DefaultConfig()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		src := c.Kernel.Disassemble()
		prog, err := ptx.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v\n%s", seed, err, src)
		}
		if len(prog.Kernels) != 1 {
			t.Fatalf("seed %d: got %d kernels", seed, len(prog.Kernels))
		}
		again := prog.Kernels[0].Disassemble()
		if again != src {
			t.Errorf("seed %d: disassembly not stable under reparse", seed)
		}
		for idx := range c.Want {
			if idx < 0 || idx >= len(prog.Kernels[0].Insts) {
				t.Fatalf("seed %d: want index %d out of range", seed, idx)
			}
			if !prog.Kernels[0].Insts[idx].IsGlobalLoad() {
				t.Errorf("seed %d: want index %d is not a global load after reparse", seed, idx)
			}
		}
	}
}

// TestRepairIdentity: Repair must be the identity on well-formed generator
// output — otherwise the shrinker's candidate programs drift away from what
// the generator meant.
func TestRepairIdentity(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p := Generate(seed, DefaultConfig())
		q := Repair(p)
		if !reflect.DeepEqual(p.Ops, q.Ops) {
			t.Errorf("seed %d: Repair changed a well-formed program\n was=%v\n now=%v", seed, p.Ops, q.Ops)
		}
	}
}

// TestRepairTotal: Repair of an arbitrarily mutilated op list must always
// yield a program that builds, and repairing twice must be a fixpoint.
func TestRepairTotal(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for seed := int64(1); seed <= 60; seed++ {
		p := Generate(seed, DefaultConfig())
		// Delete a random chunk, the shrinker's only mutation.
		if len(p.Ops) > 1 {
			lo := r.Intn(len(p.Ops))
			hi := lo + 1 + r.Intn(len(p.Ops)-lo)
			p.Ops = append(p.Ops[:lo], p.Ops[hi:]...)
		}
		q := Repair(p)
		if _, err := Build(q); err != nil {
			t.Fatalf("seed %d: repaired program does not build: %v", seed, err)
		}
		q2 := Repair(q)
		if !reflect.DeepEqual(q.Ops, q2.Ops) {
			t.Errorf("seed %d: Repair is not a fixpoint\n q=%v\nq2=%v", seed, q.Ops, q2.Ops)
		}
	}
}

// TestSaveLoadRoundTrip: a saved case replays without the generator and the
// reparsed kernel still carries the recorded ground truth.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := Build(Generate(7, DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCase(dir + "/" + c.Name + ".ptx")
	if err != nil {
		t.Fatal(err)
	}
	if got.Kernel.Disassemble() != c.Kernel.Disassemble() {
		t.Errorf("kernel changed across save/load")
	}
	if !reflect.DeepEqual(got.Want, c.Want) {
		t.Errorf("ground truth changed across save/load: got %v want %v", got.Want, c.Want)
	}
	if !reflect.DeepEqual(got.Data0, c.Data0) || !reflect.DeepEqual(got.Data1, c.Data1) ||
		!reflect.DeepEqual(got.Const, c.Const) {
		t.Errorf("input arrays changed across save/load")
	}
	if got.GridX != c.GridX || got.BlockX != c.BlockX {
		t.Errorf("geometry changed across save/load")
	}
	res := map[int]dataflow.Class{}
	for _, li := range dataflow.Classify(got.Kernel).Loads {
		res[li.InstIndex] = li.Class
	}
	if !reflect.DeepEqual(res, got.Want) {
		t.Errorf("classifier disagrees with reloaded ground truth")
	}
}

// TestGeneratedKernelsUnderRegisterCaps checks that the generator stays well
// inside the assembler's register and predicate caps: a generated kernel
// over them would fail to build instead of exercising the simulator.
func TestGeneratedKernelsUnderRegisterCaps(t *testing.T) {
	regs, preds := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		c, err := Build(Generate(seed, DefaultConfig()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		regs, preds = max(regs, c.Kernel.NumRegs), max(preds, c.Kernel.NumPreds)
	}
	if regs > ptx.MaxRegs/4 || preds > ptx.MaxPreds/4 {
		t.Errorf("seeds 1-300 use up to %d registers and %d predicates, over a quarter of the caps %d and %d",
			regs, preds, ptx.MaxRegs, ptx.MaxPreds)
	}
	t.Logf("seeds 1-300: at most %d registers, %d predicates", regs, preds)
}

// lowerGoldenProg is a hand-written program that reaches every lowering
// path: every OpKind, KGuard and KIf under both guard polarities, a counted
// loop around two nested ifs closed by KEnd, and a loop and an if left open
// to the end of the program, whose headers Repair drops while keeping their
// bodies.
func lowerGoldenProg() *Prog {
	const none = -1
	add, xor, sub := AluIndex(isa.OpAdd), AluIndex(isa.OpXor), AluIndex(isa.OpSub)
	return &Prog{
		Seed: 0x10e4, GridX: 2, BlockX: 32, DataWords: 256, AtomOp: isa.AtomAdd,
		Ops: []Op{
			{Kind: KImm, A: none, B: none, P: none, Imm: 7},          // 0
			{Kind: KAlu, A: 0, B: none, P: none, Alu: add, Imm: 3},   // 1
			{Kind: KLoadG, A: 1, B: none, P: none, Imm: 0},           // 2: D
			{Kind: KLoadG, A: 2, B: none, P: none, Imm: 1},           // 3: N
			{Kind: KLoadC, A: 3, B: none, P: none},                   // 4
			{Kind: KLoadT, A: 4, B: none, P: none, Imm: 1},           // 5
			{Kind: KSetp, A: 0, B: none, P: none, Alu: 2, Imm: 5},    // 6
			{Kind: KSelp, A: 1, B: none, P: 6, Alu: add, Imm: 9},     // 7
			{Kind: KGuard, A: 1, B: 0, P: 6, Alu: xor, Imm: 0x10},    // 8: @p
			{Kind: KGuard, A: 7, B: none, P: 6, Alu: sub, Imm: 0x21}, // 9: @!p
			{Kind: KAtom, A: 0, B: none, P: none, Imm: 3},            // 10
			{Kind: KShStore, A: 8, B: none, P: none},                 // 11
			{Kind: KBar, A: none, B: none, P: none},                  // 12
			{Kind: KShLoad, A: 0, B: none, P: none},                  // 13
			{Kind: KLoop, A: none, B: none, P: none, Imm: 2},         // 14
			{Kind: KSetp, A: 13, B: none, P: none, Alu: 0, Imm: 4},   // 15
			{Kind: KIf, A: none, B: none, P: 6, Imm: 0},              // 16
			{Kind: KLoadG, A: 10, B: none, P: none, Imm: 0},          // 17: N
			{Kind: KStore, A: 5, B: none, P: none, Imm: 1},           // 18
			{Kind: KEnd, A: none, B: none, P: none},                  // 19
			{Kind: KIf, A: none, B: none, P: 15, Imm: 1},             // 20
			{Kind: KStore, A: 3, B: none, P: none, Imm: 2},           // 21
			{Kind: KEnd, A: none, B: none, P: none},                  // 22
			{Kind: KEnd, A: none, B: none, P: none},                  // 23
			{Kind: KStore, A: 9, B: none, P: none, Imm: 0},           // 24
			{Kind: KLoop, A: none, B: none, P: none, Imm: 1},         // 25: open
			{Kind: KIf, A: none, B: none, P: 6, Imm: 1},              // 26: open
			{Kind: KLoadG, A: 13, B: none, P: none, Imm: 1},          // 27: N
			{Kind: KStore, A: 27, B: none, P: none, Imm: 3},          // 28
		},
	}
}

// lowerGoldenText renders a case as its disassembly followed by one
// "// want <index> <D|N>" comment per global load, in index order.
func lowerGoldenText(c *Case) string {
	idx := make([]int, 0, len(c.Want))
	for i := range c.Want {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var b strings.Builder
	b.WriteString(c.Kernel.Disassemble())
	for _, i := range idx {
		fmt.Fprintf(&b, "// want %d %s\n", i, classString(c.Want[i]))
	}
	return b.String()
}

// buildLowerGolden lowers the hand-written golden program, checking first
// that it covers every op kind.
func buildLowerGolden(t *testing.T) *Case {
	t.Helper()
	p := Repair(lowerGoldenProg())
	kinds := map[OpKind]bool{}
	for _, op := range p.Ops {
		kinds[op.Kind] = true
	}
	if len(kinds) != int(numKinds) {
		t.Fatalf("program covers %d of %d op kinds", len(kinds), numKinds)
	}
	c, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLowerGolden pins the lowering of one hand-written program, so a change
// to how ops become PTX shows as a diff against testdata/lower.ptx without
// depending on what the generator happens to draw.
func TestLowerGolden(t *testing.T) {
	c := buildLowerGolden(t)
	want, err := os.ReadFile("testdata/lower.ptx")
	if err != nil {
		t.Fatal(err)
	}
	if got := lowerGoldenText(c); got != string(want) {
		t.Errorf("lowering drifted from testdata/lower.ptx; got:\n%s", got)
	}
}

// TestLowerStructuredLoop checks that every loop of the golden program ends
// in a backward branch on the trip test.
func TestLowerStructuredLoop(t *testing.T) {
	k := buildLowerGolden(t).Kernel
	loops := 0
	for i, in := range k.Insts {
		if in.Op != isa.OpBra || !strings.HasPrefix(in.Label, "__loop") {
			continue
		}
		loops++
		if in.Targ > i || in.Guard.Negate {
			t.Errorf("loop branch at %d: %s to %d, want a backward branch on the trip test", i, in, in.Targ)
		}
	}
	if loops == 0 {
		t.Fatal("no loop branch emitted")
	}
}

// TestLowerStructuredIf checks that each if of the golden program skips
// forward past its body on the negation of the block's guard.
func TestLowerStructuredIf(t *testing.T) {
	k := buildLowerGolden(t).Kernel
	var skips []bool
	for i, in := range k.Insts {
		if in.Op != isa.OpBra || !strings.HasPrefix(in.Label, "__endif") {
			continue
		}
		if in.Targ <= i {
			t.Errorf("if-skip branch at %d: %s to %d, want a forward branch", i, in, in.Targ)
		}
		skips = append(skips, in.Guard.Negate)
	}
	// Ops 16 (@p) and 20 (@!p) become an @!p and an @p skip, in that order.
	if !reflect.DeepEqual(skips, []bool{true, false}) {
		t.Errorf("if-skip guards negated %v, want [true false]", skips)
	}
}
