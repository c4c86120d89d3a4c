package kgen

import (
	"math/rand"
	"reflect"
	"testing"

	"critload/internal/dataflow"
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
