// Package dataflow implements the paper's load-classification analysis: a
// backward walk over register definitions (reaching-definitions dataflow plus
// taint propagation) that labels every global load instruction as
// deterministic or non-deterministic.
//
// A load is deterministic when its effective address derives only from
// parameterized data — kernel parameters (ld.param), special registers
// (thread/CTA ids and dimensions), constant-space loads and immediates. It is
// non-deterministic when any contributing definition is a data load
// (ld.global, ld.local, ld.shared, ld.tex) or an atomic return value, i.e.
// the address depends on values read from memory at run time.
package dataflow

import (
	"fmt"
	"sort"

	"critload/internal/isa"
	"critload/internal/ptx"
)

// Class is the paper's two-way load classification.
type Class uint8

// Classification outcomes.
const (
	Deterministic Class = iota
	NonDeterministic
)

func (c Class) String() string {
	if c == Deterministic {
		return "deterministic"
	}
	return "non-deterministic"
}

// RootKind describes one primitive source feeding an address computation.
type RootKind uint8

// Root kinds, from parameterized (deterministic) to data-dependent.
const (
	RootParam      RootKind = iota // ld.param
	RootSpecialReg                 // %tid, %ctaid, ...
	RootImmediate
	RootConstLoad // ld.const
	RootDataLoad  // ld.global/.local/.shared/.tex
	RootAtomic    // atom return value
	RootUndefined // use of a register with no reaching definition
)

var rootNames = map[RootKind]string{
	RootParam: "param", RootSpecialReg: "sreg", RootImmediate: "imm",
	RootConstLoad: "const", RootDataLoad: "data-load", RootAtomic: "atomic",
	RootUndefined: "undef",
}

func (r RootKind) String() string { return rootNames[r] }

// Taints reports whether this root makes a dependent load non-deterministic.
func (r RootKind) Taints() bool { return r == RootDataLoad || r == RootAtomic }

// Root is one primitive contributor to a load's address, with its origin.
type Root struct {
	Kind RootKind
	Inst int    // defining instruction index (-1 for immediates/undef)
	Name string // parameter name or special-register name when applicable
}

// LoadInfo is the classification result for one global load instruction.
type LoadInfo struct {
	InstIndex int
	PC        uint32
	Class     Class
	Roots     []Root // deduplicated primitive sources of the address
}

// Result holds the classification of every global load in a kernel.
type Result struct {
	Kernel *ptx.Kernel
	Loads  []LoadInfo
	byIdx  map[int]int
}

// Load returns the classification record for the global load at instruction
// index i.
func (r *Result) Load(i int) (LoadInfo, bool) {
	j, ok := r.byIdx[i]
	if !ok {
		return LoadInfo{}, false
	}
	return r.Loads[j], true
}

// NonDetAt reports whether the instruction at byte address pc is a global
// load classified non-deterministic. As a method value it is the per-kernel
// classifier both simulators hand to the statistics collector.
func (r *Result) NonDetAt(pc uint32) bool {
	li, ok := r.Load(int(pc) / isa.InstBytes)
	return ok && li.Class == NonDeterministic
}

// Counts returns the number of deterministic and non-deterministic global
// loads (static counts).
func (r *Result) Counts() (det, nondet int) {
	for _, l := range r.Loads {
		if l.Class == Deterministic {
			det++
		} else {
			nondet++
		}
	}
	return det, nondet
}

// String renders a per-PC classification table.
func (r *Result) String() string {
	s := fmt.Sprintf("kernel %s: %d global loads\n", r.Kernel.Name, len(r.Loads))
	for _, l := range r.Loads {
		s += fmt.Sprintf("  PC 0x%03x  %-18s  %s\n", l.PC, l.Class, r.Kernel.Insts[l.InstIndex])
	}
	return s
}

// Classify runs the analysis on kernel k.
func Classify(k *ptx.Kernel) *Result {
	a := newAnalysis(k)
	a.solveReaching()
	a.propagateTaint()

	res := &Result{Kernel: k, byIdx: map[int]int{}}
	for _, idx := range k.GlobalLoads() {
		li := a.classifyLoad(idx)
		res.byIdx[idx] = len(res.Loads)
		res.Loads = append(res.Loads, li)
	}
	return res
}

// ClassifyProgram classifies every kernel of a program.
func ClassifyProgram(p *ptx.Program) map[string]*Result {
	out := make(map[string]*Result, len(p.Kernels))
	for _, k := range p.Kernels {
		out[k.Name] = Classify(k)
	}
	return out
}

// ---------------------------------------------------------------------------
// Reaching definitions + taint fixpoint
// ---------------------------------------------------------------------------

// A definition is an instruction that writes a general register or a
// predicate register. Definitions are numbered densely; predicates live in
// the same def space to keep a single bitset.
type analysis struct {
	k    *ptx.Kernel
	cfg  *ptx.CFG
	defs []defSite // defID -> site
	// defsOfReg[r] / defsOfPred[p]: defIDs writing that register.
	defsOfReg  [][]int
	defsOfPred [][]int
	words      int
	// Per block bitsets.
	gen, kill, in, out []bitset
	// reachingAt[i] is the reaching-def bitset immediately before inst i.
	reachingAt []bitset
	// tainted[d] reports whether def d transitively depends on a data load.
	tainted []bool
}

type defSite struct {
	inst int
	reg  int
	pred bool
}

type bitset []uint64

func newBitset(words int) bitset { return make(bitset, words) }

func (b bitset) set(i int)         { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)       { b[i/64] &^= 1 << (i % 64) }
func (b bitset) get(i int) bool    { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) copyFrom(o bitset) { copy(b, o) }
func (b bitset) orInto(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}
func (b bitset) andNot(o bitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

func newAnalysis(k *ptx.Kernel) *analysis {
	a := &analysis{
		k:          k,
		cfg:        k.CFG(),
		defsOfReg:  make([][]int, k.NumRegs),
		defsOfPred: make([][]int, k.NumPreds),
	}
	for i, in := range k.Insts {
		if r := in.DefReg(); r >= 0 {
			id := len(a.defs)
			a.defs = append(a.defs, defSite{inst: i, reg: r})
			a.defsOfReg[r] = append(a.defsOfReg[r], id)
		}
		if p := in.DefPred(); p >= 0 {
			id := len(a.defs)
			a.defs = append(a.defs, defSite{inst: i, reg: p, pred: true})
			a.defsOfPred[p] = append(a.defsOfPred[p], id)
		}
	}
	a.words = (len(a.defs) + 63) / 64
	if a.words == 0 {
		a.words = 1
	}
	return a
}

// solveReaching computes classic reaching definitions at instruction
// granularity. Guarded (predicated) instructions are *may* definitions: they
// generate their def but do not kill previous ones, which is the conservative
// treatment required for classification soundness.
func (a *analysis) solveReaching() {
	nb := len(a.cfg.Blocks)
	a.gen = make([]bitset, nb)
	a.kill = make([]bitset, nb)
	a.in = make([]bitset, nb)
	a.out = make([]bitset, nb)
	for b := 0; b < nb; b++ {
		a.gen[b] = newBitset(a.words)
		a.kill[b] = newBitset(a.words)
		a.in[b] = newBitset(a.words)
		a.out[b] = newBitset(a.words)
	}

	// Build GEN/KILL per block by forward scan.
	defIDsAt := make(map[int][]int, len(a.defs)) // inst -> defIDs
	for id, d := range a.defs {
		defIDsAt[d.inst] = append(defIDsAt[d.inst], id)
	}
	allOf := func(d defSite) []int {
		if d.pred {
			return a.defsOfPred[d.reg]
		}
		return a.defsOfReg[d.reg]
	}
	for _, blk := range a.cfg.Blocks {
		g, kl := a.gen[blk.ID], a.kill[blk.ID]
		for i := blk.Start; i < blk.End; i++ {
			inst := a.k.Insts[i]
			for _, id := range defIDsAt[i] {
				d := a.defs[id]
				if !inst.Guard.Active() {
					// Strong update: kill all other defs of this register.
					for _, o := range allOf(d) {
						if o != id {
							kl.set(o)
							g.clear(o)
						}
					}
				}
				g.set(id)
				kl.clear(id)
			}
		}
	}

	// Iterate IN/OUT to fixpoint.
	changed := true
	tmp := newBitset(a.words)
	for changed {
		changed = false
		for _, blk := range a.cfg.Blocks {
			in := a.in[blk.ID]
			for _, p := range blk.Pred {
				if in.orInto(a.out[p]) {
					changed = true
				}
			}
			tmp.copyFrom(in)
			tmp.andNot(a.kill[blk.ID])
			if a.out[blk.ID].orInto(tmp) {
				changed = true
			}
			if a.out[blk.ID].orInto(a.gen[blk.ID]) {
				changed = true
			}
		}
	}

	// Per-instruction reaching sets by forward scan within each block.
	n := len(a.k.Insts)
	a.reachingAt = make([]bitset, n)
	cur := newBitset(a.words)
	for _, blk := range a.cfg.Blocks {
		cur.copyFrom(a.in[blk.ID])
		for i := blk.Start; i < blk.End; i++ {
			a.reachingAt[i] = newBitset(a.words)
			a.reachingAt[i].copyFrom(cur)
			inst := a.k.Insts[i]
			for _, id := range defIDsAt[i] {
				d := a.defs[id]
				if !inst.Guard.Active() {
					for _, o := range allOf(d) {
						if o != id {
							cur.clear(o)
						}
					}
				}
				cur.set(id)
			}
		}
	}
}

// rootOf returns the primitive root kind if the defining instruction is a
// leaf of the dependency chain, or ok=false for pass-through arithmetic.
func rootOf(in *isa.Instruction) (RootKind, string, bool) {
	switch in.Op {
	case isa.OpLd:
		switch in.Space {
		case isa.SpaceParam:
			return RootParam, in.Srcs[0].Param, true
		case isa.SpaceConst:
			return RootConstLoad, "", true
		default:
			return RootDataLoad, "", true
		}
	case isa.OpAtom:
		return RootAtomic, "", true
	case isa.OpMov:
		if in.Srcs[0].Kind == isa.OpdSReg {
			return RootSpecialReg, in.Srcs[0].SReg.String(), true
		}
		if in.Srcs[0].Kind == isa.OpdImm || in.Srcs[0].Kind == isa.OpdFImm {
			return RootImmediate, "", true
		}
	}
	return 0, "", false
}

// propagateTaint computes, for every definition, whether it transitively
// depends on a data load, as the least fixpoint of
//
//	tainted(d) = isDataLoadDef(d) OR ∃ use-source s of d's instruction,
//	             ∃ def d' of s reaching d's instruction: tainted(d')
//
// solved with a forward worklist over the def→use-def edges.
func (a *analysis) propagateTaint() {
	a.tainted = make([]bool, len(a.defs))
	// dependsOn[d] = defIDs feeding def d's instruction sources.
	dependsOn := make([][]int, len(a.defs))
	feeds := make([][]int, len(a.defs)) // inverse edges
	for id, d := range a.defs {
		in := a.k.Insts[d.inst]
		if kind, _, isRoot := rootOf(in); isRoot {
			if kind.Taints() {
				a.tainted[id] = true
			}
			continue // leaf: no incoming dependencies
		}
		for _, src := range a.sourceDefs(d.inst) {
			dependsOn[id] = append(dependsOn[id], src)
			feeds[src] = append(feeds[src], id)
		}
	}
	work := make([]int, 0, len(a.defs))
	for id, t := range a.tainted {
		if t {
			work = append(work, id)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range feeds[d] {
			if !a.tainted[u] {
				a.tainted[u] = true
				work = append(work, u)
			}
		}
	}
}

// sourceDefs returns the defIDs reaching instruction i that define any of its
// source registers or predicates (including the guard predicate, which is a
// value dependence for predicated writes, and the guard of selp-like ops).
func (a *analysis) sourceDefs(i int) []int {
	in := a.k.Insts[i]
	reach := a.reachingAt[i]
	var out []int
	seen := map[int]bool{}
	addReg := func(r int) {
		for _, id := range a.defsOfReg[r] {
			if reach.get(id) && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	addPred := func(p int) {
		for _, id := range a.defsOfPred[p] {
			if reach.get(id) && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	var regs []int
	for _, r := range in.SourceRegs(regs) {
		addReg(r)
	}
	for s := 0; s < in.NSrc; s++ {
		if in.Srcs[s].Kind == isa.OpdPred {
			addPred(in.Srcs[s].Reg)
		}
	}
	if in.Guard.Active() {
		addPred(in.Guard.Reg)
	}
	return out
}

// classifyLoad performs the backward walk from the address register of the
// global load at instruction idx, collecting primitive roots and the final
// class.
func (a *analysis) classifyLoad(idx int) LoadInfo {
	in := a.k.Insts[idx]
	li := LoadInfo{InstIndex: idx, PC: in.PC, Class: Deterministic}

	addrReg, ok := in.AddrReg()
	if !ok {
		// Absolute-address load: a pure immediate address is deterministic.
		li.Roots = append(li.Roots, Root{Kind: RootImmediate, Inst: -1})
		return li
	}

	// Seed: defs of the address register reaching the load.
	reach := a.reachingAt[idx]
	var stack []int
	seen := map[int]bool{}
	found := false
	for _, id := range a.defsOfReg[addrReg] {
		if reach.get(id) {
			stack = append(stack, id)
			seen[id] = true
			found = true
		}
	}
	if !found {
		li.Roots = append(li.Roots, Root{Kind: RootUndefined, Inst: -1})
		return li
	}

	rootSeen := map[Root]bool{}
	addRoot := func(r Root) {
		if !rootSeen[r] {
			rootSeen[r] = true
			li.Roots = append(li.Roots, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d := a.defs[id]
		din := a.k.Insts[d.inst]
		if a.tainted[id] {
			li.Class = NonDeterministic
		}
		if kind, name, isRoot := rootOf(din); isRoot {
			addRoot(Root{Kind: kind, Inst: d.inst, Name: name})
			continue
		}
		// Pass-through: note immediate sources and keep walking.
		for s := 0; s < din.NSrc; s++ {
			if din.Srcs[s].Kind == isa.OpdImm || din.Srcs[s].Kind == isa.OpdFImm {
				addRoot(Root{Kind: RootImmediate, Inst: -1})
			}
			if din.Srcs[s].Kind == isa.OpdSReg {
				addRoot(Root{Kind: RootSpecialReg, Inst: d.inst, Name: din.Srcs[s].SReg.String()})
			}
		}
		for _, src := range a.sourceDefs(d.inst) {
			if !seen[src] {
				seen[src] = true
				stack = append(stack, src)
			}
		}
	}
	sort.Slice(li.Roots, func(x, y int) bool {
		if li.Roots[x].Kind != li.Roots[y].Kind {
			return li.Roots[x].Kind < li.Roots[y].Kind
		}
		return li.Roots[x].Inst < li.Roots[y].Inst
	})
	return li
}
