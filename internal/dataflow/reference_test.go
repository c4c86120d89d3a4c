package dataflow

import (
	"sort"

	"critload/internal/isa"
	"critload/internal/ptx"
)

// This file keeps the classifier's previous implementation as a test oracle:
// per-instruction reaching-definition bitsets, a def→use taint fixpoint, and
// a separate backward walk from every global load's address register. It is
// quadratic in memory and up to cubic in time on kernels whose address chains
// through an accumulator, but it is a direct transcription of the paper's
// rule, so the value-graph classifier must agree with it on every kernel
// (class exactly; roots as the distinct (kind, name) pairs of its list).

// refRoot is the reference's root record: it also names the defining
// instruction (-1 for immediates and undefined addresses), so the same
// (kind, name) pair can appear once per producing instruction.
type refRoot struct {
	Kind RootKind
	Inst int
	Name string
}

type refLoadInfo struct {
	InstIndex int
	PC        uint32
	Class     Class
	Roots     []refRoot
}

type refResult struct {
	Loads []refLoadInfo
}

func refClassify(k *ptx.Kernel) *refResult {
	a := newRefAnalysis(k)
	a.solveReaching()
	a.propagateTaint()

	res := &refResult{}
	for _, idx := range k.GlobalLoads() {
		res.Loads = append(res.Loads, a.classifyLoad(idx))
	}
	return res
}

// A definition is an instruction that writes a general register or a
// predicate register. Definitions are numbered densely; predicates live in
// the same def space to keep a single bitset.
type refAnalysis struct {
	k    *ptx.Kernel
	cfg  *ptx.CFG
	defs []refDefSite // defID -> site
	// defsOfReg[r] / defsOfPred[p]: defIDs writing that register.
	defsOfReg  [][]int
	defsOfPred [][]int
	words      int
	// Per block bitsets.
	gen, kill, in, out []refBitset
	// reachingAt[i] is the reaching-def bitset immediately before inst i.
	reachingAt []refBitset
	// tainted[d] reports whether def d transitively depends on a data load.
	tainted []bool
}

type refDefSite struct {
	inst int
	reg  int
	pred bool
}

type refBitset []uint64

func (b refBitset) set(i int)            { b[i/64] |= 1 << (i % 64) }
func (b refBitset) clear(i int)          { b[i/64] &^= 1 << (i % 64) }
func (b refBitset) get(i int) bool       { return b[i/64]&(1<<(i%64)) != 0 }
func (b refBitset) copyFrom(o refBitset) { copy(b, o) }
func (b refBitset) orInto(o refBitset) bool {
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
func (b refBitset) andNot(o refBitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

func newRefAnalysis(k *ptx.Kernel) *refAnalysis {
	a := &refAnalysis{
		k:          k,
		cfg:        k.CFG(),
		defsOfReg:  make([][]int, k.NumRegs),
		defsOfPred: make([][]int, k.NumPreds),
	}
	for i, in := range k.Insts {
		if r := in.DefReg(); r >= 0 {
			id := len(a.defs)
			a.defs = append(a.defs, refDefSite{inst: i, reg: r})
			a.defsOfReg[r] = append(a.defsOfReg[r], id)
		}
		if p := in.DefPred(); p >= 0 {
			id := len(a.defs)
			a.defs = append(a.defs, refDefSite{inst: i, reg: p, pred: true})
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
// generate their def but do not kill previous ones.
func (a *refAnalysis) solveReaching() {
	nb := len(a.cfg.Blocks)
	a.gen = make([]refBitset, nb)
	a.kill = make([]refBitset, nb)
	a.in = make([]refBitset, nb)
	a.out = make([]refBitset, nb)
	for b := 0; b < nb; b++ {
		a.gen[b] = make(refBitset, a.words)
		a.kill[b] = make(refBitset, a.words)
		a.in[b] = make(refBitset, a.words)
		a.out[b] = make(refBitset, a.words)
	}

	defIDsAt := make(map[int][]int, len(a.defs)) // inst -> defIDs
	for id, d := range a.defs {
		defIDsAt[d.inst] = append(defIDsAt[d.inst], id)
	}
	allOf := func(d refDefSite) []int {
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

	changed := true
	tmp := make(refBitset, a.words)
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

	n := len(a.k.Insts)
	a.reachingAt = make([]refBitset, n)
	cur := make(refBitset, a.words)
	for _, blk := range a.cfg.Blocks {
		cur.copyFrom(a.in[blk.ID])
		for i := blk.Start; i < blk.End; i++ {
			a.reachingAt[i] = make(refBitset, a.words)
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

// refRootOf returns the primitive root kind if the defining instruction is a
// leaf of the dependency chain, or ok=false for pass-through arithmetic.
func refRootOf(in *isa.Instruction) (RootKind, string, bool) {
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
// depends on a data load, with a forward worklist over def→use-def edges.
func (a *refAnalysis) propagateTaint() {
	a.tainted = make([]bool, len(a.defs))
	feeds := make([][]int, len(a.defs))
	for id, d := range a.defs {
		in := a.k.Insts[d.inst]
		if kind, _, isRoot := refRootOf(in); isRoot {
			if kind.Taints() {
				a.tainted[id] = true
			}
			continue
		}
		for _, src := range a.sourceDefs(d.inst) {
			feeds[src] = append(feeds[src], id)
		}
	}
	var work []int
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
// source registers or predicates, including the guard predicate.
func (a *refAnalysis) sourceDefs(i int) []int {
	in := a.k.Insts[i]
	reach := a.reachingAt[i]
	var out []int
	seen := map[int]bool{}
	add := func(ids []int) {
		for _, id := range ids {
			if reach.get(id) && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	for _, r := range in.SourceRegs(nil) {
		add(a.defsOfReg[r])
	}
	for s := 0; s < in.NSrc; s++ {
		if in.Srcs[s].Kind == isa.OpdPred {
			add(a.defsOfPred[in.Srcs[s].Reg])
		}
	}
	if in.Guard.Active() {
		add(a.defsOfPred[in.Guard.Reg])
	}
	return out
}

// classifyLoad performs the backward walk from the address register of the
// global load at instruction idx, collecting primitive roots and the class.
func (a *refAnalysis) classifyLoad(idx int) refLoadInfo {
	in := a.k.Insts[idx]
	li := refLoadInfo{InstIndex: idx, PC: in.PC, Class: Deterministic}

	addrReg, ok := in.AddrReg()
	if !ok {
		li.Roots = append(li.Roots, refRoot{Kind: RootImmediate, Inst: -1})
		return li
	}

	reach := a.reachingAt[idx]
	var stack []int
	seen := map[int]bool{}
	for _, id := range a.defsOfReg[addrReg] {
		if reach.get(id) {
			stack = append(stack, id)
			seen[id] = true
		}
	}
	if len(stack) == 0 {
		li.Roots = append(li.Roots, refRoot{Kind: RootUndefined, Inst: -1})
		return li
	}

	rootSeen := map[refRoot]bool{}
	addRoot := func(r refRoot) {
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
		if kind, name, isRoot := refRootOf(din); isRoot {
			addRoot(refRoot{Kind: kind, Inst: d.inst, Name: name})
			continue
		}
		for s := 0; s < din.NSrc; s++ {
			if din.Srcs[s].Kind == isa.OpdImm || din.Srcs[s].Kind == isa.OpdFImm {
				addRoot(refRoot{Kind: RootImmediate, Inst: -1})
			}
			if din.Srcs[s].Kind == isa.OpdSReg {
				addRoot(refRoot{Kind: RootSpecialReg, Inst: d.inst, Name: din.Srcs[s].SReg.String()})
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

// ReferenceClassify and ReferenceRootOf expose the reference to the external
// equivalence tests, which need kgen and the families (both import this
// package).
var (
	ReferenceClassify = refClassify
	ReferenceRootOf   = refRootOf
)
