// Package dataflow implements the paper's load-classification analysis: every
// global load instruction is labelled deterministic or non-deterministic by
// what its effective address is computed from.
//
// A load is deterministic when its effective address derives only from
// parameterized data — kernel parameters (ld.param), special registers
// (thread/CTA ids and dimensions), constant-space loads and immediates. It is
// non-deterministic when any contributing definition is a data load
// (ld.global, ld.local, ld.shared, ld.tex) or an atomic return value, i.e.
// the address depends on values read from memory at run time.
//
// The paper phrases the rule as a backward walk from each load's address over
// reaching definitions. Classify answers the same question for every load at
// once: it builds one value graph of the kernel (pruned SSA) and solves it in
// a single pass over its strongly connected components, so time and memory
// grow linearly with the kernel.
package dataflow

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"

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

var rootNames = [...]string{
	RootParam: "param", RootSpecialReg: "sreg", RootImmediate: "imm",
	RootConstLoad: "const", RootDataLoad: "data-load", RootAtomic: "atomic",
	RootUndefined: "undef",
}

func (r RootKind) String() string {
	if int(r) < len(rootNames) {
		return rootNames[r]
	}
	return ""
}

// Taints reports whether this root makes a dependent load non-deterministic.
func (r RootKind) Taints() bool { return r == RootDataLoad || r == RootAtomic }

// Root is one primitive contributor to a load's address.
type Root struct {
	Kind RootKind
	Name string // parameter name or special-register name when applicable
}

// LoadInfo is the classification result for one global load instruction.
type LoadInfo struct {
	InstIndex int
	PC        uint32
	Class     Class
	// Roots are the distinct (kind, name) primitive sources of the address,
	// ordered by kind, then by the first place in the kernel that produces
	// the pair (instruction index, then operand index).
	Roots []Root
}

// Result holds the classification of every global load in a kernel.
type Result struct {
	Kernel *ptx.Kernel
	Loads  []LoadInfo
	at     []int32 // per instruction: its index in Loads, or -1
}

// Load returns the classification record for the global load at instruction
// index i.
func (r *Result) Load(i int) (LoadInfo, bool) {
	if uint(i) >= uint(len(r.at)) || r.at[i] < 0 {
		return LoadInfo{}, false
	}
	return r.Loads[r.at[i]], true
}

// NonDetAt reports whether the instruction at byte address pc is a global
// load classified non-deterministic. As a method value it is the per-kernel
// classifier both simulators hand to the statistics collector.
func (r *Result) NonDetAt(pc uint32) bool {
	i := pc / isa.InstBytes
	return i < uint32(len(r.at)) && r.at[i] >= 0 && r.Loads[r.at[i]].Class == NonDeterministic
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
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s: %d global loads\n", r.Kernel.Name, len(r.Loads))
	for _, l := range r.Loads {
		fmt.Fprintf(&b, "  PC 0x%03x  %-18s  %s\n", l.PC, l.Class, r.Kernel.Insts[l.InstIndex])
	}
	return b.String()
}

// Classify runs the analysis on kernel k.
func Classify(k *ptx.Kernel) *Result {
	g := graphPool.Get().(*graph)
	res := g.classify(k)
	g.k, g.cfg = nil, nil
	graphPool.Put(g)
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
// The value graph
//
// Every instruction that writes a general or predicate register (a *slot*)
// defines one value. A value's inputs are the values its sources read: every
// source register, source predicate and the guard of a pass-through
// instruction, nothing for a root instruction (ld, atom, mov of a special
// register or immediate), which starts a chain. A guarded definition may not
// execute, so it does not kill the slot's previous value: that value is one
// more input (the paper's "may-def, no kill" rule). Where a slot is live into
// a basic block, the block gets one phi over the predecessors' exit values;
// liveness runs first, so no phi is built that nothing reads (pruned SSA, as
// in Braun et al., CC 2013). Each read names exactly one value, so the graph
// has O(instructions + phis) edges.
//
// Three monotone facts hold per value: whether some definition reaches it,
// whether it is tainted by a data load or atomic, and its set of root pairs.
// Each is the union of the value's own contribution and its inputs' facts,
// so all values of one strongly connected component share them, and one pass
// over the components in dependency order (Tarjan's algorithm emits them so)
// solves the graph. A load's class and roots are then those of its address
// value: no per-load walk.

// Pair keys intern the (kind, name) pairs a kernel can produce: the four
// unnamed root kinds, one key per special register, one per declared
// parameter, and a last key for an ld.param of an undeclared name (which
// Validate rejects, so only hand-assembled kernels reach it).
const (
	keyImm = iota
	keyConst
	keyData
	keyAtomic
	keySReg // + the special register
)

const numSRegs = int(isa.SrWarpId) + 1

// Fact bits of a component.
const (
	factReached uint8 = 1 << iota
	factTainted
)

// pair is a (key, value) edge of a list grouped by csr.
type pair struct{ key, val int32 }

// graph builds and solves one kernel's value graph. It holds nothing but
// scratch between calls, so instances are pooled.
type graph struct {
	k      *ptx.Kernel
	cfg    *ptx.CFG
	nregs  int // slots [0, nregs) are general registers, the rest predicates
	nslots int

	// Root pairs: pairOf[key] is the pair's final index in pairs, -1 when
	// the kernel never produces it; order lists keys by first producer.
	pairOf  []int32
	order   []int32
	pairs   []Root
	unknown string // name of the undeclared-parameter key's first producer

	// Per instruction: the slot written (-1: none) and, for a root
	// instruction, its pair key (-1: pass-through).
	defSlot []int32
	rootKey []int32
	ndefs   int

	// Liveness scratch and the phis it places, grouped by block.
	killAt, ueAt, liveMark, killMark []int32
	ue, kill, phis                   []pair
	ueOff, ueBlk, killOff, killBlk   []int32
	phiOff, phiSlot, stack           []int32

	// Values: phis are [0, nphi), definitions follow in program order.
	nphi    int
	valInst []int32 // instruction of definition value nphi+j
	cur     []int32 // per slot: current value while scanning a block
	curAt   []int32 // per slot: block+1 whose scan set cur
	edges   []pair  // value → input
	adjOff  []int32
	adj     []int32

	// Global loads in program order and their address values (-1:
	// undefined, -2: absolute address).
	loadInst []int32
	addrVal  []int32

	// Tarjan's algorithm and the per-component facts.
	index, low, comp []int32
	tstack           []int32
	frames           []frame
	words            int
	rows             []uint64 // component c's root set: rows[c*words:(c+1)*words]
	facts            []uint8
}

type frame struct{ v, e int32 }

var graphPool = sync.Pool{New: func() any { return new(graph) }}

// resize returns s with length n, reusing its storage when it can. The
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// csr groups pairs by key, stably: the values of key x end up in
// items[off[x]:off[x+1]].
func csr(n int, pairs []pair, off, items []int32) ([]int32, []int32) {
	off = resize(off, n+1)
	clear(off)
	for _, p := range pairs {
		off[p.key+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	items = resize(items, len(pairs))
	for _, p := range pairs {
		items[off[p.key]] = p.val
		off[p.key]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, items
}

func (g *graph) classify(k *ptx.Kernel) *Result {
	g.k, g.cfg = k, k.CFG()
	g.nregs, g.nslots = k.NumRegs, k.NumRegs+k.NumPreds
	g.internPairs()
	g.liveness()
	g.build()
	g.solve()
	return g.result()
}

// rootKeyOf returns the pair key of a root instruction's value, or false for
// pass-through arithmetic.
func (g *graph) rootKeyOf(in *isa.Instruction) (int, bool) {
	switch in.Op {
	case isa.OpLd:
		switch in.Space {
		case isa.SpaceParam:
			base := keySReg + numSRegs
			for j := range g.k.Params {
				if g.k.Params[j].Name == in.Srcs[0].Param {
					return base + j, true
				}
			}
			if g.unknown == "" {
				g.unknown = in.Srcs[0].Param
			}
			return base + len(g.k.Params), true
		case isa.SpaceConst:
			return keyConst, true
		}
		return keyData, true
	case isa.OpAtom:
		return keyAtomic, true
	case isa.OpMov:
		switch in.Srcs[0].Kind {
		case isa.OpdSReg:
			return keySReg + int(in.Srcs[0].SReg), true
		case isa.OpdImm, isa.OpdFImm:
			return keyImm, true
		}
	}
	return -1, false
}

// operandKey returns the pair key a pass-through source operand contributes,
// or -1.
func operandKey(o isa.Operand) int {
	switch o.Kind {
	case isa.OpdImm, isa.OpdFImm:
		return keyImm
	case isa.OpdSReg:
		return keySReg + int(o.SReg)
	}
	return -1
}

// keyRoot returns the (kind, name) pair a key stands for.
func (g *graph) keyRoot(key int) Root {
	switch {
	case key == keyImm:
		return Root{Kind: RootImmediate}
	case key == keyConst:
		return Root{Kind: RootConstLoad}
	case key == keyData:
		return Root{Kind: RootDataLoad}
	case key == keyAtomic:
		return Root{Kind: RootAtomic}
	case key < keySReg+numSRegs:
		return Root{Kind: RootSpecialReg, Name: isa.SpecialReg(key - keySReg).String()}
	case key-keySReg-numSRegs < len(g.k.Params):
		return Root{Kind: RootParam, Name: g.k.Params[key-keySReg-numSRegs].Name}
	}
	return Root{Kind: RootParam, Name: g.unknown}
}

// internPairs records every instruction's written slot and root key and
// numbers the kernel's distinct root pairs by kind, then first producer.
func (g *graph) internPairs() {
	insts := g.k.Insts
	nkeys := keySReg + numSRegs + len(g.k.Params) + 1
	g.pairOf = resize(g.pairOf, nkeys)
	for i := range g.pairOf {
		g.pairOf[i] = -1
	}
	g.order = g.order[:0]
	g.unknown = ""
	see := func(key int) {
		if g.pairOf[key] < 0 {
			g.pairOf[key] = 0
			g.order = append(g.order, int32(key))
		}
	}
	g.defSlot = resize(g.defSlot, len(insts))
	g.rootKey = resize(g.rootKey, len(insts))
	g.ndefs = 0
	for i, in := range insts {
		g.defSlot[i], g.rootKey[i] = -1, -1
		switch r, p := in.DefReg(), in.DefPred(); {
		case r >= 0:
			g.defSlot[i] = int32(r)
		case p >= 0:
			g.defSlot[i] = int32(g.nregs + p)
		default:
			continue
		}
		g.ndefs++
		if key, ok := g.rootKeyOf(in); ok {
			g.rootKey[i] = int32(key)
			see(key)
			continue
		}
		for s := 0; s < in.NSrc; s++ {
			if key := operandKey(in.Srcs[s]); key >= 0 {
				see(key)
			}
		}
	}
	g.pairs = g.pairs[:0]
	for kind := RootParam; kind < RootUndefined; kind++ {
		for _, key := range g.order {
			if r := g.keyRoot(int(key)); r.Kind == kind {
				g.pairOf[key] = int32(len(g.pairs))
				g.pairs = append(g.pairs, r)
			}
		}
	}
	g.words = (len(g.pairs) + 63) / 64
}

// uses appends the slots instruction i reads that the graph needs: a global
// load's address register; every source and the guard of a pass-through
// definition; the previous value of a guarded definition's slot.
func (g *graph) uses(i int, in *isa.Instruction, buf []int32) []int32 {
	if in.IsGlobalLoad() {
		if r, ok := in.AddrReg(); ok {
			buf = append(buf, int32(r))
		}
	}
	d := g.defSlot[i]
	if d < 0 {
		return buf
	}
	if g.rootKey[i] < 0 {
		for s := 0; s < in.NSrc; s++ {
			switch o := in.Srcs[s]; o.Kind {
			case isa.OpdReg:
				buf = append(buf, int32(o.Reg))
			case isa.OpdMem:
				if o.Reg >= 0 {
					buf = append(buf, int32(o.Reg))
				}
			case isa.OpdPred:
				buf = append(buf, int32(g.nregs+o.Reg))
			}
		}
		if in.Guard.Active() {
			buf = append(buf, int32(g.nregs+in.Guard.Reg))
		}
	}
	if in.Guard.Active() {
		buf = append(buf, d)
	}
	return buf
}

// liveness places the phis: one per (block, slot) with the slot live into
// the block. A slot is live into the blocks with an upward-exposed read of
// it and, transitively, into every predecessor of a live block that does
// not unconditionally redefine it.
func (g *graph) liveness() {
	insts, blocks := g.k.Insts, g.cfg.Blocks
	nb := len(blocks)
	g.killAt = resize(g.killAt, g.nslots)
	g.ueAt = resize(g.ueAt, g.nslots)
	clear(g.killAt)
	clear(g.ueAt)
	g.ue, g.kill = g.ue[:0], g.kill[:0]
	var buf [6]int32
	for _, b := range blocks {
		tag := int32(b.ID + 1)
		for i := b.Start; i < b.End; i++ {
			in := insts[i]
			for _, s := range g.uses(i, in, buf[:0]) {
				if g.killAt[s] != tag && g.ueAt[s] != tag {
					g.ueAt[s] = tag
					g.ue = append(g.ue, pair{s, int32(b.ID)})
				}
			}
			if d := g.defSlot[i]; d >= 0 && !in.Guard.Active() && g.killAt[d] != tag {
				g.killAt[d] = tag
				g.kill = append(g.kill, pair{d, int32(b.ID)})
			}
		}
	}
	g.ueOff, g.ueBlk = csr(g.nslots, g.ue, g.ueOff, g.ueBlk)
	g.killOff, g.killBlk = csr(g.nslots, g.kill, g.killOff, g.killBlk)

	g.liveMark = resize(g.liveMark, nb)
	g.killMark = resize(g.killMark, nb)
	clear(g.liveMark)
	clear(g.killMark)
	g.phis = g.phis[:0]
	for s := 0; s < g.nslots; s++ {
		ue := g.ueBlk[g.ueOff[s]:g.ueOff[s+1]]
		if len(ue) == 0 {
			continue
		}
		tag := int32(s + 1)
		for _, b := range g.killBlk[g.killOff[s]:g.killOff[s+1]] {
			g.killMark[b] = tag
		}
		g.stack = g.stack[:0]
		for _, b := range ue {
			g.liveMark[b] = tag
			g.phis = append(g.phis, pair{b, int32(s)})
			g.stack = append(g.stack, b)
		}
		for len(g.stack) > 0 {
			b := g.stack[len(g.stack)-1]
			g.stack = g.stack[:len(g.stack)-1]
			for _, p := range blocks[b].Pred {
				if g.liveMark[p] != tag && g.killMark[p] != tag {
					g.liveMark[p] = tag
					g.phis = append(g.phis, pair{int32(p), int32(s)})
					g.stack = append(g.stack, int32(p))
				}
			}
		}
	}
	g.phiOff, g.phiSlot = csr(nb, g.phis, g.phiOff, g.phiSlot)
	g.nphi = len(g.phiSlot)
}

// build numbers the values, records each one's inputs, and resolves every
// global load's address to a value.
func (g *graph) build() {
	insts := g.k.Insts
	g.valInst = resize(g.valInst, g.ndefs)
	g.cur = resize(g.cur, g.nslots)
	g.curAt = resize(g.curAt, g.nslots)
	clear(g.curAt)
	g.edges = g.edges[:0]
	g.loadInst, g.addrVal = g.loadInst[:0], g.addrVal[:0]
	next := int32(g.nphi)
	var buf [6]int32
	for _, b := range g.cfg.Blocks {
		tag := int32(b.ID + 1)
		read := func(s int32) int32 {
			if g.curAt[s] == tag {
				return g.cur[s]
			}
			return -1
		}
		for j := g.phiOff[b.ID]; j < g.phiOff[b.ID+1]; j++ {
			s := g.phiSlot[j]
			g.cur[s], g.curAt[s] = j, tag
		}
		for i := b.Start; i < b.End; i++ {
			in := insts[i]
			uses := g.uses(i, in, buf[:0])
			if in.IsGlobalLoad() {
				addr := int32(-2)
				if _, ok := in.AddrReg(); ok {
					addr = read(uses[0])
					uses = uses[1:]
				}
				g.loadInst = append(g.loadInst, int32(i))
				g.addrVal = append(g.addrVal, addr)
			}
			d := g.defSlot[i]
			if d < 0 {
				continue
			}
			v := next
			next++
			g.valInst[int(v)-g.nphi] = int32(i)
			for _, s := range uses {
				if u := read(s); u >= 0 {
					g.edges = append(g.edges, pair{v, u})
				}
			}
			g.cur[d], g.curAt[d] = v, tag
		}
		for _, q := range b.Succ {
			for j := g.phiOff[q]; j < g.phiOff[q+1]; j++ {
				if u := read(g.phiSlot[j]); u >= 0 {
					g.edges = append(g.edges, pair{j, u})
				}
			}
		}
	}
	g.adjOff, g.adj = csr(int(next), g.edges, g.adjOff, g.adj)
}

// solve finds the value graph's strongly connected components with an
// iterative Tarjan's algorithm and computes each component's facts as it is
// emitted, when every component it reads from is already done.
func (g *graph) solve() {
	nv := g.nphi + g.ndefs
	g.index = resize(g.index, nv)
	g.low = resize(g.low, nv)
	g.comp = resize(g.comp, nv)
	clear(g.index)
	for i := range g.comp {
		g.comp[i] = -1
	}
	g.rows = resize(g.rows, nv*g.words)
	clear(g.rows)
	g.facts = resize(g.facts, nv)
	g.tstack, g.frames = g.tstack[:0], g.frames[:0]
	counter, ncomp := int32(0), int32(0)
	for root := int32(0); int(root) < nv; root++ {
		if g.index[root] != 0 {
			continue
		}
		counter++
		g.index[root], g.low[root] = counter, counter
		g.tstack = append(g.tstack, root)
		g.frames = append(g.frames, frame{root, g.adjOff[root]})
		for len(g.frames) > 0 {
			f := &g.frames[len(g.frames)-1]
			v := f.v
			if f.e < g.adjOff[v+1] {
				w := g.adj[f.e]
				f.e++
				switch {
				case g.index[w] == 0:
					counter++
					g.index[w], g.low[w] = counter, counter
					g.tstack = append(g.tstack, w)
					g.frames = append(g.frames, frame{w, g.adjOff[w]})
				case g.comp[w] < 0: // on the stack
					g.low[v] = min(g.low[v], g.index[w])
				}
				continue
			}
			g.frames = g.frames[:len(g.frames)-1]
			if len(g.frames) > 0 {
				p := g.frames[len(g.frames)-1].v
				g.low[p] = min(g.low[p], g.low[v])
			}
			if g.low[v] != g.index[v] {
				continue
			}
			start := len(g.tstack) - 1
			for g.tstack[start] != v {
				start--
			}
			members := g.tstack[start:]
			g.tstack = g.tstack[:start]
			for _, m := range members {
				g.comp[m] = ncomp
			}
			g.componentFacts(ncomp, members)
			ncomp++
		}
	}
}

// componentFacts computes component c's facts: its members' own
// contributions and everything their inputs outside c carry.
func (g *graph) componentFacts(c int32, members []int32) {
	w := g.words
	row := g.rows[int(c)*w : int(c+1)*w]
	var facts uint8
	set := func(key int) {
		p := g.pairOf[key]
		row[p/64] |= 1 << (p % 64)
	}
	for _, m := range members {
		if int(m) >= g.nphi {
			i := g.valInst[int(m)-g.nphi]
			in := g.k.Insts[i]
			facts |= factReached
			if key := int(g.rootKey[i]); key >= 0 {
				set(key)
				if key == keyData || key == keyAtomic {
					facts |= factTainted
				}
			} else {
				for s := 0; s < in.NSrc; s++ {
					if key := operandKey(in.Srcs[s]); key >= 0 {
						set(key)
					}
				}
			}
		}
		for e := g.adjOff[m]; e < g.adjOff[m+1]; e++ {
			if d := g.comp[g.adj[e]]; d != c {
				for x, bits := range g.rows[int(d)*w : int(d+1)*w] {
					row[x] |= bits
				}
				facts |= g.facts[d]
			}
		}
	}
	g.facts[c] = facts
}

// result reads every global load's class and roots off its address value.
func (g *graph) result() *Result {
	n := len(g.k.Insts)
	res := &Result{Kernel: g.k, Loads: make([]LoadInfo, len(g.loadInst)), at: make([]int32, n)}
	for i := range res.at {
		res.at[i] = -1
	}
	w := g.words
	reached := func(a int32) bool { return a >= 0 && g.facts[g.comp[a]]&factReached != 0 }
	row := func(a int32) []uint64 {
		c := int(g.comp[a])
		return g.rows[c*w : (c+1)*w]
	}
	total := 0
	for _, a := range g.addrVal {
		if !reached(a) {
			total++
			continue
		}
		for _, word := range row(a) {
			total += bits.OnesCount64(word)
		}
	}
	roots := make([]Root, 0, total)
	for l, i := range g.loadInst {
		a := g.addrVal[l]
		li := LoadInfo{InstIndex: int(i), PC: g.k.Insts[i].PC, Class: Deterministic}
		start := len(roots)
		switch {
		case a == -2: // absolute address: a pure immediate
			roots = append(roots, Root{Kind: RootImmediate})
		case !reached(a):
			roots = append(roots, Root{Kind: RootUndefined})
		default:
			if g.facts[g.comp[a]]&factTainted != 0 {
				li.Class = NonDeterministic
			}
			for x, word := range row(a) {
				for ; word != 0; word &= word - 1 {
					roots = append(roots, g.pairs[x*64+bits.TrailingZeros64(word)])
				}
			}
		}
		li.Roots = roots[start:len(roots):len(roots)]
		res.Loads[l] = li
		res.at[i] = int32(l)
	}
	return res
}
