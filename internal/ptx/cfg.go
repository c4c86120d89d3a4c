package ptx

import (
	"fmt"

	"critload/internal/isa"
)

// BasicBlock is a maximal straight-line instruction sequence [Start, End).
type BasicBlock struct {
	ID    int
	Start int // first instruction index
	End   int // one past the last instruction index
	Succ  []int
	Pred  []int
}

// CFG is the control-flow graph of a kernel, augmented with a virtual exit
// block so postdominators are well defined even with multiple exits.
type CFG struct {
	Kernel *Kernel
	Blocks []*BasicBlock
	// ExitID is the virtual exit block (empty, Start == End == len(insts)).
	ExitID int
	// blockOf maps each instruction index to its block id.
	blockOf []int
	// ipdom[b] is the immediate postdominator block of block b (ExitID's
	// ipdom is itself).
	ipdom []int
}

// BuildCFG constructs the control-flow graph for k.
func BuildCFG(k *Kernel) *CFG {
	n := len(k.Insts)
	leader := make([]bool, n+1)
	if n > 0 {
		leader[0] = true
	}
	for i, in := range k.Insts {
		switch in.Op {
		case isa.OpBra:
			leader[in.Targ] = true
			if i+1 <= n {
				leader[i+1] = true
			}
		case isa.OpExit, isa.OpRet:
			if i+1 <= n {
				leader[i+1] = true
			}
		case isa.OpBar:
			// Barriers end a block so warps can be re-synchronized cleanly;
			// not required for correctness but keeps blocks small around
			// synchronization points.
			if i+1 <= n {
				leader[i+1] = true
			}
		}
	}

	// Every block's record, edge lists and the index live in a few shared
	// arrays rather than one allocation per block.
	nb := 1 // the virtual exit
	for i := 1; i <= n; i++ {
		if i == n || leader[i] {
			nb++
		}
	}
	blocks := make([]BasicBlock, 0, nb)
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || leader[i] {
			blocks = append(blocks, BasicBlock{ID: len(blocks), Start: start, End: i})
			start = i
		}
	}
	// Virtual exit block.
	blocks = append(blocks, BasicBlock{ID: len(blocks), Start: n, End: n})
	g := &CFG{Kernel: k, Blocks: make([]*BasicBlock, nb), ExitID: nb - 1, blockOf: make([]int, n+1)}
	for i := range blocks {
		b := &blocks[i]
		g.Blocks[i] = b
		for j := b.Start; j < b.End; j++ {
			g.blockOf[j] = b.ID
		}
	}
	g.blockOf[n] = g.ExitID

	// Successors first (at most two per block), then the predecessor lists
	// carved to size, each in the order its edges were added.
	succ := make([]int, 0, 2*nb)
	for _, b := range g.Blocks {
		if b.ID == g.ExitID {
			continue
		}
		from := len(succ)
		last := k.Insts[b.End-1]
		switch last.Op {
		case isa.OpBra:
			succ = append(succ, g.blockOf[last.Targ])
			if last.Guard.Active() { // conditional branch falls through too
				succ = append(succ, g.blockOf[b.End])
			}
		case isa.OpExit, isa.OpRet:
			succ = append(succ, g.ExitID)
		default:
			succ = append(succ, g.blockOf[b.End])
		}
		b.Succ = succ[from:len(succ):len(succ)]
	}
	next := make([]int, nb+1)
	for _, to := range succ {
		next[to+1]++
	}
	for i := 0; i < nb; i++ {
		next[i+1] += next[i]
	}
	pred := make([]int, len(succ))
	for _, b := range g.Blocks {
		for _, to := range b.Succ {
			pred[next[to]] = b.ID
			next[to]++
		}
	}
	// next[x] has advanced to the end of x's list, the start of x+1's.
	for _, b := range g.Blocks {
		from := 0
		if b.ID > 0 {
			from = next[b.ID-1]
		}
		if to := next[b.ID]; from < to {
			b.Pred = pred[from:to:to]
		}
	}
	g.computePostdominators()
	return g
}

// BlockOf returns the block id containing instruction index i.
func (g *CFG) BlockOf(i int) int { return g.blockOf[i] }

// IPdom returns the immediate postdominator block id of block b.
func (g *CFG) IPdom(b int) int { return g.ipdom[b] }

// ReconvergeIdx returns the instruction index where control reconverges after
// a (possibly divergent) branch at instruction index i: the start of the
// immediate postdominator block of i's block. len(insts) denotes kernel exit.
func (g *CFG) ReconvergeIdx(i int) int {
	b := g.blockOf[i]
	ip := g.ipdom[b]
	return g.Blocks[ip].Start
}

// computePostdominators runs the standard Cooper–Harvey–Kennedy algorithm on
// the reverse CFG rooted at the virtual exit block.
func (g *CFG) computePostdominators() {
	n := len(g.Blocks)
	// Reverse postorder of the *reverse* graph starting from exit.
	order := make([]int, 0, n)
	seen := make([]bool, n)
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, p := range g.Blocks[b].Pred {
			if !seen[p] {
				dfs(p)
			}
		}
		order = append(order, b) // postorder of reverse graph
	}
	dfs(g.ExitID)
	// rpo index per block (higher = closer to exit in our ordering).
	rpoNum := make([]int, n)
	for i, b := range order {
		rpoNum[b] = i
	}

	ipdom := make([]int, n)
	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[g.ExitID] = g.ExitID

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] < rpoNum[b] {
				a = ipdom[a]
			}
			for rpoNum[b] < rpoNum[a] {
				b = ipdom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		// Process in reverse postorder of the reverse graph (exit first).
		for i := len(order) - 1; i >= 0; i-- {
			b := order[i]
			if b == g.ExitID {
				continue
			}
			newIdom := -1
			for _, s := range g.Blocks[b].Succ {
				if ipdom[s] == -1 && s != g.ExitID {
					continue
				}
				if !seen[s] {
					continue
				}
				if newIdom == -1 {
					newIdom = s
				} else {
					newIdom = intersect(newIdom, s)
				}
			}
			if newIdom == -1 {
				continue
			}
			if ipdom[b] != newIdom {
				ipdom[b] = newIdom
				changed = true
			}
		}
	}
	// Unreachable-from-exit blocks (infinite loops) reconverge at exit.
	for i := range ipdom {
		if ipdom[i] == -1 {
			ipdom[i] = g.ExitID
		}
	}
	g.ipdom = ipdom
}

// PostDominates reports whether block a postdominates block b (every path
// from b to exit passes through a).
func (g *CFG) PostDominates(a, b int) bool {
	for x := b; ; x = g.ipdom[x] {
		if x == a {
			return true
		}
		if x == g.ExitID {
			return a == g.ExitID
		}
	}
}

// String renders the CFG for debugging.
func (g *CFG) String() string {
	s := ""
	for _, b := range g.Blocks {
		s += fmt.Sprintf("B%d [%d,%d) succ=%v ipdom=B%d\n", b.ID, b.Start, b.End, b.Succ, g.ipdom[b.ID])
	}
	return s
}
