package workloads

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"critload/internal/emu"
	"critload/internal/mem"
	"critload/internal/ptx"
)

// f32bits converts a float32 to its register representation.
func f32bits(f float32) uint32 { return math.Float32bits(f) }

// grid1D returns the CTA count covering n threads with the given block size.
func grid1D(n, block int) int { return (n + block - 1) / block }

// checkF32 compares a device float array against a reference within an
// absolute-or-relative tolerance.
func checkF32(m *mem.Memory, base uint32, want []float32, tol float64, what string) error {
	for i, w := range want {
		got := m.ReadF32(base + uint32(4*i))
		diff := math.Abs(float64(got) - float64(w))
		if diff > tol && diff > tol*math.Abs(float64(w)) {
			return fmt.Errorf("%s[%d] = %v, want %v (diff %v)", what, i, got, w, diff)
		}
	}
	return nil
}

// checkU32 compares a device word array against a reference exactly.
func checkU32(m *mem.Memory, base uint32, want []uint32, what string) error {
	for i, w := range want {
		if got := m.Read32(base + uint32(4*i)); got != w {
			return fmt.Errorf("%s[%d] = %d, want %d", what, i, got, w)
		}
	}
	return nil
}

// randF32s returns n floats in [lo, hi).
func randF32s(rng *rand.Rand, n int, lo, hi float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = lo + rng.Float32()*(hi-lo)
	}
	return out
}

// launch1D builds a 1-D launch.
func launch1D(k *ptx.Kernel, threads, block int, params ...uint32) *emu.Launch {
	return &emu.Launch{
		Kernel: k,
		Grid:   emu.Dim1(grid1D(threads, block)),
		Block:  emu.Dim1(block),
		Params: params,
	}
}

// launch2D builds a 2-D launch with blockX×blockY threads per CTA covering
// an nx×ny domain.
func launch2D(k *ptx.Kernel, nx, ny, blockX, blockY int, params ...uint32) *emu.Launch {
	return &emu.Launch{
		Kernel: k,
		Grid:   emu.Dim2(grid1D(nx, blockX), grid1D(ny, blockY)),
		Block:  emu.Dim2(blockX, blockY),
		Params: params,
	}
}

// csr is a CPU-side compressed sparse row graph/matrix.
type csr struct {
	n      int
	rowPtr []uint32 // n+1
	cols   []uint32
	wts    []uint32 // optional edge weights
}

// nnz returns the stored entry count.
func (g *csr) nnz() int { return len(g.cols) }

// randomGraph builds an undirected random graph with n vertices and roughly
// degree*n/2 undirected edges, stored as a symmetric CSR. A power-law-ish
// skew concentrates edges on low-numbered vertices, like the paper's R-MAT
// inputs. The first draw of an unordered pair wins and takes the next weight;
// each row lists its neighbours in ascending order.
func randomGraph(rng *rand.Rand, n, degree int) *csr {
	type edge struct{ u, v uint32 }
	drawn := make([]edge, 0, n*degree/2)
	for e := n * degree / 2; e > 0; e-- {
		// Mildly skewed endpoint selection (exponent 1.5): a heavy-ish tail
		// like the paper's R-MAT inputs without creating mega-hubs that
		// would let the edge loops dominate the dynamic instruction mix.
		u := int(float64(n) * math.Pow(rng.Float64(), 1.5))
		v := rng.Intn(n)
		if u >= n {
			u = n - 1
		}
		if u != v {
			drawn = append(drawn, edge{uint32(u), uint32(v)})
		}
	}
	// Keep each unordered pair's first draw: bucket the draws by their lower
	// endpoint, in draw order, and within a bucket drop a higher endpoint
	// already seen there.
	byLow := make([]uint32, n+1)
	for _, d := range drawn {
		byLow[min(d.u, d.v)+1]++
	}
	for u := 0; u < n; u++ {
		byLow[u+1] += byLow[u]
	}
	order := make([]uint32, len(drawn))
	for j, d := range drawn {
		lo := min(d.u, d.v)
		order[byLow[lo]] = uint32(j)
		byLow[lo]++
	}
	first := make([]bool, len(drawn))
	seenIn := make([]int32, n) // the bucket that last saw each higher endpoint, plus one
	for _, j := range order {
		d := drawn[j]
		lo, hi := min(d.u, d.v), max(d.u, d.v)
		if seenIn[hi] != int32(lo)+1 {
			seenIn[hi], first[j] = int32(lo)+1, true
		}
	}
	// edges[i] is the i-th distinct pair drawn; unique weights (i+1) keep
	// MST selection deterministic.
	edges := drawn[:0]
	g := &csr{n: n, rowPtr: make([]uint32, n+1)}
	for j, d := range drawn {
		if first[j] {
			edges = append(edges, d)
			g.rowPtr[d.u+1]++
			g.rowPtr[d.v+1]++
		}
	}
	for u := 0; u < n; u++ {
		g.rowPtr[u+1] += g.rowPtr[u]
	}

	// Two counting-sort passes over the arcs. The first buckets them by tail
	// in draw order; the graph is symmetric, so bucket d holds exactly d's
	// neighbours. The second walks the buckets in ascending d and appends d
	// to each neighbour's row, so every row comes out sorted.
	nnz := g.rowPtr[n]
	heads, hw := make([]uint32, nnz), make([]uint32, nnz)
	next := append([]uint32(nil), g.rowPtr[:n]...)
	for i, e := range edges {
		w := uint32(i + 1)
		heads[next[e.u]], hw[next[e.u]] = e.v, w
		next[e.u]++
		heads[next[e.v]], hw[next[e.v]] = e.u, w
		next[e.v]++
	}
	g.cols, g.wts = make([]uint32, nnz), make([]uint32, nnz)
	copy(next, g.rowPtr[:n])
	for d := 0; d < n; d++ {
		for i := g.rowPtr[d]; i < g.rowPtr[d+1]; i++ {
			s := heads[i]
			g.cols[next[s]], g.wts[next[s]] = uint32(d), hw[i]
			next[s]++
		}
	}
	return g
}

// components labels connected components on the CPU (min vertex id per
// component) for ccl/mst verification.
func (g *csr) components() []uint32 {
	label := make([]uint32, g.n)
	for i := range label {
		label[i] = uint32(i)
	}
	// BFS from each unvisited vertex, assigning the component's minimum id.
	seen := make([]bool, g.n)
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		queue := []uint32{uint32(s)}
		seen[s] = true
		compMin := uint32(s)
		var members []uint32
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			members = append(members, u)
			if u < compMin {
				compMin = u
			}
			for e := g.rowPtr[u]; e < g.rowPtr[u+1]; e++ {
				v := g.cols[e]
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		for _, u := range members {
			label[u] = compMin
		}
	}
	return label
}

// bfsDistances computes hop counts from src on the CPU (math.MaxUint32 =
// unreachable).
func (g *csr) bfsDistances(src int) []uint32 {
	const inf = math.MaxUint32
	dist := make([]uint32, g.n)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	queue := []uint32{uint32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for e := g.rowPtr[u]; e < g.rowPtr[u+1]; e++ {
			v := g.cols[e]
			if dist[v] == inf {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// shortestPaths computes weighted single-source distances (Dijkstra over a
// binary heap) on the CPU for sssp verification.
func (g *csr) shortestPaths(src int) []uint32 {
	dist := make([]uint32, g.n)
	for i := range dist {
		dist[i] = math.MaxUint32
	}
	dist[src] = 0
	h := &distHeap{{0, uint32(src)}}
	for h.Len() > 0 {
		top := heap.Pop(h).(distEntry)
		if top.d > dist[top.v] {
			continue // superseded by a shorter path
		}
		for e := g.rowPtr[top.v]; e < g.rowPtr[top.v+1]; e++ {
			v := g.cols[e]
			if nd := top.d + g.wts[e]; nd < dist[v] {
				dist[v] = nd
				heap.Push(h, distEntry{nd, v})
			}
		}
	}
	return dist
}

// distHeap is a min-heap of tentative distances.
type distEntry struct{ d, v uint32 }
type distHeap []distEntry

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() any {
	x := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return x
}

// mstWeight computes the minimum-spanning-forest weight (Kruskal) on the CPU.
func (g *csr) mstWeight() uint64 {
	type edge struct {
		u, v uint32
		w    uint32
	}
	var edges []edge
	for u := 0; u < g.n; u++ {
		for e := g.rowPtr[u]; e < g.rowPtr[u+1]; e++ {
			v := g.cols[e]
			if uint32(u) < v {
				edges = append(edges, edge{uint32(u), v, g.wts[e]})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].w < edges[j].w })
	parent := make([]uint32, g.n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var total uint64
	for _, e := range edges {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			parent[ru] = rv
			total += uint64(e.w)
		}
	}
	return total
}
