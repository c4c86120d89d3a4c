package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"critload/internal/mem"
	"critload/internal/ptx"
)

// flagSet reads a device word used as a host-visible flag.
func flagSet(m *mem.Memory, addr uint32) bool { return m.Read32(addr) != 0 }

// ---------------------------------------------------------------------------
// bfs — breadth-first search (Rodinia bfs, the paper's Code 1): frontier
// mask loads are deterministic; the edge-indexed visited/cost accesses are
// non-deterministic.
// ---------------------------------------------------------------------------

const bfsSrc = `
.kernel bfs_k1
.param .u32 nodes
.param .u32 edges
.param .u32 mask
.param .u32 updating
.param .u32 visited
.param .u32 cost
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // tid
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [mask];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];             // g_graph_mask[tid] (deterministic)
    setp.eq.u32  %p1, %r7, 0;
@%p1 bra EXIT;
    st.global.u32 [%r6], 0;
    ld.param.u32 %r8, [nodes];
    shl.u32      %r9, %r2, 3;             // 2 words per node
    add.u32      %r10, %r8, %r9;
    ld.global.u32 %r28, [%r10];           // i = nodes[tid].starting (det)
    ld.param.u32 %r14, [cost];
    add.u32      %r15, %r14, %r5;
    ld.param.u32 %r17, [edges];
    ld.param.u32 %r18, [visited];
    ld.param.u32 %r19, [updating];
LOOP:
    // The loop bound is re-loaded every iteration, exactly as nvcc emits
    // for Code 1's "i < nodes[tid].starting + nodes[tid].no_of_edges".
    ld.global.u32 %r11, [%r10];           // starting (deterministic)
    ld.global.u32 %r12, [%r10+4];         // no_of_edges (deterministic)
    add.u32      %r13, %r11, %r12;        // end
    setp.ge.u32  %p2, %r28, %r13;
@%p2 bra EXIT;
    shl.u32      %r20, %r28, 2;
    add.u32      %r21, %r17, %r20;
    ld.global.u32 %r22, [%r21];           // id = g_graph_edges[i] (non-det)
    shl.u32      %r23, %r22, 2;
    add.u32      %r24, %r18, %r23;
    ld.global.u32 %r25, [%r24];           // g_graph_visited[id] (non-det)
    setp.ne.u32  %p3, %r25, 0;
@%p3 bra SKIP;
    ld.global.u32 %r16, [%r15];           // cost[tid] (det, reloaded)
    add.u32      %r16, %r16, 1;
    add.u32      %r26, %r14, %r23;
    st.global.u32 [%r26], %r16;           // cost[id] = cost[tid] + 1
    add.u32      %r27, %r19, %r23;
    st.global.u32 [%r27], 1;              // updating[id] = 1
SKIP:
    add.u32      %r28, %r28, 1;
    bra LOOP;
EXIT:
    exit;

.kernel bfs_k2
.param .u32 mask
.param .u32 updating
.param .u32 visited
.param .u32 over
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [updating];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];
    setp.eq.u32  %p1, %r7, 0;
@%p1 bra EXIT;
    ld.param.u32 %r8, [mask];
    add.u32      %r9, %r8, %r5;
    st.global.u32 [%r9], 1;
    ld.param.u32 %r10, [visited];
    add.u32      %r11, %r10, %r5;
    st.global.u32 [%r11], 1;
    ld.param.u32 %r12, [over];
    st.global.u32 [%r12], 1;
    st.global.u32 [%r6], 0;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "bfs",
		Category:    Graph,
		Description: "breadth-first search with frontier masks (Rodinia bfs)",
		DataSet:     "65536-vertex skewed random graph, avg degree 8",
		Size:        sizeKnob("graph vertices", 1, 65536, 400000),
		src:         bfsSrc, salt: 11,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		k1 := prog.MustKernel("bfs_k1")
		k2 := prog.MustKernel("bfs_k2")

		g := randomGraph(rng, n, 8)
		nodes := make([]uint32, 2*n)
		for v := 0; v < n; v++ {
			nodes[2*v] = g.rowPtr[v]
			nodes[2*v+1] = g.rowPtr[v+1] - g.rowPtr[v]
		}
		const inf = math.MaxUint32
		cost := make([]uint32, n)
		for i := range cost {
			cost[i] = inf
		}
		src := 0
		cost[src] = 0
		maskArr := make([]uint32, n)
		maskArr[src] = 1
		visited := make([]uint32, n)
		visited[src] = 1

		nodesB := m.AllocU32s(nodes)
		edgesB := m.AllocU32s(g.cols)
		maskB := m.AllocU32s(maskArr)
		updB := m.Alloc(uint32(4 * n))
		visB := m.AllocU32s(visited)
		costB := m.AllocU32s(cost)
		overB := m.Alloc(4)

		const block = 512
		inst := &Instance{
			CTAs:          grid1D(n, block),
			ThreadsPerCTA: block,
		}
		inst.Run = func(exec Executor) error {
			for iter := 0; ; iter++ {
				if iter > n {
					return fmt.Errorf("bfs: no convergence after %d iterations", iter)
				}
				m.Write32(overB, 0)
				if err := exec(launch1D(k1, n, block, nodesB, edgesB, maskB, updB, visB, costB, uint32(n))); err != nil {
					return err
				}
				if err := exec(launch1D(k2, n, block, maskB, updB, visB, overB, uint32(n))); err != nil {
					return err
				}
				if !flagSet(m, overB) {
					return nil
				}
			}
		}
		inst.Verify = func() error {
			want := g.bfsDistances(src)
			return checkU32(m, costB, want, "bfs cost")
		}
		return inst
	})
}

// ---------------------------------------------------------------------------
// sssp — single-source shortest path (Bellman-Ford with atomic relaxation,
// LonestarGPU-style): edge and weight loads plus the atomic distance
// relaxation are all non-deterministic.
// ---------------------------------------------------------------------------

const ssspSrc = `
.kernel sssp_k1
.param .u32 rowptr
.param .u32 cols
.param .u32 wts
.param .u32 dist
.param .u32 mask
.param .u32 updating
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [mask];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];             // mask[tid] (deterministic)
    setp.eq.u32  %p1, %r7, 0;
@%p1 bra EXIT;
    st.global.u32 [%r6], 0;
    ld.param.u32 %r8, [rowptr];
    add.u32      %r9, %r8, %r5;
    ld.global.u32 %r10, [%r9];            // start (deterministic)
    ld.param.u32 %r12, [dist];
    add.u32      %r13, %r12, %r5;
    ld.param.u32 %r15, [cols];
    ld.param.u32 %r16, [wts];
    ld.param.u32 %r17, [updating];
LOOP:
    ld.global.u32 %r11, [%r9+4];          // end (det, reloaded per iteration)
    setp.ge.u32  %p2, %r10, %r11;
@%p2 bra EXIT;
    shl.u32      %r18, %r10, 2;
    add.u32      %r19, %r15, %r18;
    ld.global.u32 %r20, [%r19];           // id = cols[j] (non-det)
    add.u32      %r21, %r16, %r18;
    ld.global.u32 %r22, [%r21];           // w = wts[j] (non-det)
    ld.global.u32 %r14, [%r13];           // d = dist[tid] (det, reloaded)
    add.u32      %r23, %r14, %r22;        // nd = d + w
    shl.u32      %r24, %r20, 2;
    add.u32      %r25, %r12, %r24;
    atom.global.min.u32 %r26, [%r25], %r23; // old = atomicMin(dist[id], nd)
    setp.le.u32  %p3, %r26, %r23;
@%p3 bra SKIP;
    add.u32      %r27, %r17, %r24;
    st.global.u32 [%r27], 1;              // updating[id] = 1
SKIP:
    add.u32      %r10, %r10, 1;
    bra LOOP;
EXIT:
    exit;

.kernel sssp_k2
.param .u32 mask
.param .u32 updating
.param .u32 over
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [updating];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];
    setp.eq.u32  %p1, %r7, 0;
@%p1 bra EXIT;
    st.global.u32 [%r6], 0;
    ld.param.u32 %r8, [mask];
    add.u32      %r9, %r8, %r5;
    st.global.u32 [%r9], 1;
    ld.param.u32 %r10, [over];
    st.global.u32 [%r10], 1;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "sssp",
		Category:    Graph,
		Description: "single-source shortest path, Bellman-Ford with atomic relaxation",
		DataSet:     "32768-vertex weighted random graph, avg degree 8",
		Size:        sizeKnob("graph vertices", 1, 32768, 360000),
		src:         ssspSrc, salt: 12,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		k1 := prog.MustKernel("sssp_k1")
		k2 := prog.MustKernel("sssp_k2")

		g := randomGraph(rng, n, 8)
		const inf = uint32(0x3FFFFFFF)
		dist := make([]uint32, n)
		for i := range dist {
			dist[i] = inf
		}
		src := 0
		dist[src] = 0
		maskArr := make([]uint32, n)
		maskArr[src] = 1

		rowB := m.AllocU32s(g.rowPtr)
		colsB := m.AllocU32s(g.cols)
		wtsB := m.AllocU32s(g.wts)
		distB := m.AllocU32s(dist)
		maskB := m.AllocU32s(maskArr)
		updB := m.Alloc(uint32(4 * n))
		overB := m.Alloc(4)

		const block = 512
		inst := &Instance{
			CTAs:          grid1D(n, block),
			ThreadsPerCTA: block,
		}
		inst.Run = func(exec Executor) error {
			for iter := 0; ; iter++ {
				if iter > n {
					return fmt.Errorf("sssp: no convergence after %d iterations", iter)
				}
				m.Write32(overB, 0)
				if err := exec(launch1D(k1, n, block, rowB, colsB, wtsB, distB, maskB, updB, uint32(n))); err != nil {
					return err
				}
				if err := exec(launch1D(k2, n, block, maskB, updB, overB, uint32(n))); err != nil {
					return err
				}
				if !flagSet(m, overB) {
					return nil
				}
			}
		}
		inst.Verify = func() error {
			cpu := g.shortestPaths(src)
			want := make([]uint32, n)
			for i, d := range cpu {
				if d == math.MaxUint32 {
					want[i] = inf
				} else {
					want[i] = d
				}
			}
			return checkU32(m, distB, want, "sssp dist")
		}
		return inst
	})
}

// ---------------------------------------------------------------------------
// ccl — connected component labeling by min-label propagation with pointer
// jumping: label[label[v]] is the classic non-deterministic access.
// ---------------------------------------------------------------------------

const cclSrc = `
.kernel ccl_prop
.param .u32 rowptr
.param .u32 cols
.param .u32 label
.param .u32 changed
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [label];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];             // l = label[v] (deterministic)
    mov.u32      %r8, %r7;                // m = l
    // Pointer jump: label[label[v]] (non-deterministic).
    shl.u32      %r9, %r7, 2;
    add.u32      %r10, %r4, %r9;
    ld.global.u32 %r11, [%r10];
    min.u32      %r8, %r8, %r11;
    // Neighbour scan.
    ld.param.u32 %r12, [rowptr];
    add.u32      %r13, %r12, %r5;
    ld.global.u32 %r14, [%r13];           // start (deterministic)
    ld.param.u32 %r16, [cols];
LOOP:
    ld.global.u32 %r15, [%r13+4];         // end (det, reloaded per iteration)
    setp.ge.u32  %p1, %r14, %r15;
@%p1 bra DECIDE;
    shl.u32      %r17, %r14, 2;
    add.u32      %r18, %r16, %r17;
    ld.global.u32 %r19, [%r18];           // u = cols[j] (non-det)
    shl.u32      %r20, %r19, 2;
    add.u32      %r21, %r4, %r20;
    ld.global.u32 %r22, [%r21];           // label[u] (non-det)
    min.u32      %r8, %r8, %r22;
    add.u32      %r14, %r14, 1;
    bra LOOP;
DECIDE:
    setp.ge.u32  %p2, %r8, %r7;
@%p2 bra EXIT;
    st.global.u32 [%r6], %r8;             // label[v] = m
    ld.param.u32 %r23, [changed];
    st.global.u32 [%r23], 1;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "ccl",
		Category:    Graph,
		Description: "connected component labeling by min-label propagation with pointer jumping",
		DataSet:     "32768-vertex random graph, avg degree 6",
		Size:        sizeKnob("graph vertices", 1, 32768, 1340000),
		src:         cclSrc, salt: 13,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		k := prog.MustKernel("ccl_prop")

		// A sparse graph with isolated pockets: several components.
		g := randomGraph(rng, n, 2)
		label := make([]uint32, n)
		for i := range label {
			label[i] = uint32(i)
		}
		rowB := m.AllocU32s(g.rowPtr)
		colsB := m.AllocU32s(g.cols)
		labelB := m.AllocU32s(label)
		chB := m.Alloc(4)

		const block = 256
		inst := &Instance{
			CTAs:          grid1D(n, block),
			ThreadsPerCTA: block,
		}
		inst.Run = func(exec Executor) error {
			for iter := 0; ; iter++ {
				if iter > n {
					return fmt.Errorf("ccl: no convergence after %d iterations", iter)
				}
				m.Write32(chB, 0)
				if err := exec(launch1D(k, n, block, rowB, colsB, labelB, chB, uint32(n))); err != nil {
					return err
				}
				if !flagSet(m, chB) {
					return nil
				}
			}
		}
		inst.Verify = func() error {
			want := g.components()
			return checkU32(m, labelB, want, "ccl label")
		}
		return inst
	})
}

// ---------------------------------------------------------------------------
// mis — maximal independent set (Luby's algorithm with static priorities):
// priority and state loads through edge lists are non-deterministic.
// ---------------------------------------------------------------------------

const misSrc = `
.kernel mis_select
.param .u32 rowptr
.param .u32 cols
.param .u32 prio
.param .u32 state
.param .u32 cand
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [state];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];             // state[v] (deterministic)
    setp.ne.u32  %p1, %r7, 0;
@%p1 bra EXIT;                            // already decided
    ld.param.u32 %r8, [prio];
    add.u32      %r9, %r8, %r5;
    ld.param.u32 %r11, [rowptr];
    add.u32      %r12, %r11, %r5;
    ld.global.u32 %r13, [%r12];           // start (deterministic)
    ld.param.u32 %r15, [cols];
    mov.u32      %r16, 1;                 // isMax
LOOP:
    ld.global.u32 %r14, [%r12+4];         // end (det, reloaded per iteration)
    setp.ge.u32  %p2, %r13, %r14;
@%p2 bra DECIDE;
    shl.u32      %r17, %r13, 2;
    add.u32      %r18, %r15, %r17;
    ld.global.u32 %r19, [%r18];           // u (non-det)
    shl.u32      %r20, %r19, 2;
    add.u32      %r21, %r4, %r20;
    ld.global.u32 %r22, [%r21];           // state[u] (non-det)
    setp.eq.u32  %p3, %r22, 2;
@%p3 bra NEXT;                            // OUT neighbours don't block
    setp.eq.u32  %p6, %r22, 1;
@%p6 mov.u32  %r16, 0;                    // an IN neighbour always blocks
@%p6 bra NEXT;
    ld.global.u32 %r10, [%r9];            // prio[v] (det, reloaded)
    add.u32      %r23, %r8, %r20;
    ld.global.u32 %r24, [%r23];           // prio[u] (non-det)
    setp.le.u32  %p4, %r24, %r10;
@%p4 bra NEXT;
    mov.u32      %r16, 0;                 // a higher-priority live neighbour
NEXT:
    add.u32      %r13, %r13, 1;
    bra LOOP;
DECIDE:
    setp.eq.u32  %p5, %r16, 0;
@%p5 bra EXIT;
    // Record the winner in a separate candidate array so every selection
    // decision this round sees the same state snapshot.
    ld.param.u32 %r25, [cand];
    add.u32      %r26, %r25, %r5;
    st.global.u32 [%r26], 1;
EXIT:
    exit;

.kernel mis_commit
.param .u32 cand
.param .u32 state
.param .u32 changed
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [cand];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];
    setp.eq.u32  %p1, %r7, 0;
@%p1 bra EXIT;
    st.global.u32 [%r6], 0;
    ld.param.u32 %r8, [state];
    add.u32      %r9, %r8, %r5;
    st.global.u32 [%r9], 1;               // state[v] = IN
    ld.param.u32 %r10, [changed];
    st.global.u32 [%r10], 1;
EXIT:
    exit;

.kernel mis_exclude
.param .u32 rowptr
.param .u32 cols
.param .u32 state
.param .u32 changed
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [state];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];
    setp.ne.u32  %p1, %r7, 0;
@%p1 bra EXIT;
    ld.param.u32 %r8, [rowptr];
    add.u32      %r9, %r8, %r5;
    ld.global.u32 %r10, [%r9];            // start (deterministic)
    ld.param.u32 %r12, [cols];
LOOP:
    ld.global.u32 %r11, [%r9+4];          // end (det, reloaded per iteration)
    setp.ge.u32  %p2, %r10, %r11;
@%p2 bra EXIT;
    shl.u32      %r13, %r10, 2;
    add.u32      %r14, %r12, %r13;
    ld.global.u32 %r15, [%r14];           // u (non-det)
    shl.u32      %r16, %r15, 2;
    add.u32      %r17, %r4, %r16;
    ld.global.u32 %r18, [%r17];           // state[u] (non-det)
    setp.ne.u32  %p3, %r18, 1;
@%p3 bra NEXT;
    st.global.u32 [%r6], 2;               // neighbour is IN: v is OUT
    ld.param.u32 %r19, [changed];
    st.global.u32 [%r19], 1;
    bra EXIT;
NEXT:
    add.u32      %r10, %r10, 1;
    bra LOOP;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "mis",
		Category:    Graph,
		Description: "maximal independent set, Luby-style priority selection",
		DataSet:     "32768-vertex random graph, avg degree 8",
		Size:        sizeKnob("graph vertices", 1, 32768, 440000),
		src:         misSrc, salt: 14,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		sel := prog.MustKernel("mis_select")
		commit := prog.MustKernel("mis_commit")
		excl := prog.MustKernel("mis_exclude")

		g := randomGraph(rng, n, 8)
		// Unique priorities: a random permutation.
		prio := make([]uint32, n)
		for i, p := range rng.Perm(n) {
			prio[i] = uint32(p)
		}
		rowB := m.AllocU32s(g.rowPtr)
		colsB := m.AllocU32s(g.cols)
		prioB := m.AllocU32s(prio)
		stateB := m.Alloc(uint32(4 * n))
		candB := m.Alloc(uint32(4 * n))
		chB := m.Alloc(4)

		const block = 512
		inst := &Instance{
			CTAs:          grid1D(n, block),
			ThreadsPerCTA: block,
		}
		inst.Run = func(exec Executor) error {
			for iter := 0; ; iter++ {
				if iter > n {
					return fmt.Errorf("mis: no convergence after %d iterations", iter)
				}
				m.Write32(chB, 0)
				if err := exec(launch1D(sel, n, block, rowB, colsB, prioB, stateB, candB, uint32(n))); err != nil {
					return err
				}
				if err := exec(launch1D(commit, n, block, candB, stateB, chB, uint32(n))); err != nil {
					return err
				}
				if err := exec(launch1D(excl, n, block, rowB, colsB, stateB, chB, uint32(n))); err != nil {
					return err
				}
				if !flagSet(m, chB) {
					return nil
				}
			}
		}
		inst.Verify = func() error {
			state := m.ReadU32s(stateB, n)
			for v := 0; v < n; v++ {
				switch state[v] {
				case 1:
					for e := g.rowPtr[v]; e < g.rowPtr[v+1]; e++ {
						if state[g.cols[e]] == 1 {
							return fmt.Errorf("mis: adjacent IN vertices %d and %d", v, g.cols[e])
						}
					}
				case 2:
					ok := false
					for e := g.rowPtr[v]; e < g.rowPtr[v+1]; e++ {
						if state[g.cols[e]] == 1 {
							ok = true
							break
						}
					}
					if !ok {
						return fmt.Errorf("mis: OUT vertex %d has no IN neighbour", v)
					}
				default:
					return fmt.Errorf("mis: vertex %d undecided (state %d)", v, state[v])
				}
			}
			return nil
		}
		return inst
	})
}

// ---------------------------------------------------------------------------
// mst — Borůvka minimum spanning forest: per-component minimum edge
// selection with atomics, hooking, 2-cycle breaking, and pointer jumping.
// ---------------------------------------------------------------------------

const mstSrc = `
.kernel mst_reset
.param .u32 minw
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [minw];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    st.global.u32 [%r6], 0xffffffff;
EXIT:
    exit;

.kernel mst_find
.param .u32 rowptr
.param .u32 cols
.param .u32 wts
.param .u32 comp
.param .u32 bestw
.param .u32 bestc
.param .u32 minw
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // v
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [comp];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];             // cv = comp[v] (deterministic)
    ld.param.u32 %r8, [rowptr];
    add.u32      %r9, %r8, %r5;
    ld.global.u32 %r10, [%r9];            // start (deterministic)
    ld.param.u32 %r12, [cols];
    ld.param.u32 %r13, [wts];
    mov.u32      %r14, 0xffffffff;        // best weight
    mov.u32      %r15, 0xffffffff;        // best target component
LOOP:
    ld.global.u32 %r11, [%r9+4];          // end (det, reloaded per iteration)
    setp.ge.u32  %p1, %r10, %r11;
@%p1 bra STORE;
    shl.u32      %r16, %r10, 2;
    add.u32      %r17, %r12, %r16;
    ld.global.u32 %r18, [%r17];           // u (non-det)
    shl.u32      %r19, %r18, 2;
    add.u32      %r20, %r4, %r19;
    ld.global.u32 %r21, [%r20];           // cu = comp[u] (non-det)
    setp.eq.u32  %p2, %r21, %r7;
@%p2 bra NEXT;                            // same component
    add.u32      %r22, %r13, %r16;
    ld.global.u32 %r23, [%r22];           // w = wts[j] (non-det)
    setp.ge.u32  %p3, %r23, %r14;
@%p3 bra NEXT;
    mov.u32      %r14, %r23;
    mov.u32      %r15, %r21;
NEXT:
    add.u32      %r10, %r10, 1;
    bra LOOP;
STORE:
    ld.param.u32 %r24, [bestw];
    add.u32      %r25, %r24, %r5;
    st.global.u32 [%r25], %r14;
    ld.param.u32 %r26, [bestc];
    add.u32      %r27, %r26, %r5;
    st.global.u32 [%r27], %r15;
    setp.eq.u32  %p4, %r14, 0xffffffff;
@%p4 bra EXIT;
    ld.param.u32 %r28, [minw];
    shl.u32      %r29, %r7, 2;
    add.u32      %r30, %r28, %r29;
    atom.global.min.u32 %r31, [%r30], %r14; // per-component minimum (non-det)
EXIT:
    exit;

.kernel mst_hook
.param .u32 comp
.param .u32 bestw
.param .u32 bestc
.param .u32 minw
.param .u32 selected
.param .u32 changed
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // v
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [bestw];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];             // bestw[v] (deterministic)
    setp.eq.u32  %p1, %r7, 0xffffffff;
@%p1 bra EXIT;
    ld.param.u32 %r8, [comp];
    add.u32      %r9, %r8, %r5;
    ld.global.u32 %r10, [%r9];            // cv
    ld.param.u32 %r11, [minw];
    shl.u32      %r12, %r10, 2;
    add.u32      %r13, %r11, %r12;
    ld.global.u32 %r14, [%r13];           // minw[cv] (non-det)
    setp.ne.u32  %p2, %r7, %r14;
@%p2 bra EXIT;                            // not the winning edge
    ld.param.u32 %r15, [bestc];
    add.u32      %r16, %r15, %r5;
    ld.global.u32 %r17, [%r16];           // target component
    add.u32      %r18, %r8, %r12;
    st.global.u32 [%r18], %r17;           // comp[cv] = bestc[v] (hook)
    ld.param.u32 %r19, [selected];
    shl.u32      %r20, %r7, 2;
    add.u32      %r21, %r19, %r20;
    st.global.u32 [%r21], 1;              // mark MST edge by unique weight
    ld.param.u32 %r22, [changed];
    st.global.u32 [%r22], 1;
EXIT:
    exit;

.kernel mst_break
.param .u32 comp
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // candidate root c
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [comp];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];             // p = comp[c] (deterministic)
    shl.u32      %r8, %r7, 2;
    add.u32      %r9, %r4, %r8;
    ld.global.u32 %r10, [%r9];            // comp[p] (non-det)
    setp.ne.u32  %p1, %r10, %r2;
@%p1 bra EXIT;                            // not a 2-cycle
    setp.ge.u32  %p2, %r2, %r7;
@%p2 bra EXIT;                            // only the smaller id becomes root
    st.global.u32 [%r6], %r2;             // comp[c] = c
EXIT:
    exit;

.kernel mst_jump
.param .u32 comp
.param .u32 changed
.param .u32 n
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // v
    ld.param.u32 %r3, [n];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [comp];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];             // c = comp[v] (deterministic)
    shl.u32      %r8, %r7, 2;
    add.u32      %r9, %r4, %r8;
    ld.global.u32 %r10, [%r9];            // cc = comp[c] (non-det)
    setp.eq.u32  %p1, %r10, %r7;
@%p1 bra EXIT;
    st.global.u32 [%r6], %r10;
    ld.param.u32 %r11, [changed];
    st.global.u32 [%r11], 1;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "mst",
		Category:    Graph,
		Description: "Borůvka minimum spanning forest with atomic component minima",
		DataSet:     "16384-vertex weighted random graph, avg degree 6, unique weights",
		Size:        sizeKnob("graph vertices", 1, 16384, 440000),
		src:         mstSrc, salt: 15,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		kReset := prog.MustKernel("mst_reset")
		kFind := prog.MustKernel("mst_find")
		kHook := prog.MustKernel("mst_hook")
		kBreak := prog.MustKernel("mst_break")
		kJump := prog.MustKernel("mst_jump")

		g := randomGraph(rng, n, 6)
		comp := make([]uint32, n)
		for i := range comp {
			comp[i] = uint32(i)
		}
		maxW := uint32(0)
		for _, w := range g.wts {
			if w > maxW {
				maxW = w
			}
		}
		rowB := m.AllocU32s(g.rowPtr)
		colsB := m.AllocU32s(g.cols)
		wtsB := m.AllocU32s(g.wts)
		compB := m.AllocU32s(comp)
		bestwB := m.Alloc(uint32(4 * n))
		bestcB := m.Alloc(uint32(4 * n))
		minwB := m.Alloc(uint32(4 * n))
		selB := m.Alloc(uint32(4 * (maxW + 1)))
		chB := m.Alloc(4)

		const block = 384
		inst := &Instance{
			CTAs:          grid1D(n, block),
			ThreadsPerCTA: block,
		}
		inst.Run = func(exec Executor) error {
			for round := 0; ; round++ {
				if round > 64 {
					return fmt.Errorf("mst: no convergence after %d rounds", round)
				}
				m.Write32(chB, 0)
				if err := exec(launch1D(kReset, n, block, minwB, uint32(n))); err != nil {
					return err
				}
				if err := exec(launch1D(kFind, n, block, rowB, colsB, wtsB, compB, bestwB, bestcB, minwB, uint32(n))); err != nil {
					return err
				}
				if err := exec(launch1D(kHook, n, block, compB, bestwB, bestcB, minwB, selB, chB, uint32(n))); err != nil {
					return err
				}
				if !flagSet(m, chB) {
					return nil
				}
				if err := exec(launch1D(kBreak, n, block, compB, uint32(n))); err != nil {
					return err
				}
				// Pointer-jump until the component forest is flat,
				// reusing the flag word for jump convergence.
				for {
					m.Write32(chB, 0)
					if err := exec(launch1D(kJump, n, block, compB, chB, uint32(n))); err != nil {
						return err
					}
					if !flagSet(m, chB) {
						break
					}
				}
			}
		}
		inst.Verify = func() error {
			// The selected edges must sum to the Kruskal forest weight
			// (unique weights make the MST unique).
			var total uint64
			for w := uint32(1); w <= maxW; w++ {
				if m.Read32(selB+4*w) != 0 {
					total += uint64(w)
				}
			}
			want := g.mstWeight()
			if total != want {
				return fmt.Errorf("mst: selected weight %d, want %d", total, want)
			}
			// And the component structure must match CPU connectivity.
			cpu := g.components()
			gpu := m.ReadU32s(compB, n)
			groups := map[uint32]uint32{}
			for v := 0; v < n; v++ {
				root := gpu[v]
				if seen, ok := groups[root]; ok {
					if seen != cpu[v] {
						return fmt.Errorf("mst: component mix-up at vertex %d", v)
					}
				} else {
					groups[root] = cpu[v]
				}
			}
			return nil
		}
		return inst
	})
}
