package critload_test

import (
	"fmt"
	"log"
	"sort"

	"critload"
	"critload/internal/gpu"
	"critload/internal/stats"
)

// gatherSrc reads idx[i] with a deterministic (thread-indexed) load and
// b[idx[i]] with a non-deterministic (data-dependent) one — the minimal
// example of the paper's two load classes.
const gatherSrc = `
.kernel gather
.param .u32 idx
.param .u32 b
.param .u32 out
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // i
    shl.u32      %r3, %r2, 2;
    ld.param.u32 %r4, [idx];
    add.u32      %r5, %r4, %r3;
    ld.global.u32 %r6, [%r5];             // idx[i]   — deterministic
    ld.param.u32 %r7, [b];
    shl.u32      %r8, %r6, 2;
    add.u32      %r9, %r7, %r8;
    ld.global.u32 %r10, [%r9];            // b[idx[i]] — non-deterministic
    ld.param.u32 %r11, [out];
    add.u32      %r12, %r11, %r3;
    st.global.u32 [%r12], %r10;
    exit;
`

// ExampleClassifyKernel labels the gather kernel's two global loads by the
// paper's backward dataflow analysis.
func ExampleClassifyKernel() {
	res, err := critload.ClassifyKernel(gatherSrc)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range res.Loads {
		fmt.Printf("PC 0x%03x: %s\n", l.PC, l.Class)
	}
	// Output:
	// PC 0x030: deterministic
	// PC 0x050: non-deterministic
}

// ExampleSimulate runs the gather kernel on the cycle-level simulator
// (Table II configuration). The values it computes are functionally exact,
// and the statistics show the paper's disparity: the scattered
// non-deterministic gather generates far more memory requests per warp, and
// waits far longer for them, than the unit-stride deterministic load.
func ExampleSimulate() {
	const n = 4096
	var outBase uint32
	memory, col, err := critload.Simulate(gatherSrc, n/256, 256, func(m *critload.Memory) []uint32 {
		idx := make([]uint32, n)
		b := make([]uint32, n)
		for i := range idx {
			idx[i] = uint32((i * 769) % n) // scattered gather pattern
			b[i] = uint32(3 * i)
		}
		idxBase := m.AllocU32s(idx)
		bBase := m.AllocU32s(b)
		outBase = m.Alloc(4 * n)
		return []uint32{idxBase, bBase, outBase}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("out[0..3] = %v\n", memory.ReadU32s(outBase, 4))
	fmt.Printf("requests per warp:  deterministic %.2f   non-deterministic %.2f\n",
		col.RequestsPerWarp(stats.Det), col.RequestsPerWarp(stats.NonDet))
	fmt.Printf("mean turnaround:    deterministic %.0f cyc  non-deterministic %.0f cyc\n",
		col.Turnaround[stats.Det].MeanTotal(), col.Turnaround[stats.NonDet].MeanTotal())
	// Output:
	// out[0..3] = [0 2307 4614 6921]
	// requests per warp:  deterministic 1.00   non-deterministic 16.00
	// mean turnaround:    deterministic 197 cyc  non-deterministic 962 cyc
}

// ExampleRunWorkload runs the two frontier-based graph workloads the paper
// leans on — bfs (its Code 1) and sssp — end to end: a functional run
// checked against the CPU reference, the dataflow classification of every
// kernel, and a timing run showing the deterministic / non-deterministic
// behaviour split (Figs 2 and 5 in miniature).
func ExampleRunWorkload() {
	for _, name := range []string{"bfs", "sssp"} {
		fmt.Printf("=== %s ===\n", name)
		fn, err := critload.RunWorkload(name, critload.RunOptions{
			Mode: critload.Functional, Size: 4096, Seed: 42, Verify: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		det, nondet := fn.Col.LoadFraction()
		fmt.Printf("functional: %d warp instructions, verified; load warps %.1f%% D, %.1f%% N\n",
			fn.Col.WarpInsts, 100*det, 100*nondet)

		classes, err := critload.ClassifyWorkload(name)
		if err != nil {
			log.Fatal(err)
		}
		kernels := make([]string, 0, len(classes))
		for k := range classes {
			kernels = append(kernels, k)
		}
		sort.Strings(kernels)
		for _, k := range kernels {
			d, n := classes[k].Counts()
			fmt.Printf("kernel %s: %d deterministic, %d non-deterministic load PCs\n", k, d, n)
		}

		tm, err := critload.RunWorkload(name, critload.RunOptions{
			Mode: critload.Timing, Size: 4096, Seed: 42,
		})
		if err != nil {
			log.Fatal(err)
		}
		c := tm.Col
		fmt.Printf("timing: %d cycles; requests/warp D %.2f N %.2f; mean turnaround D %.0f N %.0f cycles\n",
			tm.Cycles, c.RequestsPerWarp(stats.Det), c.RequestsPerWarp(stats.NonDet),
			c.Turnaround[stats.Det].MeanTotal(), c.Turnaround[stats.NonDet].MeanTotal())
		counters := critload.ReadProfiler(tm)
		fmt.Printf("profiler: gld_request=%d l1_global_load_miss=%d\n",
			counters["gld_request"], counters["l1_global_load_miss"])
	}
	// Output:
	// === bfs ===
	// functional: 128253 warp instructions, verified; load warps 61.6% D, 38.4% N
	// kernel bfs_k1: 5 deterministic, 2 non-deterministic load PCs
	// kernel bfs_k2: 1 deterministic, 0 non-deterministic load PCs
	// timing: 86555 cycles; requests/warp D 1.46 N 4.96; mean turnaround D 169 N 260 cycles
	// profiler: gld_request=26856 l1_global_load_miss=48245
	// === sssp ===
	// functional: 303310 warp instructions, verified; load warps 55.3% D, 44.7% N
	// kernel sssp_k1: 4 deterministic, 2 non-deterministic load PCs
	// kernel sssp_k2: 1 deterministic, 0 non-deterministic load PCs
	// timing: 257992 cycles; requests/warp D 1.09 N 3.93; mean turnaround D 195 N 315 cycles
	// profiler: gld_request=57686 l1_global_load_miss=103259
}

// ExampleNewSuite walks through the paper's central claim — the
// non-deterministic loads are the critical loads — on bfs: the turnaround
// decomposition (Fig 5), turnaround against the number of requests a warp
// generates for the busiest load PCs (Fig 6), and the growth broken into
// the paper's gap components (Fig 7).
func ExampleNewSuite() {
	suite := critload.NewSuite(critload.ExperimentOptions{
		Workloads: []string{"bfs"}, Size: 4096, Seed: 21,
	})

	fig5, err := suite.Figure5()
	if err != nil {
		log.Fatal(err)
	}
	r := fig5[0]
	fmt.Println("Fig 5 (mean cycles per load warp): unloaded | prev-warp rsrv fails | own rsrv fails | L2/DRAM | total")
	for _, cat := range []stats.Category{stats.Det, stats.NonDet} {
		fmt.Printf("  %s: %4.0f | %4.0f | %4.0f | %4.0f | %4.0f\n", cat,
			r.Unloaded[cat], r.RsrvPrev[cat], r.RsrvCurr[cat], r.MemSys[cat], r.Total[cat])
	}

	fig6, err := suite.Figure6()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Fig 6 (requests -> mean turnaround, buckets of >= 4 warps):")
	for _, s := range fig6 {
		cls := "D"
		if s.NonDet {
			cls = "N"
		}
		fmt.Printf("  PC 0x%03x (%s):", s.PC, cls)
		for _, p := range s.Points {
			if p.Ops >= 4 {
				fmt.Printf(" %d->%.0f", p.NReq, p.MeanTurnaround)
			}
		}
		fmt.Println()
	}

	fig7, err := suite.Figure7()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig 7 (gap breakdown of PC 0x%03x): requests | common | gap@L1D | gap@icnt-L2 | gap@L2-icnt\n", fig7.PC)
	for _, b := range fig7.Buckets {
		if b.Ops >= 4 {
			fmt.Printf("  %2d | %4.0f | %4.0f | %4.0f | %4.0f\n",
				b.NReq, b.Common, b.GapL1D, b.GapIcntL2, b.GapL2Icnt)
		}
	}
	// Output:
	// Fig 5 (mean cycles per load warp): unloaded | prev-warp rsrv fails | own rsrv fails | L2/DRAM | total
	//   D:   97 |   13 |    1 |   53 |  163
	//   N:  117 |   19 |   10 |  107 |  253
	// Fig 6 (requests -> mean turnaround, buckets of >= 4 warps):
	//   PC 0x0e8 (N): 1->45 2->112 3->175 4->266 5->346 6->459 7->477 8->481 9->524 10->504 11->482 12->456 13->434 14->440
	//   PC 0x0b0 (D): 1->40 2->236
	// Fig 7 (gap breakdown of PC 0x0e8): requests | common | gap@L1D | gap@icnt-L2 | gap@L2-icnt
	//    1 |   39 |    4 |    1 |    0
	//    2 |   81 |    9 |    6 |   52
	//    3 |  119 |   13 |   11 |  112
	//    4 |  146 |   18 |   10 |  178
	//    5 |  153 |   25 |    7 |  224
	//    6 |  156 |   44 |    5 |  288
	//    7 |  160 |   51 |    8 |  307
	//    8 |  163 |   70 |   10 |  298
	//    9 |  168 |   89 |    9 |  308
	//   10 |  162 |   94 |    8 |  291
	//   11 |  163 |  104 |    8 |  256
	//   12 |  168 |   91 |    6 |  269
	//   13 |  158 |   89 |    7 |  220
	//   14 |  171 |   71 |    8 |  249
}

// ExampleCollector_Blocks reproduces the paper's hidden data locality
// (Sections IX and X.B) on a dense and a graph workload: the 128-byte
// blocks many CTAs share (Figs 10 and 11), the CTA distances that sharing
// spans (Fig 12), and the ablation of the clustered CTA scheduler the paper
// proposes to turn neighbouring CTAs' sharing into private-L1 hits. At
// these sizes it raises 2mm's L1 hit ratio and lowers bfs's.
func ExampleCollector_Blocks() {
	for _, w := range []struct {
		name string
		size int
	}{{"2mm", 64}, {"bfs", 4096}} {
		run, err := critload.RunWorkload(w.name, critload.RunOptions{
			Mode: critload.Functional, Size: w.size, Seed: 11,
		})
		if err != nil {
			log.Fatal(err)
		}
		b := run.Col.Blocks()
		fmt.Printf("%s: %d blocks, cold miss %.1f%%, %.1f accesses/block, %.1f%% of blocks (%.1f%% of accesses) shared by %.1f CTAs on average\n",
			w.name, b.DistinctBlocks, 100*b.ColdMissRatio, b.MeanAccessPerBlock,
			100*b.SharedBlockRatio, 100*b.SharedAccessRatio, b.MeanCTAsPerShared)
		bins := run.Col.CTADistanceHistogram()
		sort.SliceStable(bins, func(i, j int) bool { return bins[i].Count > bins[j].Count })
		fmt.Print("  most frequent CTA distances:")
		for _, bin := range bins[:min(3, len(bins))] {
			fmt.Printf(" %d (%.1f%%)", bin.Distance, 100*bin.Fraction)
		}
		fmt.Println()

		clustered := critload.DefaultGPUConfig()
		clustered.CTAPolicy = gpu.CTAClustered
		for _, cfg := range []struct {
			label string
			gpu   *critload.GPUConfig
		}{{"round-robin", nil}, {"clustered", &clustered}} {
			tm, err := critload.RunWorkload(w.name, critload.RunOptions{
				Mode: critload.Timing, Size: w.size, Seed: 11, MaxWarpInsts: 100_000, GPU: cfg.gpu,
			})
			if err != nil {
				log.Fatal(err)
			}
			acc := tm.Col.L1Acc[stats.Det] + tm.Col.L1Acc[stats.NonDet]
			miss := tm.Col.L1Miss[stats.Det] + tm.Col.L1Miss[stats.NonDet]
			fmt.Printf("  %s CTA scheduling: %d cycles, L1 hit %.1f%%\n",
				cfg.label, tm.Cycles, 100*(1-float64(miss)/float64(acc)))
		}
	}
	// Output:
	// 2mm: 512 blocks, cold miss 1.0%, 96.0 accesses/block, 100.0% of blocks (100.0% of accesses) shared by 6.0 CTAs on average
	//   most frequent CTA distances: 1 (70.0%) 3 (30.0%)
	//   round-robin CTA scheduling: 10116 cycles, L1 hit 66.9%
	//   clustered CTA scheduling: 12733 cycles, L1 hit 80.8%
	// bfs: 1791 blocks, cold miss 2.4%, 42.2 accesses/block, 7.5% of blocks (39.5% of accesses) shared by 7.7 CTAs on average
	//   most frequent CTA distances: 1 (82.9%) 7 (8.8%) 2 (3.5%)
	//   round-robin CTA scheduling: 79753 cycles, L1 hit 37.0%
	//   clustered CTA scheduling: 102453 cycles, L1 hit 26.9%
}
