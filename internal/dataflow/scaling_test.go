package dataflow

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"critload/internal/ptx"
)

// scalingKernel renders a synthetic kernel of about n instructions, four per
// global load, with a guarded forward branch every 32 instructions and the
// whole body inside one loop. In the chain shape every load's address is an
// accumulator advanced by each group, so one load's backward closure holds
// every earlier group; in the chain-free shape each group recomputes its
// address from %tid.x and a parameter, but reuses the same registers.
func scalingKernel(n int, chain bool) *ptx.Kernel {
	var b strings.Builder
	b.WriteString(".kernel scale\n.param .u32 a\n.param .u32 lim\n")
	b.WriteString("    ld.param.u32 %r0, [a];\n    mov.u32 %r1, %tid.x;\n    ld.param.u32 %r9, [lim];\n")
	b.WriteString("    setp.lt.u32 %p0, %r1, %r9;\nTOP:\n")
	for g := 0; g < n/4; g++ {
		if chain {
			b.WriteString("    add.u32 %r0, %r0, %r1;\n    ld.global.u32 %r2, [%r0];\n")
			b.WriteString("    add.u32 %r3, %r3, %r2;\n    add.u32 %r1, %r1, 4;\n")
		} else {
			b.WriteString("    mov.u32 %r1, %tid.x;\n    shl.u32 %r2, %r1, 2;\n")
			b.WriteString("    add.u32 %r3, %r0, %r2;\n    ld.global.u32 %r4, [%r3];\n")
		}
		if g%8 == 7 {
			fmt.Fprintf(&b, "@%%p0 bra L%d;\nL%d:\n", g, g)
		}
	}
	b.WriteString("    setp.lt.u32 %p1, %r3, %r9;\n@%p1 bra TOP;\n    exit;\n")
	return ptx.MustParse(b.String()).Kernels[0]
}

// classifyBytes returns the bytes one cold Classify of a freshly parsed
// kernel allocates (control-flow graph and scratch included), the result,
// and the number of distinct root pairs in the kernel.
func classifyBytes(k *ptx.Kernel) (uint64, *Result, int) {
	g := new(graph)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := g.classify(k)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, res, len(g.pairs)
}

// TestClassifyScalesLinearly pins the classifier's growth: from 4 k to 16 k
// instructions its allocation may grow at most 5× (linear is 4×; the
// per-load backward walk it replaced grew 11× on the chain-free shape and
// 16× on the chain shape from only 1 k to 4 k), and no load may list more
// roots than the kernel has distinct (kind, name) pairs.
func TestClassifyScalesLinearly(t *testing.T) {
	for _, chain := range []bool{true, false} {
		var bytes [2]uint64
		for i, n := range []int{4096, 16384} {
			k := scalingKernel(n, chain)
			var res *Result
			var pairs int
			bytes[i], res, pairs = classifyBytes(k)
			for _, l := range res.Loads {
				if len(l.Roots) > pairs {
					t.Fatalf("chain=%v n=%d: load at %d has %d roots, kernel has %d distinct pairs",
						chain, n, l.InstIndex, len(l.Roots), pairs)
				}
			}
			if len(res.Loads) < n/5 {
				t.Fatalf("chain=%v n=%d: only %d loads", chain, n, len(res.Loads))
			}
		}
		t.Logf("chain=%v: %d B at 4 k, %d B at 16 k (%.2f×)", chain, bytes[0], bytes[1],
			float64(bytes[1])/float64(bytes[0]))
		if bytes[1] > 5*bytes[0] {
			t.Errorf("chain=%v: Classify allocates %d B at 16 k instructions, more than 5× the %d B at 4 k",
				chain, bytes[1], bytes[0])
		}
	}
}

func BenchmarkClassifyScaling(b *testing.B) {
	for _, shape := range []struct {
		name  string
		chain bool
	}{{"chain", true}, {"chainfree", false}} {
		for _, n := range []int{1000, 4000, 16000, 40000} {
			k := scalingKernel(n, shape.chain)
			b.Run(fmt.Sprintf("%s/%dk", shape.name, n/1000), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Classify(k)
				}
			})
		}
	}
}
