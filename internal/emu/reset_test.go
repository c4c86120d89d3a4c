package emu

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"critload/internal/mem"
	"critload/internal/ptx"
)

// sameCTA returns the first difference between two CTAs' architectural
// state, or nil.
func sameCTA(a, b *CTA) error {
	if a.ID != b.ID || a.Coord != b.Coord {
		return fmt.Errorf("CTA %d at %v, want %d at %v", a.ID, a.Coord, b.ID, b.Coord)
	}
	if !bytes.Equal(a.Shared, b.Shared) {
		return fmt.Errorf("shared memory differs (%d and %d bytes)", len(a.Shared), len(b.Shared))
	}
	if len(a.Warps) != len(b.Warps) {
		return fmt.Errorf("%d warps, want %d", len(a.Warps), len(b.Warps))
	}
	for i, x := range a.Warps {
		y := b.Warps[i]
		switch {
		case x.CTA != a || y.CTA != b:
			return fmt.Errorf("warp %d belongs to another CTA", i)
		case x.kernel != y.kernel || len(x.decoded) != len(y.decoded):
			return fmt.Errorf("warp %d is bound to another kernel", i)
		case !slices.Equal(x.regs, y.regs):
			return fmt.Errorf("warp %d registers differ (%d and %d words)", i, len(x.regs), len(y.regs))
		case !slices.Equal(x.preds, y.preds):
			return fmt.Errorf("warp %d predicates %x, want %x", i, x.preds, y.preds)
		case !slices.Equal(x.stack, y.stack):
			return fmt.Errorf("warp %d SIMT stack %v, want %v", i, x.stack, y.stack)
		case x.tid != y.tid || x.laneMask != y.laneMask || x.Index != y.Index:
			return fmt.Errorf("warp %d lanes differ", i)
		case x.AtBarrier != y.AtBarrier || x.InstructionsExecuted != y.InstructionsExecuted:
			return fmt.Errorf("warp %d barrier or instruction count differs", i)
		}
	}
	return nil
}

// dirtySrc leaves every kind of CTA state non-zero: high registers,
// predicates, shared memory, and warps parked at a barrier mid-kernel.
const dirtySrc = `
.kernel dirty
.shared 1024
    mov.u32       %r0, %tid.x;
    mov.u32       %r3, 77;
    mov.u32       %r5, 99;
    mov.u32       %r39, 0xdeadbeef;
    setp.lt.u32   %p0, %r0, 4096;
    setp.lt.u32   %p1, %r0, 4096;
    setp.lt.u32   %p3, %r0, 4096;
    shl.u32       %r1, %r0, 2;
    st.shared.u32 [%r1], %r39;
    bar.sync;
    exit;
`

// cleanSrc reads state it never writes: registers %r3 and %r5, predicate
// %p1 and shared memory, and stores %tid.x plus them. A fresh CTA reads
// zeros, and so must a reset one.
const cleanSrc = `
.kernel clean
.param .u32 out
.shared 256
    mov.u32       %r0, %tid.x;
    mov.u32       %r6, %tid.y;
    shl.u32       %r1, %r0, 2;
    ld.shared.u32 %r2, [%r1];
    add.u32       %r2, %r2, %r3;
    add.u32       %r2, %r2, %r5;
@%p1 add.u32      %r2, %r2, 1;
    add.u32       %r2, %r2, %r0;
    mad.u32       %r4, %r6, 16, %r0;
    mov.u32       %r6, %ctaid.x;
    mad.u32       %r4, %r6, 48, %r4;
    shl.u32       %r4, %r4, 2;
    ld.param.u32  %r7, [out];
    add.u32       %r7, %r7, %r4;
    st.global.u32 [%r7], %r2;
    exit;
`

func parseKernel(t testing.TB, src string) *ptx.Kernel {
	t.Helper()
	prog, err := ptx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Kernels[0]
}

// stepRecord is one Step as a listener sees it, copied out.
type stepRecord struct {
	cta, warp int
	step      Step
}

// TestCTAResetMatchesFresh runs a launch through a CTA that first ran a
// larger launch (more registers, predicates, shared memory and warps, left
// dirty mid-kernel) and through fresh CTAs. Right after every reset the
// state must equal a fresh CTA's, and the run must produce the same Step
// stream, final registers, shared memory and global memory.
//
// Skipping the predicate clear in Reset fails this test.
func TestCTAResetMatchesFresh(t *testing.T) {
	dirty := &Launch{Kernel: parseKernel(t, dirtySrc), Grid: Dim1(1), Block: Dim3{X: 8, Y: 4, Z: 3}}
	cta := NewCTA(dirty, 0)
	for _, w := range cta.Warps {
		for !w.AtBarrier {
			var s Step
			if err := w.Execute(&Env{Mem: mem.New(), Launch: dirty}, &s); err != nil {
				t.Fatal(err)
			}
		}
	}

	clean := parseKernel(t, cleanSrc)
	type run struct {
		steps []stepRecord
		out   []uint32
		final []*CTA
	}
	do := func(reuse bool) run {
		m := mem.New()
		out := m.Alloc(4 * 2 * 48)
		l := &Launch{Kernel: clean, Grid: Dim1(2), Block: Dim2(16, 3), Params: []uint32{out}}
		var r run
		var res RunResult
		var step Step
		opts := RunOptions{Listener: func(ctaID int, w *Warp, s *Step) {
			r.steps = append(r.steps, stepRecord{ctaID, int(w.Index), *s})
		}}
		for id := 0; id < l.Grid.Count(); id++ {
			c := NewCTA(l, id)
			if reuse {
				cta.Reset(l, id)
				if err := sameCTA(cta, c); err != nil {
					t.Fatalf("CTA %d right after Reset: %v", id, err)
				}
				c = cta
			}
			if err := runCTA(&Env{Mem: m, Launch: l}, c, &step, opts, &res); err != nil {
				t.Fatal(err)
			}
			final := new(CTA)
			*final = *c
			final.Warps = nil
			for _, w := range c.Warps {
				cp := *w
				cp.regs, cp.preds = slices.Clone(w.regs), slices.Clone(w.preds)
				cp.CTA = final
				final.Warps = append(final.Warps, &cp)
			}
			final.Shared = slices.Clone(c.Shared)
			r.final = append(r.final, final)
		}
		r.out = m.ReadU32s(out, 2*48)
		return r
	}
	fresh, reused := do(false), do(true)
	if !slices.Equal(fresh.steps, reused.steps) {
		t.Errorf("Step streams differ: %d steps fresh, %d reused", len(fresh.steps), len(reused.steps))
	}
	for id := range fresh.final {
		if err := sameCTA(reused.final[id], fresh.final[id]); err != nil {
			t.Errorf("CTA %d after its run: %v", id, err)
		}
	}
	if !slices.Equal(reused.out, fresh.out) {
		t.Errorf("global results %v, want %v", reused.out, fresh.out)
	}
}

// FuzzCTAReset resets one CTA through a random sequence of launch shapes
// (block extent, register and predicate counts, shared bytes), scribbling
// over its state between resets, and checks each reset against NewCTA.
func FuzzCTAReset(f *testing.F) {
	f.Add([]byte{63, 5, 3, 200, 15, 255, 0, 0, 0, 0, 0, 0, 31, 1, 0, 8, 2, 16})
	f.Add([]byte{7, 0, 0, 1, 1, 1, 40, 3, 1, 100, 9, 9, 7, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cta := new(CTA)
		for len(data) >= 6 {
			b := data[:6]
			data = data[6:]
			k := parseKernel(t, ".kernel k\n    exit;\n")
			k.NumRegs, k.NumPreds, k.SharedBytes = int(b[3]), int(b[4]%16), 4*int(b[5])
			l := &Launch{Kernel: k, Grid: Dim1(3),
				Block: Dim3{X: 1 + int(b[0])%64, Y: 1 + int(b[1])%6, Z: 1 + int(b[2])%4}}
			cta.Reset(l, 2)
			if err := sameCTA(cta, NewCTA(l, 2)); err != nil {
				t.Fatalf("reset to block %v, %d registers, %d predicates, %d shared bytes: %v",
					l.Block, k.NumRegs, k.NumPreds, k.SharedBytes, err)
			}
			for i := range cta.Shared {
				cta.Shared[i] = 0xa5
			}
			for _, w := range cta.Warps {
				for i := range w.regs {
					w.regs[i] = 0xfeedface
				}
				for i := range w.preds {
					w.preds[i] = FullMask
				}
				w.AtBarrier, w.InstructionsExecuted = true, 7
				w.stack = append(w.stack, stackEntry{pc: 3, rpc: 5, mask: 1})
			}
		}
	})
}
