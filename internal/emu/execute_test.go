package emu

import (
	"testing"
	"unsafe"

	"critload/internal/mem"
	"critload/internal/ptx"
)

// benchKernel holds one instruction of every class the executor
// distinguishes. %r4 holds a per-lane word address into a global buffer;
// %r5 one into shared memory.
const benchKernel = `
.kernel bench
.param .u32 buf
.shared 128
    add.u32        %r2, %r0, %r1;
    setp.lt.u32    %p0, %r0, %r1;
    ld.global.u32  %r3, [%r4];
    st.global.u32  [%r4+4], %r2;
    ld.param.u32   %r6, [buf];
    mad.f32        %r7, %r0, 1.5, %r1;
    selp.b32       %r8, %r0, 7, %p0;
    cvt.s32.f32    %r9, %r7;
    mov.u32        %r10, %tid.x;
    ld.shared.u32  %r11, [%r5];
    st.shared.u32  [%r5], %r2;
    atom.global.add.u32 %r12, [%r4], 1;
    bra            NEXT;
NEXT:
    exit;
`

// benchWarp returns a warp of benchKernel ready to execute any of its
// instructions, and the environment to execute it in.
func benchWarp(tb testing.TB) (*Warp, *Env) {
	prog, err := ptx.Parse(benchKernel)
	if err != nil {
		tb.Fatal(err)
	}
	m := mem.New()
	buf := m.Alloc(4 * (WarpSize + 1))
	l := &Launch{Kernel: prog.Kernels[0], Grid: Dim1(1), Block: Dim1(WarpSize), Params: []uint32{buf}}
	w := NewCTA(l, 0).Warps[0]
	for i := range WarpSize {
		w.row(0)[i] = uint32(i)
		w.row(1)[i] = uint32(3 * i)
		w.row(4)[i] = buf + uint32(4*i)
		w.row(5)[i] = uint32(4 * i)
	}
	return w, &Env{Mem: m, Launch: l}
}

// at points the warp's next instruction at pc under the given active mask.
func (w *Warp) at(pc int, mask uint32) {
	w.stack = append(w.stack[:0], stackEntry{pc: pc, rpc: len(w.kernel.Insts), mask: mask})
}

// benchClasses names the benchKernel instruction of each measured class.
var benchClasses = []struct {
	name string
	pc   int
}{{"alu", 0}, {"setp", 1}, {"ld.global", 2}, {"st.global", 3}}

// BenchmarkExecute reports the cost of one warp instruction per class, at a
// full and a half active mask: each op is one warp instruction.
func BenchmarkExecute(b *testing.B) {
	for _, c := range benchClasses {
		for _, m := range []struct {
			name string
			mask uint32
		}{{"full", FullMask}, {"half", 0x0000ffff}} {
			b.Run(c.name+"/"+m.name, func(b *testing.B) {
				w, env := benchWarp(b)
				var step Step
				b.ResetTimer()
				for range b.N {
					w.at(c.pc, m.mask)
					if err := w.Execute(env, &step); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestExecuteDoesNotAllocate pins the executor's gather buffers to the
// stack: a warm warp executes every instruction class without allocating.
func TestExecuteDoesNotAllocate(t *testing.T) {
	w, env := benchWarp(t)
	var step Step
	for pc, in := range w.kernel.Insts {
		for _, mask := range []uint32{FullMask, 0x0000ffff} {
			w.at(pc, mask)
			if err := w.Execute(env, &step); err != nil { // warm: touch every page
				t.Fatalf("%s: %v", in, err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				w.at(pc, mask)
				if err := w.Execute(env, &step); err != nil {
					t.Fatalf("%s: %v", in, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s under mask %#x: %v allocations per execution, want 0", in, mask, allocs)
			}
		}
	}
}

// TestWarpSizeClass pins a warp at 320 bytes on 64-bit hosts, the size
// class it fits since it holds the decoded table itself. A CTA allocates
// one per warp the first time a launch needs that many; reused CTA storage
// keeps them.
func TestWarpSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Warp{}); got > 320 {
		t.Errorf("Warp is %d bytes, want at most 320", got)
	}
}
