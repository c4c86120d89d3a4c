package workloads

import (
	"math"
	"math/rand"

	"critload/internal/mem"
	"critload/internal/ptx"
)

// mmSrc is a dense matrix-multiply kernel: one thread per output element,
// linear row/column indexing from thread and CTA ids (all loads
// deterministic, as the paper observes for linear algebra).
const mmSrc = `
.kernel mm
.param .u32 A
.param .u32 B
.param .u32 C
.param .u32 N
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // col
    mov.u32      %r3, %ctaid.y;
    mov.u32      %r4, %ntid.y;
    mad.u32      %r5, %r3, %r4, %tid.y;   // row
    ld.param.u32 %r6, [N];
    setp.ge.u32  %p0, %r2, %r6;
@%p0 bra EXIT;
    setp.ge.u32  %p1, %r5, %r6;
@%p1 bra EXIT;
    mov.f32      %r7, 0.0;                // acc
    mov.u32      %r8, 0;                  // k
    ld.param.u32 %r9, [A];
    ld.param.u32 %r10, [B];
    mul.u32      %r11, %r5, %r6;          // row*N
LOOP:
    setp.ge.u32  %p2, %r8, %r6;
@%p2 bra STORE;
    add.u32      %r12, %r11, %r8;
    shl.u32      %r13, %r12, 2;
    add.u32      %r14, %r9, %r13;
    ld.global.f32 %r15, [%r14];           // A[row*N+k]
    mul.u32      %r16, %r8, %r6;
    add.u32      %r17, %r16, %r2;
    shl.u32      %r18, %r17, 2;
    add.u32      %r19, %r10, %r18;
    ld.global.f32 %r20, [%r19];           // B[k*N+col]
    mad.f32      %r7, %r15, %r20, %r7;
    add.u32      %r8, %r8, 1;
    bra LOOP;
STORE:
    add.u32      %r21, %r11, %r2;
    shl.u32      %r22, %r21, 2;
    ld.param.u32 %r23, [C];
    add.u32      %r24, %r23, %r22;
    st.global.f32 [%r24], %r7;
EXIT:
    exit;
`

func cpuMatMul(a, b []float32, n int) []float32 {
	out := make([]float32, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			var acc float32
			for k := 0; k < n; k++ {
				acc = a[r*n+k]*b[k*n+c] + acc
			}
			out[r*n+c] = acc
		}
	}
	return out
}

func init() {
	register(&Workload{
		Name:        "2mm",
		Category:    Linear,
		Description: "two chained dense matrix multiplications (PolyBench 2mm)",
		DataSet:     "256×256 float matrices",
		Size:        sizeKnob("matrix dimension", 1, 256, 1700),
		src:         mmSrc, salt: 1,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		k := prog.MustKernel("mm")

		a := randF32s(rng, n*n, -1, 1)
		b := randF32s(rng, n*n, -1, 1)
		c := randF32s(rng, n*n, -1, 1)
		aB, bB, cB := m.AllocF32s(a), m.AllocF32s(b), m.AllocF32s(c)
		tmpB := m.Alloc(uint32(4 * n * n))
		outB := m.Alloc(uint32(4 * n * n))

		inst := &Instance{
			CTAs:          grid1D(n, 16) * grid1D(n, 16),
			ThreadsPerCTA: 256,
		}
		inst.Run = func(exec Executor) error {
			if err := exec(launch2D(k, n, n, 16, 16, aB, bB, tmpB, uint32(n))); err != nil {
				return err
			}
			return exec(launch2D(k, n, n, 16, 16, tmpB, cB, outB, uint32(n)))
		}
		inst.Verify = func() error {
			tmp := cpuMatMul(a, b, n)
			want := cpuMatMul(tmp, c, n)
			return checkF32(m, outB, want, 1e-3, "2mm out")
		}
		return inst
	})
}

// Gaussian elimination (Rodinia gaussian): fan1 computes the column of
// multipliers, fan2 applies the rank-1 update. Host loops over pivots.
const gausSrc = `
.kernel fan1
.param .u32 a
.param .u32 mults
.param .u32 N
.param .u32 t
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // idx
    ld.param.u32 %r3, [N];
    ld.param.u32 %r4, [t];
    sub.u32      %r5, %r3, %r4;
    sub.u32      %r5, %r5, 1;             // rows below pivot
    setp.ge.u32  %p0, %r2, %r5;
@%p0 bra EXIT;
    add.u32      %r6, %r2, %r4;
    add.u32      %r6, %r6, 1;             // i = t + 1 + idx
    ld.param.u32 %r7, [a];
    mad.u32      %r8, %r6, %r3, %r4;      // i*N + t
    shl.u32      %r9, %r8, 2;
    add.u32      %r10, %r7, %r9;
    ld.global.f32 %r11, [%r10];           // a[i][t]
    mad.u32      %r12, %r4, %r3, %r4;     // t*N + t
    shl.u32      %r13, %r12, 2;
    add.u32      %r14, %r7, %r13;
    ld.global.f32 %r15, [%r14];           // a[t][t]
    div.f32      %r16, %r11, %r15;
    ld.param.u32 %r17, [mults];
    add.u32      %r18, %r17, %r9;
    st.global.f32 [%r18], %r16;           // m[i][t]
EXIT:
    exit;

.kernel fan2
.param .u32 a
.param .u32 mults
.param .u32 N
.param .u32 t
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // xidx (column offset)
    mov.u32      %r3, %ctaid.y;
    mov.u32      %r4, %ntid.y;
    mad.u32      %r5, %r3, %r4, %tid.y;   // yidx (row offset)
    ld.param.u32 %r6, [N];
    ld.param.u32 %r7, [t];
    sub.u32      %r8, %r6, %r7;           // cols from pivot
    setp.ge.u32  %p0, %r2, %r8;
@%p0 bra EXIT;
    sub.u32      %r9, %r8, 1;             // rows below pivot
    setp.ge.u32  %p1, %r5, %r9;
@%p1 bra EXIT;
    add.u32      %r10, %r5, %r7;
    add.u32      %r10, %r10, 1;           // i = t + 1 + yidx
    add.u32      %r11, %r2, %r7;          // j = t + xidx
    ld.param.u32 %r12, [a];
    ld.param.u32 %r13, [mults];
    mad.u32      %r14, %r10, %r6, %r7;    // i*N + t
    shl.u32      %r15, %r14, 2;
    add.u32      %r16, %r13, %r15;
    ld.global.f32 %r17, [%r16];           // m[i][t]
    mad.u32      %r18, %r7, %r6, %r11;    // t*N + j
    shl.u32      %r19, %r18, 2;
    add.u32      %r20, %r12, %r19;
    ld.global.f32 %r21, [%r20];           // a[t][j]
    mad.u32      %r22, %r10, %r6, %r11;   // i*N + j
    shl.u32      %r23, %r22, 2;
    add.u32      %r24, %r12, %r23;
    ld.global.f32 %r25, [%r24];           // a[i][j]
    mul.f32      %r26, %r17, %r21;
    sub.f32      %r27, %r25, %r26;
    st.global.f32 [%r24], %r27;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "gaus",
		Category:    Linear,
		Description: "Gaussian elimination, fan1/fan2 kernels (Rodinia gaussian)",
		DataSet:     "192×192 diagonally dominant float matrix",
		Size:        sizeKnob("matrix dimension", 1, 192, 2800),
		src:         gausSrc, salt: 2,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		fan1 := prog.MustKernel("fan1")
		fan2 := prog.MustKernel("fan2")

		a := randF32s(rng, n*n, 0.1, 1)
		for i := 0; i < n; i++ {
			a[i*n+i] += float32(n) // diagonal dominance: stable pivots
		}
		aB := m.AllocF32s(a)
		multsB := m.Alloc(uint32(4 * n * n))

		inst := &Instance{
			CTAs:          grid1D(n, 16) * grid1D(n, 16),
			ThreadsPerCTA: 256,
		}
		inst.Run = func(exec Executor) error {
			for t := 0; t < n-1; t++ {
				if err := exec(launch1D(fan1, n-t-1, 256, aB, multsB, uint32(n), uint32(t))); err != nil {
					return err
				}
				if err := exec(launch2D(fan2, n-t, n-t-1, 16, 16, aB, multsB, uint32(n), uint32(t))); err != nil {
					return err
				}
			}
			return nil
		}
		inst.Verify = func() error {
			// CPU elimination in the same arithmetic order.
			ref := append([]float32(nil), a...)
			for t := 0; t < n-1; t++ {
				for i := t + 1; i < n; i++ {
					mult := ref[i*n+t] / ref[t*n+t]
					for j := t; j < n; j++ {
						ref[i*n+j] -= mult * ref[t*n+j]
					}
				}
			}
			return checkF32(m, aB, ref, 1e-2, "gaus a")
		}
		return inst
	})
}

// LU decomposition (PolyBench lu): per pivot k, normalize row k then update
// the trailing submatrix.
const luSrc = `
.kernel lu_norm
.param .u32 a
.param .u32 N
.param .u32 k
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // idx
    ld.param.u32 %r3, [N];
    ld.param.u32 %r4, [k];
    sub.u32      %r5, %r3, %r4;
    sub.u32      %r5, %r5, 1;
    setp.ge.u32  %p0, %r2, %r5;
@%p0 bra EXIT;
    add.u32      %r6, %r2, %r4;
    add.u32      %r6, %r6, 1;             // j = k + 1 + idx
    ld.param.u32 %r7, [a];
    mad.u32      %r8, %r4, %r3, %r6;      // k*N + j
    shl.u32      %r9, %r8, 2;
    add.u32      %r10, %r7, %r9;
    ld.global.f32 %r11, [%r10];
    mad.u32      %r12, %r4, %r3, %r4;     // k*N + k
    shl.u32      %r13, %r12, 2;
    add.u32      %r14, %r7, %r13;
    ld.global.f32 %r15, [%r14];
    div.f32      %r16, %r11, %r15;
    st.global.f32 [%r10], %r16;
EXIT:
    exit;

.kernel lu_update
.param .u32 a
.param .u32 N
.param .u32 k
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // xidx
    mov.u32      %r3, %ctaid.y;
    mov.u32      %r4, %ntid.y;
    mad.u32      %r5, %r3, %r4, %tid.y;   // yidx
    ld.param.u32 %r6, [N];
    ld.param.u32 %r7, [k];
    sub.u32      %r8, %r6, %r7;
    sub.u32      %r8, %r8, 1;             // trailing size
    setp.ge.u32  %p0, %r2, %r8;
@%p0 bra EXIT;
    setp.ge.u32  %p1, %r5, %r8;
@%p1 bra EXIT;
    add.u32      %r9, %r5, %r7;
    add.u32      %r9, %r9, 1;             // i
    add.u32      %r10, %r2, %r7;
    add.u32      %r10, %r10, 1;           // j
    ld.param.u32 %r11, [a];
    mad.u32      %r12, %r9, %r6, %r7;     // i*N + k
    shl.u32      %r13, %r12, 2;
    add.u32      %r14, %r11, %r13;
    ld.global.f32 %r15, [%r14];
    mad.u32      %r16, %r7, %r6, %r10;    // k*N + j
    shl.u32      %r17, %r16, 2;
    add.u32      %r18, %r11, %r17;
    ld.global.f32 %r19, [%r18];
    mad.u32      %r20, %r9, %r6, %r10;    // i*N + j
    shl.u32      %r21, %r20, 2;
    add.u32      %r22, %r11, %r21;
    ld.global.f32 %r23, [%r22];
    mul.f32      %r24, %r15, %r19;
    sub.f32      %r25, %r23, %r24;
    st.global.f32 [%r22], %r25;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "lu",
		Category:    Linear,
		Description: "LU decomposition without pivoting (PolyBench lu)",
		DataSet:     "192×192 diagonally dominant float matrix",
		Size:        sizeKnob("matrix dimension", 1, 192, 3200),
		src:         luSrc, salt: 3,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		norm := prog.MustKernel("lu_norm")
		update := prog.MustKernel("lu_update")

		a := randF32s(rng, n*n, 0.1, 1)
		for i := 0; i < n; i++ {
			a[i*n+i] += float32(n)
		}
		aB := m.AllocF32s(a)

		inst := &Instance{
			CTAs:          grid1D(n, 16) * grid1D(n, 16),
			ThreadsPerCTA: 256,
		}
		inst.Run = func(exec Executor) error {
			for k := 0; k < n-1; k++ {
				if err := exec(launch1D(norm, n-k-1, 256, aB, uint32(n), uint32(k))); err != nil {
					return err
				}
				if err := exec(launch2D(update, n-k-1, n-k-1, 16, 16, aB, uint32(n), uint32(k))); err != nil {
					return err
				}
			}
			return nil
		}
		inst.Verify = func() error {
			ref := append([]float32(nil), a...)
			for k := 0; k < n-1; k++ {
				for j := k + 1; j < n; j++ {
					ref[k*n+j] /= ref[k*n+k]
				}
				for i := k + 1; i < n; i++ {
					for j := k + 1; j < n; j++ {
						ref[i*n+j] -= ref[i*n+k] * ref[k*n+j]
					}
				}
			}
			return checkF32(m, aB, ref, 1e-2, "lu a")
		}
		return inst
	})
}

// Gram-Schmidt decomposition (PolyBench gramschmidt): per column k, a
// shared-memory norm reduction, a normalization pass, and an update of the
// trailing columns.
const grmSrc = `
.kernel gs_norm
.param .u32 a
.param .u32 rdiag
.param .u32 N
.param .u32 k
.shared 1024
    mov.u32      %r0, %tid.x;             // 256 threads, single CTA
    ld.param.u32 %r1, [N];
    ld.param.u32 %r2, [k];
    ld.param.u32 %r3, [a];
    mov.f32      %r4, 0.0;                // partial
    mov.u32      %r5, %r0;                // i = tid
PART:
    setp.ge.u32  %p0, %r5, %r1;
@%p0 bra REDUCE;
    mad.u32      %r6, %r5, %r1, %r2;      // i*N + k
    shl.u32      %r7, %r6, 2;
    add.u32      %r8, %r3, %r7;
    ld.global.f32 %r9, [%r8];
    mad.f32      %r4, %r9, %r9, %r4;
    add.u32      %r5, %r5, 256;
    bra PART;
REDUCE:
    shl.u32      %r10, %r0, 2;
    st.shared.f32 [%r10], %r4;
    bar.sync;
    mov.u32      %r11, 128;               // stride
STRIDE:
    setp.eq.u32  %p1, %r11, 0;
@%p1 bra WRITE;
    setp.ge.u32  %p2, %r0, %r11;
@%p2 bra SKIP;
    shl.u32      %r12, %r11, 2;
    add.u32      %r13, %r10, %r12;
    ld.shared.f32 %r14, [%r13];
    ld.shared.f32 %r15, [%r10];
    add.f32      %r16, %r14, %r15;
    st.shared.f32 [%r10], %r16;
SKIP:
    bar.sync;
    shr.u32      %r11, %r11, 1;
    bra STRIDE;
WRITE:
    setp.ne.u32  %p3, %r0, 0;
@%p3 bra EXIT;
    ld.shared.f32 %r17, [0];
    sqrt.f32     %r18, %r17;
    ld.param.u32 %r19, [rdiag];
    shl.u32      %r20, %r2, 2;
    add.u32      %r21, %r19, %r20;
    st.global.f32 [%r21], %r18;           // rdiag[k] = ||A[:,k]||
EXIT:
    exit;

.kernel gs_q
.param .u32 a
.param .u32 q
.param .u32 rdiag
.param .u32 N
.param .u32 k
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // i
    ld.param.u32 %r3, [N];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [k];
    ld.param.u32 %r5, [rdiag];
    shl.u32      %r6, %r4, 2;
    add.u32      %r7, %r5, %r6;
    ld.global.f32 %r8, [%r7];             // rdiag[k]
    ld.param.u32 %r9, [a];
    mad.u32      %r10, %r2, %r3, %r4;     // i*N + k
    shl.u32      %r11, %r10, 2;
    add.u32      %r12, %r9, %r11;
    ld.global.f32 %r13, [%r12];
    div.f32      %r14, %r13, %r8;
    ld.param.u32 %r15, [q];
    add.u32      %r16, %r15, %r11;
    st.global.f32 [%r16], %r14;           // q[i][k]
EXIT:
    exit;

.kernel gs_update
.param .u32 a
.param .u32 q
.param .u32 N
.param .u32 k
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // jidx
    ld.param.u32 %r3, [N];
    ld.param.u32 %r4, [k];
    sub.u32      %r5, %r3, %r4;
    sub.u32      %r5, %r5, 1;             // trailing columns
    setp.ge.u32  %p0, %r2, %r5;
@%p0 bra EXIT;
    add.u32      %r6, %r2, %r4;
    add.u32      %r6, %r6, 1;             // j = k + 1 + jidx
    ld.param.u32 %r7, [a];
    ld.param.u32 %r8, [q];
    mov.f32      %r9, 0.0;                // r = q[:,k] . a[:,j]
    mov.u32      %r10, 0;                 // i
DOT:
    setp.ge.u32  %p1, %r10, %r3;
@%p1 bra APPLY;
    mad.u32      %r11, %r10, %r3, %r4;    // i*N + k
    shl.u32      %r12, %r11, 2;
    add.u32      %r13, %r8, %r12;
    ld.global.f32 %r14, [%r13];           // q[i][k]
    mad.u32      %r15, %r10, %r3, %r6;    // i*N + j
    shl.u32      %r16, %r15, 2;
    add.u32      %r17, %r7, %r16;
    ld.global.f32 %r18, [%r17];           // a[i][j]
    mad.f32      %r9, %r14, %r18, %r9;
    add.u32      %r10, %r10, 1;
    bra DOT;
APPLY:
    mov.u32      %r10, 0;
SUB:
    setp.ge.u32  %p2, %r10, %r3;
@%p2 bra EXIT;
    mad.u32      %r11, %r10, %r3, %r4;
    shl.u32      %r12, %r11, 2;
    add.u32      %r13, %r8, %r12;
    ld.global.f32 %r14, [%r13];           // q[i][k]
    mad.u32      %r15, %r10, %r3, %r6;
    shl.u32      %r16, %r15, 2;
    add.u32      %r17, %r7, %r16;
    ld.global.f32 %r18, [%r17];           // a[i][j]
    mul.f32      %r19, %r14, %r9;
    sub.f32      %r20, %r18, %r19;
    st.global.f32 [%r17], %r20;
    add.u32      %r10, %r10, 1;
    bra SUB;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "grm",
		Category:    Linear,
		Description: "Gram-Schmidt QR decomposition (PolyBench gramschmidt)",
		DataSet:     "64×64 float matrix",
		Size:        sizeKnob("matrix dimension", 1, 64, 2800),
		src:         grmSrc, salt: 4,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		kNorm := prog.MustKernel("gs_norm")
		kQ := prog.MustKernel("gs_q")
		kUpd := prog.MustKernel("gs_update")

		a := randF32s(rng, n*n, 0.1, 1)
		for i := 0; i < n; i++ {
			a[i*n+i] += 2 // keep columns well conditioned
		}
		aB := m.AllocF32s(a)
		qB := m.Alloc(uint32(4 * n * n))
		rdB := m.Alloc(uint32(4 * n))

		inst := &Instance{
			CTAs:          grid1D(n, 256),
			ThreadsPerCTA: 256,
		}
		inst.Run = func(exec Executor) error {
			for k := 0; k < n; k++ {
				if err := exec(launch1D(kNorm, 256, 256, aB, rdB, uint32(n), uint32(k))); err != nil {
					return err
				}
				if err := exec(launch1D(kQ, n, 256, aB, qB, rdB, uint32(n), uint32(k))); err != nil {
					return err
				}
				if k+1 < n {
					if err := exec(launch1D(kUpd, n-k-1, 256, aB, qB, uint32(n), uint32(k))); err != nil {
						return err
					}
				}
			}
			return nil
		}
		inst.Verify = func() error {
			// CPU modified Gram-Schmidt; Q columns must be orthonormal
			// within tolerance and match the device Q loosely (float
			// summation order differs between the tree reduction and the
			// serial CPU sum, so compare against a tolerance).
			ref := append([]float32(nil), a...)
			q := make([]float32, n*n)
			for k := 0; k < n; k++ {
				var sum float64
				for i := 0; i < n; i++ {
					sum += float64(ref[i*n+k]) * float64(ref[i*n+k])
				}
				norm := float32(math.Sqrt(sum))
				for i := 0; i < n; i++ {
					q[i*n+k] = ref[i*n+k] / norm
				}
				for j := k + 1; j < n; j++ {
					var r float64
					for i := 0; i < n; i++ {
						r += float64(q[i*n+k]) * float64(ref[i*n+j])
					}
					for i := 0; i < n; i++ {
						ref[i*n+j] -= q[i*n+k] * float32(r)
					}
				}
			}
			return checkF32(m, qB, q, 5e-2, "grm q")
		}
		return inst
	})
}

// Sparse matrix–vector multiply in ELLPACK layout (Parboil spmv): the column
// index and value arrays are indexed by thread id and iteration (both
// deterministic); the gather x[col] is non-deterministic — giving spmv the
// mixed profile Figure 1 shows for it.
const spmvSrc = `
.kernel spmv
.param .u32 data
.param .u32 indices
.param .u32 x
.param .u32 y
.param .u32 nrows
.param .u32 ell
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // row
    ld.param.u32 %r3, [nrows];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [ell];
    ld.param.u32 %r5, [data];
    ld.param.u32 %r6, [indices];
    ld.param.u32 %r7, [x];
    mov.f32      %r8, 0.0;                // acc
    mov.u32      %r9, 0;                  // k
LOOP:
    setp.ge.u32  %p1, %r9, %r4;
@%p1 bra STORE;
    mad.u32      %r10, %r9, %r3, %r2;     // k*nrows + row (column-major ELL)
    shl.u32      %r11, %r10, 2;
    add.u32      %r12, %r6, %r11;
    ld.global.u32 %r13, [%r12];           // col (deterministic)
    add.u32      %r14, %r5, %r11;
    ld.global.f32 %r15, [%r14];           // val (deterministic)
    shl.u32      %r16, %r13, 2;
    add.u32      %r17, %r7, %r16;
    ld.global.f32 %r18, [%r17];           // x[col] (non-deterministic)
    mad.f32      %r8, %r15, %r18, %r8;
    add.u32      %r9, %r9, 1;
    bra LOOP;
STORE:
    ld.param.u32 %r19, [y];
    shl.u32      %r20, %r2, 2;
    add.u32      %r21, %r19, %r20;
    st.global.f32 [%r21], %r8;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "spmv",
		Category:    Linear,
		Description: "sparse matrix dense vector multiply, ELLPACK layout (Parboil spmv)",
		DataSet:     "32768-row sparse matrix, 12 nnz/row, scattered columns",
		Size:        sizeKnob("matrix rows", 1, 32768, 420000),
		src:         spmvSrc, salt: 5,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		const ell = 12
		k := prog.MustKernel("spmv")

		// Column-major ELL arrays. Column indices scatter within a band
		// around the row, like real sparse operator matrices; a warp's 32
		// gathers then touch a handful of distinct blocks, reproducing
		// the ~6 requests/warp the paper reports for spmv in Figure 2.
		const band = 192
		data := make([]float32, n*ell)
		indices := make([]uint32, n*ell)
		for row := 0; row < n; row++ {
			for kk := 0; kk < ell; kk++ {
				col := ((row+rng.Intn(band)-band/2)%n + n) % n
				indices[kk*n+row] = uint32(col)
				data[kk*n+row] = rng.Float32()
			}
		}
		x := randF32s(rng, n, -1, 1)
		dataB := m.AllocF32s(data)
		idxB := m.AllocU32s(indices)
		xB := m.AllocF32s(x)
		yB := m.Alloc(uint32(4 * n))

		inst := &Instance{
			CTAs:          grid1D(n, 192),
			ThreadsPerCTA: 192,
		}
		inst.Run = func(exec Executor) error {
			return exec(launch1D(k, n, 192, dataB, idxB, xB, yB, uint32(n), ell))
		}
		inst.Verify = func() error {
			want := make([]float32, n)
			for row := 0; row < n; row++ {
				var acc float32
				for kk := 0; kk < ell; kk++ {
					acc = data[kk*n+row]*x[indices[kk*n+row]] + acc
				}
				want[row] = acc
			}
			return checkF32(m, yB, want, 1e-3, "spmv y")
		}
		return inst
	})
}
