package workloads

import (
	"math"
	"math/rand"

	"critload/internal/mem"
	"critload/internal/ptx"
)

// ---------------------------------------------------------------------------
// dwt — 2-D discrete wavelet transform (Haar), row pass + column pass with
// shared-memory staging, as image kernels do.
// ---------------------------------------------------------------------------

const dwtSrc = `
.kernel dwt_rows
.param .u32 in
.param .u32 out
.param .u32 W
.param .u32 H
.shared 2048
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // pair index
    ld.param.u32 %r3, [W];
    ld.param.u32 %r4, [H];
    shr.u32      %r5, %r3, 1;             // W/2
    mul.u32      %r6, %r5, %r4;           // total pairs
    setp.ge.u32  %p0, %r2, %r6;
@%p0 bra EXIT;
    div.u32      %r7, %r2, %r5;           // row
    rem.u32      %r8, %r2, %r5;           // pair column
    ld.param.u32 %r9, [in];
    mul.u32      %r10, %r7, %r3;          // row*W
    shl.u32      %r11, %r8, 1;            // 2c
    add.u32      %r12, %r10, %r11;
    shl.u32      %r13, %r12, 2;
    add.u32      %r14, %r9, %r13;
    ld.global.f32 %r15, [%r14];           // a = in[row*W + 2c]
    ld.global.f32 %r16, [%r14+4];         // b = in[row*W + 2c + 1]
    // Stage the pair through shared memory, as the original tiles do.
    mov.u32      %r17, %tid.x;
    shl.u32      %r18, %r17, 3;
    st.shared.f32 [%r18], %r15;
    st.shared.f32 [%r18+4], %r16;
    bar.sync;
    ld.shared.f32 %r19, [%r18];
    ld.shared.f32 %r20, [%r18+4];
    add.f32      %r21, %r19, %r20;
    mul.f32      %r21, %r21, 0.5;         // average
    sub.f32      %r22, %r19, %r20;
    mul.f32      %r22, %r22, 0.5;         // detail
    ld.param.u32 %r23, [out];
    add.u32      %r24, %r10, %r8;         // row*W + c
    shl.u32      %r25, %r24, 2;
    add.u32      %r26, %r23, %r25;
    st.global.f32 [%r26], %r21;
    add.u32      %r27, %r24, %r5;         // row*W + W/2 + c
    shl.u32      %r28, %r27, 2;
    add.u32      %r29, %r23, %r28;
    st.global.f32 [%r29], %r22;
EXIT:
    exit;

.kernel dwt_cols
.param .u32 in
.param .u32 out
.param .u32 W
.param .u32 H
.shared 2048
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // pair index
    ld.param.u32 %r3, [W];
    ld.param.u32 %r4, [H];
    shr.u32      %r5, %r4, 1;             // H/2
    mul.u32      %r6, %r5, %r3;           // total pairs
    setp.ge.u32  %p0, %r2, %r6;
@%p0 bra EXIT;
    div.u32      %r7, %r2, %r3;           // pair row
    rem.u32      %r8, %r2, %r3;           // column
    ld.param.u32 %r9, [in];
    shl.u32      %r10, %r7, 1;            // 2r
    mad.u32      %r11, %r10, %r3, %r8;    // (2r)*W + c
    shl.u32      %r12, %r11, 2;
    add.u32      %r13, %r9, %r12;
    ld.global.f32 %r14, [%r13];           // a
    add.u32      %r15, %r11, %r3;         // (2r+1)*W + c
    shl.u32      %r16, %r15, 2;
    add.u32      %r17, %r9, %r16;
    ld.global.f32 %r18, [%r17];           // b
    mov.u32      %r19, %tid.x;
    shl.u32      %r20, %r19, 3;
    st.shared.f32 [%r20], %r14;
    st.shared.f32 [%r20+4], %r18;
    bar.sync;
    ld.shared.f32 %r21, [%r20];
    ld.shared.f32 %r22, [%r20+4];
    add.f32      %r23, %r21, %r22;
    mul.f32      %r23, %r23, 0.5;
    sub.f32      %r24, %r21, %r22;
    mul.f32      %r24, %r24, 0.5;
    ld.param.u32 %r25, [out];
    mad.u32      %r26, %r7, %r3, %r8;     // r*W + c
    shl.u32      %r27, %r26, 2;
    add.u32      %r28, %r25, %r27;
    st.global.f32 [%r28], %r23;
    add.u32      %r29, %r7, %r5;          // (r + H/2)
    mad.u32      %r30, %r29, %r3, %r8;
    shl.u32      %r31, %r30, 2;
    add.u32      %r32, %r25, %r31;
    st.global.f32 [%r32], %r24;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "dwt",
		Category:    Image,
		Description: "one-level 2-D Haar discrete wavelet transform (Rodinia dwt2d)",
		DataSet:     "512×512 float image",
		Size:        sizeKnob("image edge in pixels", 2, 512, 2500),
		src:         dwtSrc, salt: 6,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		rows := prog.MustKernel("dwt_rows")
		cols := prog.MustKernel("dwt_cols")

		img := randF32s(rng, n*n, 0, 255)
		imgB := m.AllocF32s(img)
		tmpB := m.Alloc(uint32(4 * n * n))
		outB := m.Alloc(uint32(4 * n * n))

		inst := &Instance{
			CTAs:          grid1D(n*n/2, 256),
			ThreadsPerCTA: 256,
		}
		inst.Run = func(exec Executor) error {
			if err := exec(launch1D(rows, n*n/2, 256, imgB, tmpB, uint32(n), uint32(n))); err != nil {
				return err
			}
			return exec(launch1D(cols, n*n/2, 256, tmpB, outB, uint32(n), uint32(n)))
		}
		inst.Verify = func() error {
			tmp := make([]float32, n*n)
			for r := 0; r < n; r++ {
				for c := 0; c < n/2; c++ {
					a, b := img[r*n+2*c], img[r*n+2*c+1]
					tmp[r*n+c] = (a + b) * 0.5
					tmp[r*n+n/2+c] = (a - b) * 0.5
				}
			}
			want := make([]float32, n*n)
			for r := 0; r < n/2; r++ {
				for c := 0; c < n; c++ {
					a, b := tmp[(2*r)*n+c], tmp[(2*r+1)*n+c]
					want[r*n+c] = (a + b) * 0.5
					want[(r+n/2)*n+c] = (a - b) * 0.5
				}
			}
			return checkF32(m, outB, want, 1e-4, "dwt out")
		}
		return inst
	})
}

// ---------------------------------------------------------------------------
// htw — heartwall-style template tracking: each CTA stages an image region
// in shared memory and computes integer SSD against several templates with
// shared-memory tree reductions (shared-memory heavy, as Figure 9 shows).
// ---------------------------------------------------------------------------

const htwSrc = `
.kernel htw
.param .u32 img
.param .u32 tmpl
.param .u32 ssd
.param .u32 K
.shared 2048
    mov.u32      %r0, %tid.x;             // 256 threads
    mov.u32      %r1, %ctaid.x;           // region
    mov.u32      %r2, 256;
    mad.u32      %r3, %r1, %r2, %r0;      // region*256 + tid
    ld.param.u32 %r4, [img];
    shl.u32      %r5, %r3, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];             // pixel (deterministic)
    shl.u32      %r8, %r0, 2;             // shared slot
    ld.param.u32 %r9, [tmpl];
    ld.param.u32 %r10, [K];
    mov.u32      %r11, 0;                 // k
KLOOP:
    setp.ge.u32  %p0, %r11, %r10;
@%p0 bra EXIT;
    mad.u32      %r12, %r11, %r2, %r0;    // k*256 + tid
    shl.u32      %r13, %r12, 2;
    add.u32      %r14, %r9, %r13;
    ld.global.u32 %r15, [%r14];           // template pixel
    sub.s32      %r16, %r7, %r15;
    mul.u32      %r17, %r16, %r16;        // squared diff
    st.shared.u32 [%r8], %r17;
    bar.sync;
    mov.u32      %r18, 128;               // reduction stride
RED:
    setp.eq.u32  %p1, %r18, 0;
@%p1 bra WRITE;
    setp.ge.u32  %p2, %r0, %r18;
@%p2 bra SKIP;
    shl.u32      %r19, %r18, 2;
    add.u32      %r20, %r8, %r19;
    ld.shared.u32 %r21, [%r20];
    ld.shared.u32 %r22, [%r8];
    add.u32      %r23, %r21, %r22;
    st.shared.u32 [%r8], %r23;
SKIP:
    bar.sync;
    shr.u32      %r18, %r18, 1;
    bra RED;
WRITE:
    setp.ne.u32  %p3, %r0, 0;
@%p3 bra NEXT;
    ld.shared.u32 %r24, [0];
    ld.param.u32 %r25, [ssd];
    mad.u32      %r26, %r1, %r10, %r11;   // region*K + k
    shl.u32      %r27, %r26, 2;
    add.u32      %r28, %r25, %r27;
    st.global.u32 [%r28], %r24;
NEXT:
    bar.sync;
    add.u32      %r11, %r11, 1;
    bra KLOOP;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "htw",
		Category:    Image,
		Description: "heartwall-style region tracking: shared-memory SSD template matching",
		DataSet:     "256 regions × 256 px, 4 templates, 4 frames",
		Size:        sizeKnob("tracked regions of 256 pixels", 1, 256, 10500),
		src:         htwSrc, salt: 7,
	}, func(regions int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		const kTemplates = 4
		const frames = 4
		k := prog.MustKernel("htw")

		npix := regions * 256
		imgs := make([][]uint32, frames)
		for f := range imgs {
			imgs[f] = make([]uint32, npix)
			for i := range imgs[f] {
				imgs[f][i] = uint32(rng.Intn(256))
			}
		}
		tmpl := make([]uint32, kTemplates*256)
		for i := range tmpl {
			tmpl[i] = uint32(rng.Intn(256))
		}
		tmplB := m.AllocU32s(tmpl)
		imgBs := make([]uint32, frames)
		ssdBs := make([]uint32, frames)
		for f := 0; f < frames; f++ {
			imgBs[f] = m.AllocU32s(imgs[f])
			ssdBs[f] = m.Alloc(uint32(4 * regions * kTemplates))
		}

		inst := &Instance{
			CTAs:          regions,
			ThreadsPerCTA: 256,
		}
		inst.Run = func(exec Executor) error {
			for f := 0; f < frames; f++ {
				l := launch1D(k, regions*256, 256, imgBs[f], tmplB, ssdBs[f], kTemplates)
				if err := exec(l); err != nil {
					return err
				}
			}
			return nil
		}
		inst.Verify = func() error {
			for f := 0; f < frames; f++ {
				want := make([]uint32, regions*kTemplates)
				for rgn := 0; rgn < regions; rgn++ {
					for t := 0; t < kTemplates; t++ {
						var sum uint32
						for i := 0; i < 256; i++ {
							d := imgs[f][rgn*256+i] - tmpl[t*256+i]
							sum += d * d
						}
						want[rgn*kTemplates+t] = sum
					}
				}
				if err := checkU32(m, ssdBs[f], want, "htw ssd"); err != nil {
					return err
				}
			}
			return nil
		}
		return inst
	})
}

// ---------------------------------------------------------------------------
// mriq — MRI Q-matrix computation (Parboil mri-q): per-pixel loop over the
// k-space samples held in constant memory; transcendental-heavy with a tiny
// global-load fraction, exactly the profile Table I shows for mriq.
// ---------------------------------------------------------------------------

const mriqSrc = `
.kernel mriq
.param .u32 xpos
.param .u32 ypos
.param .u32 zpos
.param .u32 kbase
.param .u32 qr
.param .u32 qi
.param .u32 numK
.param .u32 numX
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // pixel
    ld.param.u32 %r32, [numX];
    setp.ge.u32  %p1, %r2, %r32;
@%p1 bra DONE;
    shl.u32      %r3, %r2, 2;
    ld.param.u32 %r4, [xpos];
    add.u32      %r5, %r4, %r3;
    ld.global.f32 %r6, [%r5];             // x
    ld.param.u32 %r7, [ypos];
    add.u32      %r8, %r7, %r3;
    ld.global.f32 %r9, [%r8];             // y
    ld.param.u32 %r10, [zpos];
    add.u32      %r11, %r10, %r3;
    ld.global.f32 %r12, [%r11];           // z
    ld.param.u32 %r13, [kbase];           // constant-space sample table
    ld.param.u32 %r14, [numK];
    mov.f32      %r15, 0.0;               // Qr
    mov.f32      %r16, 0.0;               // Qi
    mov.u32      %r17, 0;                 // k
LOOP:
    setp.ge.u32  %p0, %r17, %r14;
@%p0 bra STORE;
    mul.u32      %r18, %r17, 20;          // 5 floats per sample
    add.u32      %r19, %r13, %r18;
    ld.const.f32 %r20, [%r19];            // kx
    ld.const.f32 %r21, [%r19+4];          // ky
    ld.const.f32 %r22, [%r19+8];          // kz
    ld.const.f32 %r23, [%r19+12];         // phiR
    ld.const.f32 %r24, [%r19+16];         // phiI
    mul.f32      %r25, %r20, %r6;
    mad.f32      %r25, %r21, %r9, %r25;
    mad.f32      %r25, %r22, %r12, %r25;  // kx*x + ky*y + kz*z
    mul.f32      %r25, %r25, 6.2831853;   // 2*pi*arg
    cos.f32      %r26, %r25;
    sin.f32      %r27, %r25;
    mad.f32      %r15, %r23, %r26, %r15;  // Qr += phiR*cos
    mad.f32      %r16, %r24, %r27, %r16;  // Qi += phiI*sin
    add.u32      %r17, %r17, 1;
    bra LOOP;
STORE:
    ld.param.u32 %r28, [qr];
    add.u32      %r29, %r28, %r3;
    st.global.f32 [%r29], %r15;
    ld.param.u32 %r30, [qi];
    add.u32      %r31, %r30, %r3;
    st.global.f32 [%r31], %r16;
DONE:
    exit;
`

func init() {
	register(&Workload{
		Name:        "mriq",
		Category:    Image,
		Description: "MRI Q-matrix calibration, sin/cos heavy (Parboil mri-q)",
		DataSet:     "16384 pixels × 256 k-space samples",
		Size:        sizeKnob("pixels", 1, 16384, 2900000),
		src:         mriqSrc, salt: 8,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		numK := 256
		if n < 1024 {
			numK = 64
		}
		k := prog.MustKernel("mriq")

		x := randF32s(rng, n, -1, 1)
		y := randF32s(rng, n, -1, 1)
		z := randF32s(rng, n, -1, 1)
		samples := randF32s(rng, numK*5, -0.5, 0.5)
		xB, yB, zB := m.AllocF32s(x), m.AllocF32s(y), m.AllocF32s(z)
		kB := m.AllocF32s(samples)
		qrB := m.Alloc(uint32(4 * n))
		qiB := m.Alloc(uint32(4 * n))

		inst := &Instance{
			CTAs:          grid1D(n, 256),
			ThreadsPerCTA: 256,
		}
		inst.Run = func(exec Executor) error {
			return exec(launch1D(k, n, 256, xB, yB, zB, kB, qrB, qiB, uint32(numK), uint32(n)))
		}
		inst.Verify = func() error {
			wantR := make([]float32, n)
			wantI := make([]float32, n)
			for i := 0; i < n; i++ {
				var qr, qi float32
				for kk := 0; kk < numK; kk++ {
					s := samples[kk*5:]
					arg := s[0]*x[i] + s[1]*y[i]
					arg = s[2]*z[i] + arg
					arg = arg * 6.2831853
					qr = s[3]*float32(math.Cos(float64(arg))) + qr
					qi = s[4]*float32(math.Sin(float64(arg))) + qi
				}
				wantR[i], wantI[i] = qr, qi
			}
			if err := checkF32(m, qrB, wantR, 1e-2, "mriq qr"); err != nil {
				return err
			}
			return checkF32(m, qiB, wantI, 1e-2, "mriq qi")
		}
		return inst
	})
}

// ---------------------------------------------------------------------------
// bpr — back-propagation layer-forward (Rodinia backprop): each 16×16 CTA
// stages 16 input units in shared memory, multiplies by the weight tile, and
// tree-reduces partial sums per hidden unit.
// ---------------------------------------------------------------------------

const bprSrc = `
.kernel bpr_forward
.param .u32 input
.param .u32 weights
.param .u32 partial
.param .u32 hid
.shared 1088
    mov.u32      %r0, %tid.x;             // hidden index j (0..15)
    mov.u32      %r1, %tid.y;             // row within tile (0..15)
    mov.u32      %r2, %ctaid.x;           // input tile
    mov.u32      %r3, 16;
    mad.u32      %r4, %r2, %r3, %r1;      // global input index i
    // One column of threads stages the input tile into shared[0..63].
    setp.ne.u32  %p0, %r0, 0;
@%p0 bra WAIT;
    ld.param.u32 %r5, [input];
    shl.u32      %r6, %r4, 2;
    add.u32      %r7, %r5, %r6;
    ld.global.f32 %r8, [%r7];             // input[i]
    shl.u32      %r9, %r1, 2;
    st.shared.f32 [%r9], %r8;
WAIT:
    bar.sync;
    // Each thread: partial = input[i] * w[i*hid + j], staged at
    // shared[64 + (ty*16+tx)].
    shl.u32      %r10, %r1, 2;
    ld.shared.f32 %r11, [%r10];           // input[i] from shared
    ld.param.u32 %r12, [weights];
    ld.param.u32 %r13, [hid];
    mad.u32      %r14, %r4, %r13, %r0;    // i*hid + j
    shl.u32      %r15, %r14, 2;
    add.u32      %r16, %r12, %r15;
    ld.global.f32 %r17, [%r16];           // w[i][j]
    mul.f32      %r18, %r11, %r17;
    mad.u32      %r19, %r1, %r3, %r0;     // ty*16 + tx
    shl.u32      %r20, %r19, 2;
    add.u32      %r21, %r20, 64;
    st.shared.f32 [%r21], %r18;
    bar.sync;
    // Tree reduction over ty for each j.
    mov.u32      %r22, 8;                 // stride over rows
RED:
    setp.eq.u32  %p1, %r22, 0;
@%p1 bra WRITE;
    setp.ge.u32  %p2, %r1, %r22;
@%p2 bra SKIP;
    add.u32      %r23, %r1, %r22;
    mad.u32      %r24, %r23, %r3, %r0;
    shl.u32      %r25, %r24, 2;
    add.u32      %r26, %r25, 64;
    ld.shared.f32 %r27, [%r26];
    ld.shared.f32 %r28, [%r21];
    add.f32      %r29, %r27, %r28;
    st.shared.f32 [%r21], %r29;
SKIP:
    bar.sync;
    shr.u32      %r22, %r22, 1;
    bra RED;
WRITE:
    setp.ne.u32  %p3, %r1, 0;
@%p3 bra EXIT;
    shl.u32      %r30, %r0, 2;
    add.u32      %r31, %r30, 64;
    ld.shared.f32 %r32, [%r31];           // column sum for hidden j
    ld.param.u32 %r33, [partial];
    mad.u32      %r34, %r2, %r13, %r0;    // tile*hid + j
    shl.u32      %r35, %r34, 2;
    add.u32      %r36, %r33, %r35;
    st.global.f32 [%r36], %r32;
EXIT:
    exit;

.kernel bpr_adjust
.param .u32 weights
.param .u32 input
.param .u32 delta
.param .u32 hid
.param .u32 nin
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // weight index i*hid + j
    ld.param.u32 %r3, [hid];
    ld.param.u32 %r4, [nin];
    mul.u32      %r5, %r3, %r4;
    setp.ge.u32  %p0, %r2, %r5;
@%p0 bra EXIT;
    div.u32      %r6, %r2, %r3;           // i
    rem.u32      %r7, %r2, %r3;           // j
    ld.param.u32 %r8, [input];
    shl.u32      %r9, %r6, 2;
    add.u32      %r10, %r8, %r9;
    ld.global.f32 %r11, [%r10];           // input[i]
    ld.param.u32 %r12, [delta];
    shl.u32      %r13, %r7, 2;
    add.u32      %r14, %r12, %r13;
    ld.global.f32 %r15, [%r14];           // delta[j]
    ld.param.u32 %r16, [weights];
    shl.u32      %r17, %r2, 2;
    add.u32      %r18, %r16, %r17;
    ld.global.f32 %r19, [%r18];           // w[i][j]
    mul.f32      %r20, %r11, %r15;
    mad.f32      %r21, %r20, 0.3, %r19;   // w += eta*delta*input
    st.global.f32 [%r18], %r21;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "bpr",
		Category:    Image,
		Description: "neural-net layer forward + weight adjust (Rodinia backprop)",
		DataSet:     "65536 input units × 16 hidden units",
		Size:        sizeKnob("input units", 1, 65536, 620000),
		src:         bprSrc, salt: 9,
	}, func(nin int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		const hid = 16
		fwd := prog.MustKernel("bpr_forward")
		adj := prog.MustKernel("bpr_adjust")

		// The forward kernel reads whole 16-row tiles; zero rows pad the last.
		tiles := grid1D(nin, 16)
		pad := tiles*16 - nin
		input := append(randF32s(rng, nin, 0, 1), make([]float32, pad)...)
		weights := append(randF32s(rng, nin*hid, -0.5, 0.5), make([]float32, pad*hid)...)
		delta := randF32s(rng, hid, -0.1, 0.1)
		inB := m.AllocF32s(input)
		wB := m.AllocF32s(weights)
		dB := m.AllocF32s(delta)
		partB := m.Alloc(uint32(4 * tiles * hid))

		inst := &Instance{
			CTAs:          tiles,
			ThreadsPerCTA: 256,
		}
		inst.Run = func(exec Executor) error {
			// Grid: one 16×16 CTA per 16-row input tile.
			fl := launch2D(fwd, nin, 16, 16, 16, inB, wB, partB, hid)
			if err := exec(fl); err != nil {
				return err
			}
			return exec(launch1D(adj, nin*hid, 256, wB, inB, dB, hid, uint32(nin)))
		}
		inst.Verify = func() error {
			// Partial sums per tile.
			want := make([]float32, tiles*hid)
			for t := 0; t < tiles; t++ {
				for j := 0; j < hid; j++ {
					// Tree reduction order: stride 8,4,2,1 over 16 rows.
					var vals [16]float32
					for r := 0; r < 16; r++ {
						i := t*16 + r
						vals[r] = input[i] * weights[i*hid+j]
					}
					for stride := 8; stride > 0; stride /= 2 {
						for r := 0; r < stride; r++ {
							vals[r] = vals[r+stride] + vals[r]
						}
					}
					want[t*hid+j] = vals[0]
				}
			}
			if err := checkF32(m, partB, want, 1e-3, "bpr partial"); err != nil {
				return err
			}
			// Adjusted weights.
			wantW := make([]float32, nin*hid)
			for i := 0; i < nin; i++ {
				for j := 0; j < hid; j++ {
					wantW[i*hid+j] = input[i]*delta[j]*0.3 + weights[i*hid+j]
				}
			}
			return checkF32(m, wB, wantW, 1e-3, "bpr weights")
		}
		return inst
	})
}

// ---------------------------------------------------------------------------
// srad — speckle-reducing anisotropic diffusion (Rodinia srad): neighbour
// offsets come from precomputed index arrays, so the J/c loads through them
// are non-deterministic — the small sliver Figure 1 shows for srad.
// ---------------------------------------------------------------------------

const sradSrc = `
.kernel srad1
.param .u32 J
.param .u32 dN
.param .u32 dS
.param .u32 dW
.param .u32 dE
.param .u32 cArr
.param .u32 iN
.param .u32 iS
.param .u32 jW
.param .u32 jE
.param .u32 cols
.param .u32 size
.param .f32 q0sqr
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // cell
    ld.param.u32 %r3, [size];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [cols];
    div.u32      %r5, %r2, %r4;           // row
    rem.u32      %r6, %r2, %r4;           // col
    ld.param.u32 %r7, [J];
    shl.u32      %r8, %r2, 2;
    add.u32      %r9, %r7, %r8;
    ld.global.f32 %r10, [%r9];            // Jc (deterministic)
    // North: row index from the iN table.
    ld.param.u32 %r11, [iN];
    shl.u32      %r12, %r5, 2;
    add.u32      %r13, %r11, %r12;
    ld.global.u32 %r14, [%r13];           // iN[row] (deterministic)
    mad.u32      %r15, %r14, %r4, %r6;
    shl.u32      %r16, %r15, 2;
    add.u32      %r17, %r7, %r16;
    ld.global.f32 %r18, [%r17];           // J[iN[row]][col] (non-det)
    sub.f32      %r18, %r18, %r10;        // dN
    // South.
    ld.param.u32 %r19, [iS];
    add.u32      %r20, %r19, %r12;
    ld.global.u32 %r21, [%r20];
    mad.u32      %r22, %r21, %r4, %r6;
    shl.u32      %r23, %r22, 2;
    add.u32      %r24, %r7, %r23;
    ld.global.f32 %r25, [%r24];
    sub.f32      %r25, %r25, %r10;        // dS
    // West.
    ld.param.u32 %r26, [jW];
    shl.u32      %r27, %r6, 2;
    add.u32      %r28, %r26, %r27;
    ld.global.u32 %r29, [%r28];
    mad.u32      %r30, %r5, %r4, %r29;
    shl.u32      %r31, %r30, 2;
    add.u32      %r32, %r7, %r31;
    ld.global.f32 %r33, [%r32];
    sub.f32      %r33, %r33, %r10;        // dW
    // East.
    ld.param.u32 %r34, [jE];
    add.u32      %r35, %r34, %r27;
    ld.global.u32 %r36, [%r35];
    mad.u32      %r37, %r5, %r4, %r36;
    shl.u32      %r38, %r37, 2;
    add.u32      %r39, %r7, %r38;
    ld.global.f32 %r40, [%r39];
    sub.f32      %r40, %r40, %r10;        // dE
    // G2 = (dN^2+dS^2+dW^2+dE^2) / Jc^2 ; L = (dN+dS+dW+dE)/Jc
    mul.f32      %r41, %r18, %r18;
    mad.f32      %r41, %r25, %r25, %r41;
    mad.f32      %r41, %r33, %r33, %r41;
    mad.f32      %r41, %r40, %r40, %r41;
    mul.f32      %r42, %r10, %r10;
    div.f32      %r41, %r41, %r42;        // G2
    add.f32      %r43, %r18, %r25;
    add.f32      %r43, %r43, %r33;
    add.f32      %r43, %r43, %r40;
    div.f32      %r43, %r43, %r10;        // L
    mul.f32      %r44, %r41, 0.5;
    mul.f32      %r45, %r43, %r43;
    mul.f32      %r45, %r45, 0.0625;
    sub.f32      %r44, %r44, %r45;        // num
    mul.f32      %r46, %r43, 0.25;
    add.f32      %r46, %r46, 1.0;         // den
    mul.f32      %r47, %r46, %r46;
    div.f32      %r48, %r44, %r47;        // qsqr
    ld.param.f32 %r49, [q0sqr];
    sub.f32      %r50, %r48, %r49;
    add.f32      %r51, %r49, 1.0;
    mul.f32      %r52, %r49, %r51;
    div.f32      %r53, %r50, %r52;
    add.f32      %r54, %r53, 1.0;
    rcp.f32      %r55, %r54;              // c = 1/(1 + ...)
    max.f32      %r55, %r55, 0.0;
    min.f32      %r55, %r55, 1.0;
    // Store c and the four gradients.
    ld.param.u32 %r56, [cArr];
    add.u32      %r57, %r56, %r8;
    st.global.f32 [%r57], %r55;
    ld.param.u32 %r58, [dN];
    add.u32      %r59, %r58, %r8;
    st.global.f32 [%r59], %r18;
    ld.param.u32 %r60, [dS];
    add.u32      %r61, %r60, %r8;
    st.global.f32 [%r61], %r25;
    ld.param.u32 %r62, [dW];
    add.u32      %r63, %r62, %r8;
    st.global.f32 [%r63], %r33;
    ld.param.u32 %r64, [dE];
    add.u32      %r65, %r64, %r8;
    st.global.f32 [%r65], %r40;
EXIT:
    exit;

.kernel srad2
.param .u32 J
.param .u32 dN
.param .u32 dS
.param .u32 dW
.param .u32 dE
.param .u32 cArr
.param .u32 iS
.param .u32 jE
.param .u32 cols
.param .u32 size
.param .f32 lambda
    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.u32      %r2, %r0, %r1, %tid.x;   // cell
    ld.param.u32 %r3, [size];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [cols];
    div.u32      %r5, %r2, %r4;           // row
    rem.u32      %r6, %r2, %r4;           // col
    ld.param.u32 %r7, [cArr];
    shl.u32      %r8, %r2, 2;
    add.u32      %r9, %r7, %r8;
    ld.global.f32 %r10, [%r9];            // cN = cW = c[cell] (deterministic)
    // cS = c[iS[row]][col] (non-deterministic).
    ld.param.u32 %r11, [iS];
    shl.u32      %r12, %r5, 2;
    add.u32      %r13, %r11, %r12;
    ld.global.u32 %r14, [%r13];
    mad.u32      %r15, %r14, %r4, %r6;
    shl.u32      %r16, %r15, 2;
    add.u32      %r17, %r7, %r16;
    ld.global.f32 %r18, [%r17];           // cS
    // cE = c[row][jE[col]] (non-deterministic).
    ld.param.u32 %r19, [jE];
    shl.u32      %r20, %r6, 2;
    add.u32      %r21, %r19, %r20;
    ld.global.u32 %r22, [%r21];
    mad.u32      %r23, %r5, %r4, %r22;
    shl.u32      %r24, %r23, 2;
    add.u32      %r25, %r7, %r24;
    ld.global.f32 %r26, [%r25];           // cE
    // D = cN*dN + cS*dS + cW*dW + cE*dE
    ld.param.u32 %r27, [dN];
    add.u32      %r28, %r27, %r8;
    ld.global.f32 %r29, [%r28];
    ld.param.u32 %r30, [dS];
    add.u32      %r31, %r30, %r8;
    ld.global.f32 %r32, [%r31];
    ld.param.u32 %r33, [dW];
    add.u32      %r34, %r33, %r8;
    ld.global.f32 %r35, [%r34];
    ld.param.u32 %r36, [dE];
    add.u32      %r37, %r36, %r8;
    ld.global.f32 %r38, [%r37];
    mul.f32      %r39, %r10, %r29;        // cN*dN
    mad.f32      %r39, %r18, %r32, %r39;  // + cS*dS
    mad.f32      %r39, %r10, %r35, %r39;  // + cW*dW
    mad.f32      %r39, %r26, %r38, %r39;  // + cE*dE
    // J += 0.25 * lambda * D
    ld.param.f32 %r40, [lambda];
    mul.f32      %r41, %r40, 0.25;
    ld.param.u32 %r42, [J];
    add.u32      %r43, %r42, %r8;
    ld.global.f32 %r44, [%r43];
    mad.f32      %r45, %r41, %r39, %r44;
    st.global.f32 [%r43], %r45;
EXIT:
    exit;
`

func init() {
	register(&Workload{
		Name:        "srad",
		Category:    Image,
		Description: "speckle-reducing anisotropic diffusion (Rodinia srad)",
		DataSet:     "256×256 float image, 4 iterations",
		Size:        sizeKnob("image edge in pixels", 1, 256, 1950),
		src:         sradSrc, salt: 10,
	}, func(n int, rng *rand.Rand, m *mem.Memory, prog *ptx.Program) *Instance {
		const iters = 4
		const lambda = float32(0.5)
		k1 := prog.MustKernel("srad1")
		k2 := prog.MustKernel("srad2")

		size := n * n
		j := randF32s(rng, size, 1, 2) // exp-scaled image, strictly positive
		iN := make([]uint32, n)
		iS := make([]uint32, n)
		jW := make([]uint32, n)
		jE := make([]uint32, n)
		for i := 0; i < n; i++ {
			iN[i], iS[i], jW[i], jE[i] = uint32(i-1), uint32(i+1), uint32(i-1), uint32(i+1)
		}
		iN[0], jW[0] = 0, 0
		iS[n-1], jE[n-1] = uint32(n-1), uint32(n-1)

		jB := m.AllocF32s(j)
		dNB := m.Alloc(uint32(4 * size))
		dSB := m.Alloc(uint32(4 * size))
		dWB := m.Alloc(uint32(4 * size))
		dEB := m.Alloc(uint32(4 * size))
		cB := m.Alloc(uint32(4 * size))
		iNB, iSB, jWB, jEB := m.AllocU32s(iN), m.AllocU32s(iS), m.AllocU32s(jW), m.AllocU32s(jE)

		const q0sqr = float32(0.05)

		inst := &Instance{
			CTAs:          grid1D(size, 256),
			ThreadsPerCTA: 256,
		}
		inst.Run = func(exec Executor) error {
			for it := 0; it < iters; it++ {
				if err := exec(launch1D(k1, size, 256,
					jB, dNB, dSB, dWB, dEB, cB, iNB, iSB, jWB, jEB,
					uint32(n), uint32(size), f32bits(q0sqr))); err != nil {
					return err
				}
				if err := exec(launch1D(k2, size, 256,
					jB, dNB, dSB, dWB, dEB, cB, iSB, jEB,
					uint32(n), uint32(size), f32bits(lambda))); err != nil {
					return err
				}
			}
			return nil
		}
		inst.Verify = func() error {
			ref := append([]float32(nil), j...)
			dN := make([]float32, size)
			dS := make([]float32, size)
			dW := make([]float32, size)
			dE := make([]float32, size)
			c := make([]float32, size)
			for it := 0; it < iters; it++ {
				for cell := 0; cell < size; cell++ {
					r, cc := cell/n, cell%n
					jc := ref[cell]
					dN[cell] = ref[int(iN[r])*n+cc] - jc
					dS[cell] = ref[int(iS[r])*n+cc] - jc
					dW[cell] = ref[r*n+int(jW[cc])] - jc
					dE[cell] = ref[r*n+int(jE[cc])] - jc
					g2 := (dN[cell]*dN[cell] + dS[cell]*dS[cell] + dW[cell]*dW[cell] + dE[cell]*dE[cell]) / (jc * jc)
					l := (dN[cell] + dS[cell] + dW[cell] + dE[cell]) / jc
					num := g2*0.5 - l*l*0.0625
					den := l*0.25 + 1
					qsqr := num / (den * den)
					cv := 1 / ((qsqr-q0sqr)/(q0sqr*(q0sqr+1)) + 1)
					if cv < 0 {
						cv = 0
					}
					if cv > 1 {
						cv = 1
					}
					c[cell] = cv
				}
				for cell := 0; cell < size; cell++ {
					r, cc := cell/n, cell%n
					d := c[cell]*dN[cell] + c[int(iS[r])*n+cc]*dS[cell] +
						c[cell]*dW[cell] + c[r*n+int(jE[cc])]*dE[cell]
					ref[cell] += lambda * 0.25 * d
				}
			}
			return checkF32(m, jB, ref, 1e-2, "srad J")
		}
		return inst
	})
}
