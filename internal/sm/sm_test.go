package sm

import (
	"strings"
	"testing"

	"critload/internal/emu"
	"critload/internal/isa"
	"critload/internal/mem"
	"critload/internal/memreq"
	"critload/internal/ptx"
	"critload/internal/stats"
)

// mockBackend satisfies Backend with an unlimited request network; injected
// requests are collected and can be answered manually.
type mockBackend struct {
	injected []*memreq.Request
	blocked  bool // when true, CanInject refuses
	finished int
}

func (m *mockBackend) CanInject(smID int) bool { return !m.blocked }

func (m *mockBackend) Inject(r *memreq.Request, flits int64, now int64) {
	m.injected = append(m.injected, r)
}

func (m *mockBackend) PartitionOf(smID int, block uint32) int { return int(block/128) % 6 }

func (m *mockBackend) CTAFinished(smID int, cta *emu.CTA) { m.finished++ }

func testLat() LatencyModel {
	return LatencyModel{L1Hit: 18, L2Hit: 154, DRAM: 254, Icnt: 8}
}

func newTestSM(t *testing.T) (*SM, *mockBackend, *stats.Collector) {
	t.Helper()
	mb := &mockBackend{}
	col := stats.New()
	s, err := New(0, DefaultConfig(), testLat(), mb, col)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, mb, col
}

func mustKernel(t *testing.T, src string) *ptx.Kernel {
	t.Helper()
	prog, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return prog.Kernels[0]
}

// launchOn sets up a kernel context and assigns CTA 0 to the SM.
func launchOn(t *testing.T, s *SM, k *ptx.Kernel, block int, params ...uint32) *emu.Launch {
	t.Helper()
	l := &emu.Launch{Kernel: k, Grid: emu.Dim1(1), Block: emu.Dim1(block), Params: params}
	if err := l.Validate(); err != nil {
		t.Fatalf("launch: %v", err)
	}
	env := &emu.Env{Mem: mem.New(), Launch: l}
	s.SetKernel(env, k.Name, nil)
	if !s.CanAccept(l) {
		t.Fatalf("SM cannot accept CTA")
	}
	s.LaunchCTA(l, 0)
	return l
}

// run advances the SM until idle or maxCycles.
func run(t *testing.T, s *SM, maxCycles int64) int64 {
	t.Helper()
	for cyc := int64(0); cyc < maxCycles; cyc++ {
		if err := s.Step(cyc); err != nil {
			t.Fatalf("Step(%d): %v", cyc, err)
		}
		if s.Idle() {
			return cyc
		}
	}
	t.Fatalf("SM not idle after %d cycles", maxCycles)
	return 0
}

func TestALUOnlyKernelRetires(t *testing.T) {
	s, mb, _ := newTestSM(t)
	k := mustKernel(t, `
.kernel alu
    mov.u32 %r0, 1;
    add.u32 %r1, %r0, 2;
    mul.u32 %r2, %r1, %r1;
    exit;
`)
	launchOn(t, s, k, 64)
	run(t, s, 1000)
	if mb.finished != 1 {
		t.Errorf("CTAFinished calls = %d, want 1", mb.finished)
	}
	if s.LiveCTAs() != 0 {
		t.Errorf("LiveCTAs = %d, want 0", s.LiveCTAs())
	}
	// Two warps executed 4 instructions each.
	if s.InstructionsIssued != 8 {
		t.Errorf("InstructionsIssued = %d, want 8", s.InstructionsIssued)
	}
}

func TestScoreboardBlocksRAW(t *testing.T) {
	s, _, _ := newTestSM(t)
	k := mustKernel(t, `
.kernel raw
    mov.u32 %r0, 7;
    add.u32 %r1, %r0, 1;   // RAW on %r0
    add.u32 %r2, %r1, 1;   // RAW on %r1
    exit;
`)
	launchOn(t, s, k, 32)
	// With SPLatency 4 and back-to-back dependencies, the warp needs at
	// least ~3 × SPLatency cycles; without a scoreboard it would finish in 4.
	finished := run(t, s, 1000)
	if finished < 3*s.cfg.SPLatency {
		t.Errorf("kernel finished in %d cycles; scoreboard not enforcing RAW delays", finished)
	}
}

func TestGlobalLoadMissGoesThroughNetwork(t *testing.T) {
	s, mb, col := newTestSM(t)
	k := mustKernel(t, `
.kernel ld1
.param .u32 a
    mov.u32      %r0, %tid.x;
    shl.u32      %r1, %r0, 2;
    ld.param.u32 %r2, [a];
    add.u32      %r3, %r2, %r1;
    ld.global.u32 %r4, [%r3];
    add.u32      %r5, %r4, 1;
    exit;
`)
	launchOn(t, s, k, 32, 4096)
	// Drive until the load is injected.
	for cyc := int64(0); cyc < 100 && len(mb.injected) == 0; cyc++ {
		if err := s.Step(cyc); err != nil {
			t.Fatal(err)
		}
	}
	if len(mb.injected) != 1 {
		t.Fatalf("injected = %d requests, want 1 (fully coalesced)", len(mb.injected))
	}
	r := mb.injected[0]
	if r.Block != 4096 || r.Kind != memreq.Load {
		t.Errorf("request = %+v", r)
	}
	// Answer the miss; the warp must then finish.
	r.Serviced = memreq.LvlDRAM
	s.HandleReply(r, 500)
	for cyc := int64(501); cyc < 1000; cyc++ {
		if err := s.Step(cyc); err != nil {
			t.Fatal(err)
		}
		if s.Idle() {
			break
		}
	}
	if !s.Idle() {
		t.Fatalf("SM not idle after reply")
	}
	if col.Turnaround[stats.Det].Ops != 1 {
		t.Errorf("turnaround ops = %d, want 1", col.Turnaround[stats.Det].Ops)
	}
	if got := col.Turnaround[stats.Det].Total; got < 400 {
		t.Errorf("turnaround %d cycles, want > 400 (reply at cycle 500)", got)
	}
}

func TestL1HitAfterFill(t *testing.T) {
	s, mb, col := newTestSM(t)
	k := mustKernel(t, `
.kernel ld2
.param .u32 a
    mov.u32      %r0, %tid.x;
    shl.u32      %r1, %r0, 2;
    ld.param.u32 %r2, [a];
    add.u32      %r3, %r2, %r1;
    ld.global.u32 %r4, [%r3];
    add.u32      %r6, %r4, 1;   // stall on the first load's data
    ld.global.u32 %r5, [%r3];   // second access: L1 hit after the fill
    exit;
`)
	launchOn(t, s, k, 32, 8192)
	for cyc := int64(0); cyc < 50; cyc++ {
		if err := s.Step(cyc); err != nil {
			t.Fatal(err)
		}
	}
	if len(mb.injected) != 1 {
		t.Fatalf("injected = %d, want 1 (second load must not miss)", len(mb.injected))
	}
	r := mb.injected[0]
	r.Serviced = memreq.LvlL2
	s.HandleReply(r, 100)
	run(t, s, 1000)
	if col.L1Outcomes[stats.Det][0] == 0 { // cache.Hit == 0
		t.Errorf("no L1 hits recorded; outcomes = %v", col.L1Outcomes[stats.Det])
	}
}

func TestStoresInjectWithoutReply(t *testing.T) {
	s, mb, _ := newTestSM(t)
	k := mustKernel(t, `
.kernel st1
.param .u32 a
    mov.u32      %r0, %tid.x;
    shl.u32      %r1, %r0, 2;
    ld.param.u32 %r2, [a];
    add.u32      %r3, %r2, %r1;
    st.global.u32 [%r3], %r0;
    exit;
`)
	launchOn(t, s, k, 32, 4096)
	run(t, s, 1000) // must retire without any reply
	if len(mb.injected) != 1 || mb.injected[0].Kind != memreq.Store {
		t.Fatalf("injected = %+v, want one store", mb.injected)
	}
}

func TestBlockedNetworkStallsAndRecovers(t *testing.T) {
	s, mb, col := newTestSM(t)
	mb.blocked = true
	k := mustKernel(t, `
.kernel ld3
.param .u32 a
    ld.param.u32 %r0, [a];
    ld.global.u32 %r1, [%r0];
    exit;
`)
	launchOn(t, s, k, 32, 4096)
	for cyc := int64(0); cyc < 50; cyc++ {
		if err := s.Step(cyc); err != nil {
			t.Fatal(err)
		}
	}
	if len(mb.injected) != 0 {
		t.Fatalf("injected despite blocked network")
	}
	// Reservation failures by interconnect must be recorded (Fig 3).
	if col.L1Outcomes[stats.Det][5] == 0 { // cache.RsrvFailICNT == 5
		t.Errorf("no rsrv-fail-icnt outcomes: %v", col.L1Outcomes[stats.Det])
	}
	mb.blocked = false
	for cyc := int64(50); cyc < 100 && len(mb.injected) == 0; cyc++ {
		if err := s.Step(cyc); err != nil {
			t.Fatal(err)
		}
	}
	if len(mb.injected) != 1 {
		t.Fatalf("retry did not inject after unblocking")
	}
}

func TestBarrierSynchronizesWarps(t *testing.T) {
	s, _, _ := newTestSM(t)
	// Two warps; barrier in the middle. The kernel writes shared memory
	// before the barrier and reads another warp's slot after it.
	k := mustKernel(t, `
.kernel bar1
    mov.u32      %r0, %tid.x;
    shl.u32      %r1, %r0, 2;
    st.shared.u32 [%r1], %r0;
    bar.sync;
    mov.u32      %r2, 63;
    sub.u32      %r3, %r2, %r0;     // partner lane
    shl.u32      %r4, %r3, 2;
    ld.shared.u32 %r5, [%r4];
    exit;
`)
	k.SharedBytes = 64 * 4
	launchOn(t, s, k, 64)
	run(t, s, 5000)
	// Completion is the assertion: a broken barrier protocol would deadlock
	// (run fails after maxCycles).
}

func TestUncoalescedLoadGeneratesManyRequests(t *testing.T) {
	s, mb, col := newTestSM(t)
	k := mustKernel(t, `
.kernel scatter
.param .u32 a
    mov.u32      %r0, %tid.x;
    shl.u32      %r1, %r0, 7;       // tid*128: one block per lane
    ld.param.u32 %r2, [a];
    add.u32      %r3, %r2, %r1;
    ld.global.u32 %r4, [%r3];
    exit;
`)
	launchOn(t, s, k, 32, 1<<20)
	for cyc := int64(0); cyc < 200; cyc++ {
		if err := s.Step(cyc); err != nil {
			t.Fatal(err)
		}
	}
	// One access can be presented to the L1 per cycle, so 32 requests need
	// at least 32 cycles to issue — the paper's serialization effect.
	if len(mb.injected) != 32 {
		t.Fatalf("injected = %d, want 32", len(mb.injected))
	}
	if col.Requests[stats.Det] != 32 {
		t.Errorf("requests recorded = %d, want 32", col.Requests[stats.Det])
	}
	first, last := mb.injected[0], mb.injected[31]
	if last.AcceptedL1-first.AcceptedL1 < 31 {
		t.Errorf("acceptance spread = %d cycles, want >= 31 (one per cycle)",
			last.AcceptedL1-first.AcceptedL1)
	}
}

func TestNonDetBypassSkipsL1(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NonDetBypassL1 = true
	mb := &mockBackend{}
	col := stats.New()
	s, err := New(0, cfg, testLat(), mb, col)
	if err != nil {
		t.Fatal(err)
	}
	k := mustKernel(t, `
.kernel bypass
.param .u32 a
    ld.param.u32 %r0, [a];
    ld.global.u32 %r1, [%r0];   // deterministic: normal L1 path
    ld.global.u32 %r2, [%r1];   // non-deterministic: bypasses the L1
    exit;
`)
	l := &emu.Launch{Kernel: k, Grid: emu.Dim1(1), Block: emu.Dim1(32), Params: []uint32{4096}}
	env := &emu.Env{Mem: mem.New(), Launch: l}
	env.Mem.Write32(4096, 8192)
	classify := func(pc uint32) bool { return pc == k.Insts[2].PC }
	s.SetKernel(env, "bypass", classify)
	s.LaunchCTA(l, 0)

	for cyc := int64(0); cyc < 100 && len(mb.injected) < 1; cyc++ {
		if err := s.Step(cyc); err != nil {
			t.Fatal(err)
		}
	}
	if len(mb.injected) != 1 || mb.injected[0].BypassL1 {
		t.Fatalf("first (deterministic) load must use the L1 path")
	}
	mb.injected[0].Serviced = memreq.LvlDRAM
	s.HandleReply(mb.injected[0], 200)
	for cyc := int64(201); cyc < 400 && len(mb.injected) < 2; cyc++ {
		if err := s.Step(cyc); err != nil {
			t.Fatal(err)
		}
	}
	if len(mb.injected) != 2 {
		t.Fatalf("non-deterministic load never injected")
	}
	r := mb.injected[1]
	if !r.BypassL1 {
		t.Fatalf("non-deterministic load did not bypass the L1")
	}
	if s.L1.PendingMisses() != 0 {
		t.Errorf("bypassed load allocated an MSHR")
	}
	r.Serviced = memreq.LvlDRAM
	s.HandleReply(r, 500)
	for cyc := int64(501); cyc < 1000; cyc++ {
		if err := s.Step(cyc); err != nil {
			t.Fatal(err)
		}
		if s.Idle() {
			return
		}
	}
	t.Fatalf("SM did not retire after bypass reply")
}

func TestCTAResourceAccounting(t *testing.T) {
	s, _, _ := newTestSM(t)
	k := mustKernel(t, `
.kernel big
    mov.u32 %r0, 1;
    exit;
`)
	k.SharedBytes = 20 * 1024 // two CTAs exhaust the 48 KB shared memory
	l := &emu.Launch{Kernel: k, Grid: emu.Dim1(4), Block: emu.Dim1(64), Params: nil}
	env := &emu.Env{Mem: mem.New(), Launch: l}
	s.SetKernel(env, "big", nil)
	n := 0
	for s.CanAccept(l) {
		s.LaunchCTA(l, n)
		n++
	}
	if n != 2 {
		t.Errorf("accepted %d CTAs, want 2 (shared-memory limit)", n)
	}
	run(t, s, 1000)
	if !s.CanAccept(l) {
		t.Errorf("resources not released after CTA retirement")
	}
}

func TestSchedulerPoliciesBothFinish(t *testing.T) {
	for _, pol := range []Policy{LRR, GTO} {
		cfg := DefaultConfig()
		cfg.Policy = pol
		mb := &mockBackend{}
		s, err := New(0, cfg, testLat(), mb, stats.New())
		if err != nil {
			t.Fatal(err)
		}
		k := mustKernel(t, `
.kernel p
    mov.u32 %r0, 0;
LOOP:
    add.u32 %r0, %r0, 1;
    setp.lt.u32 %p0, %r0, 50;
@%p0 bra LOOP;
    exit;
`)
		l := &emu.Launch{Kernel: k, Grid: emu.Dim1(1), Block: emu.Dim1(256)}
		env := &emu.Env{Mem: mem.New(), Launch: l}
		s.SetKernel(env, "p", nil)
		s.LaunchCTA(l, 0)
		run(t, s, 100000)
		if s.InstructionsIssued == 0 {
			t.Errorf("%v: nothing issued", pol)
		}
	}
}

func TestUnitOccupancyTracked(t *testing.T) {
	s, _, col := newTestSM(t)
	k := mustKernel(t, `
.kernel sfu
    mov.f32 %r0, 2.0;
    sqrt.f32 %r1, %r0;
    sqrt.f32 %r2, %r1;
    exit;
`)
	launchOn(t, s, k, 32)
	run(t, s, 1000)
	if col.UnitBusy[isa.UnitSFU] == 0 {
		t.Errorf("SFU occupancy never recorded")
	}
	if col.SMCycles == 0 {
		t.Errorf("SM cycles not recorded")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.NumSchedulers = 0
	if _, err := New(0, bad, testLat(), &mockBackend{}, stats.New()); err == nil {
		t.Errorf("invalid config accepted")
	}
	if _, err := New(0, DefaultConfig(), testLat(), nil, stats.New()); err == nil {
		t.Errorf("nil backend accepted")
	}
}

// TestCompleteRequestDoesNotAllocate pins the response path: with the op
// slab, the request pool and the load's per-PC handle warm, a four-request
// load op's life from getOp to its last response allocates nothing.
func TestCompleteRequestDoesNotAllocate(t *testing.T) {
	s, _, col := newTestSM(t)
	s.SetPool(&memreq.Pool{})
	k := mustKernel(t, ".kernel k\n    ld.global.u32 %r0, [%r1];\n    exit;\n")
	l := &emu.Launch{Kernel: k, Grid: emu.Dim1(1), Block: emu.Dim1(32)}
	s.SetKernel(&emu.Env{Mem: mem.New(), Launch: l}, k.Name, nil)
	cc := &ctaCtx{cta: emu.NewCTA(l, 0), hazards: k.Hazards(), warps: make([]warpCtx, 1)}
	wc := &cc.warps[0]
	*wc = warpCtx{w: cc.cta.Warps[0], cta: cc,
		pendingReg: make([]int, k.NumRegs), pendingPred: make([]int, k.NumPreds)}
	now := int64(0)
	opLife := func() {
		op := s.getOp()
		op.kind, op.isLoad, op.warp, op.inst = opGlobalLoad, true, wc, k.Insts[0]
		cc.refs++
		op.issued, op.firstAcc, op.lastAcc = now, now, now+3
		for i := 0; i < 4; i++ {
			r := s.pool.Get()
			r.OpSlot, r.Serviced = op.slot, memreq.LvlL2
			op.reqs = append(op.reqs, r)
		}
		op.pending = len(op.reqs)
		s.inflight += len(op.reqs)
		wc.pendingReg[0]++
		for i, r := range op.reqs {
			r.Returned = now + 200 + int64(i)
			s.completeRequest(r, r.Returned)
		}
		now += 1000
	}
	opLife()
	if n := testing.AllocsPerRun(100, opLife); n != 0 {
		t.Errorf("a load op's completion allocates %v times", n)
	}
	if ops := col.Turnaround[stats.Det].Ops; ops != 102 || !s.Idle() || wc.pendingReg[0] != 0 || cc.refs != 0 {
		t.Errorf("ops recorded = %d, idle = %v, pending = %d, CTA refs = %d; want 102, true, 0, 0",
			ops, s.Idle(), wc.pendingReg[0], cc.refs)
	}
	if p := col.PerPC[stats.PCKey{Kernel: "k", PC: 0}]; p == nil || p.ByNReq[4].Ops != 102 {
		t.Errorf("per-PC entry = %+v, want 102 ops in bucket 4", p)
	}
}

// TestCheckCTA checks the fit of one CTA against an empty SM, one row per
// resource, each naming the resource it exceeds.
func TestCheckCTA(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block int
		tweak func(*Config, *ptx.Kernel)
	}{
		{name: "fits", block: 512},
		{name: "CTA slots", block: 32, tweak: func(c *Config, _ *ptx.Kernel) { c.MaxCTAs = 0 }},
		{name: "threads", block: 1024, tweak: func(c *Config, _ *ptx.Kernel) { c.MaxThreads = 512 }},
		{name: "warps", block: 512, tweak: func(c *Config, _ *ptx.Kernel) { c.MaxWarps = 8 }},
		{name: "shared memory", block: 32, tweak: func(c *Config, k *ptx.Kernel) { k.SharedBytes = c.SharedMemBytes + 4 }},
		{name: "registers", block: 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			k := mustKernel(t, ".kernel k\n    mov.u32 %r63, 1;\n    exit;\n") // 64 registers
			if tc.tweak != nil {
				tc.tweak(&cfg, k)
			}
			l := &emu.Launch{Kernel: k, Grid: emu.Dim1(1), Block: emu.Dim1(tc.block)}
			err := cfg.CheckCTA(l)
			if tc.name == "fits" {
				if err != nil {
					t.Errorf("a fitting CTA rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.name) {
				t.Errorf("error %v, want one naming %s", err, tc.name)
			}
		})
	}
}
