package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"critload/internal/memreq"
)

func smallCfg() Config {
	return Config{
		Bytes: 1024, LineBytes: 128, Ways: 2, // 4 sets × 2 ways
		MSHREntries: 4, MSHRTargets: 2, HitLatency: 10,
	}
}

func req(block uint32) *memreq.Request {
	return &memreq.Request{Block: block, Kind: memreq.Load}
}

func alwaysInject() bool { return true }
func neverInject() bool  { return false }

func TestMissThenFillThenHit(t *testing.T) {
	c := MustNew(smallCfg())
	r := req(0x1000)
	if o := c.Access(r, 0, alwaysInject); o != Miss {
		t.Fatalf("first access = %v, want miss", o)
	}
	targets := c.Fill(0x1000, 50)
	if len(targets) != 1 || targets[0] != r {
		t.Fatalf("fill targets = %v", targets)
	}
	if o := c.Access(req(0x1000), 60, alwaysInject); o != Hit {
		t.Errorf("post-fill access = %v, want hit", o)
	}
	if !c.Contains(0x1000) {
		t.Errorf("Contains(0x1000) = false after fill")
	}
}

func TestHitReservedMergesIntoMSHR(t *testing.T) {
	c := MustNew(smallCfg())
	r1, r2 := req(0x1000), req(0x1000)
	if o := c.Access(r1, 0, alwaysInject); o != Miss {
		t.Fatalf("r1 = %v", o)
	}
	if o := c.Access(r2, 1, alwaysInject); o != HitReserved {
		t.Fatalf("r2 = %v, want hit-reserved", o)
	}
	// Target list is now full (MSHRTargets=2): a third access must fail.
	if o := c.Access(req(0x1000), 2, alwaysInject); o != RsrvFailMSHR {
		t.Errorf("r3 = %v, want rsrv-fail-mshr", o)
	}
	targets := c.Fill(0x1000, 100)
	if len(targets) != 2 || targets[0] != r1 || targets[1] != r2 {
		t.Errorf("fill returned %d targets, primary first? %v", len(targets), targets[0] == r1)
	}
}

func TestRsrvFailTagWhenAllWaysInFlight(t *testing.T) {
	c := MustNew(smallCfg())
	// Set index = (block/128) % 4. Blocks mapping to set 0: 0, 512, 1024...
	if o := c.Access(req(0), 0, alwaysInject); o != Miss {
		t.Fatalf("miss 1 = %v", o)
	}
	if o := c.Access(req(512), 0, alwaysInject); o != Miss {
		t.Fatalf("miss 2 = %v", o)
	}
	// Both ways of set 0 reserved: a third distinct block in set 0 cannot
	// allocate a tag.
	if o := c.Access(req(1024), 0, alwaysInject); o != RsrvFailTag {
		t.Errorf("third = %v, want rsrv-fail-tag", o)
	}
	// After one fill the way becomes evictable.
	c.Fill(0, 10)
	if o := c.Access(req(1024), 20, alwaysInject); o != Miss {
		t.Errorf("after fill = %v, want miss", o)
	}
}

func TestRsrvFailMSHRWhenEntriesExhausted(t *testing.T) {
	cfg := smallCfg()
	cfg.MSHREntries = 2
	c := MustNew(cfg)
	// Two misses to different sets allocate both MSHR entries.
	if o := c.Access(req(0), 0, alwaysInject); o != Miss {
		t.Fatal(o)
	}
	if o := c.Access(req(128), 0, alwaysInject); o != Miss {
		t.Fatal(o)
	}
	if o := c.Access(req(256), 0, alwaysInject); o != RsrvFailMSHR {
		t.Errorf("third miss = %v, want rsrv-fail-mshr", o)
	}
	if c.PendingMisses() != 2 {
		t.Errorf("PendingMisses = %d, want 2", c.PendingMisses())
	}
}

func TestRsrvFailICNTLeavesStateUnchanged(t *testing.T) {
	c := MustNew(smallCfg())
	if o := c.Access(req(0x2000), 0, neverInject); o != RsrvFailICNT {
		t.Fatalf("access = %v, want rsrv-fail-icnt", o)
	}
	if c.PendingMisses() != 0 {
		t.Errorf("MSHR allocated despite injection failure")
	}
	// Retry succeeds once injection is possible.
	if o := c.Access(req(0x2000), 1, alwaysInject); o != Miss {
		t.Errorf("retry = %v, want miss", o)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(smallCfg())
	// Fill both ways of set 0 with valid lines.
	for i, b := range []uint32{0, 512} {
		c.Access(req(b), int64(i), alwaysInject)
		c.Fill(b, int64(i)+1)
	}
	// Touch block 0 so 512 becomes LRU.
	c.Access(req(0), 100, alwaysInject)
	// New block in set 0 evicts 512.
	if o := c.Access(req(1024), 200, alwaysInject); o != Miss {
		t.Fatalf("miss expected, got %v", o)
	}
	c.Fill(1024, 201)
	if !c.Contains(0) || c.Contains(512) || !c.Contains(1024) {
		t.Errorf("LRU eviction wrong: 0=%v 512=%v 1024=%v",
			c.Contains(0), c.Contains(512), c.Contains(1024))
	}
}

func TestInvalidateAllKeepsReservations(t *testing.T) {
	c := MustNew(smallCfg())
	c.Access(req(0), 0, alwaysInject)
	c.Fill(0, 1)
	c.Access(req(128), 2, alwaysInject) // in flight
	c.InvalidateAll()
	if c.Contains(0) {
		t.Errorf("valid line survived InvalidateAll")
	}
	// The in-flight line must still fill without panicking.
	targets := c.Fill(128, 10)
	if len(targets) != 1 {
		t.Errorf("reserved line lost by InvalidateAll")
	}
}

func TestOutcomeCounters(t *testing.T) {
	c := MustNew(smallCfg())
	c.Access(req(0), 0, alwaysInject) // miss
	c.Access(req(0), 1, alwaysInject) // hit-reserved
	c.Fill(0, 2)
	c.Access(req(0), 3, alwaysInject) // hit
	c.Access(req(0), 4, alwaysInject) // hit again
	if c.Accesses[Miss] != 1 || c.Accesses[HitReserved] != 1 || c.Accesses[Hit] != 2 {
		t.Errorf("counters = %v", c.Accesses)
	}
	if c.FillCount != 1 {
		t.Errorf("FillCount = %d", c.FillCount)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Bytes: 1000, LineBytes: 128, Ways: 3, MSHREntries: 1, MSHRTargets: 1},
		{Bytes: 1024, LineBytes: 128, Ways: 2, MSHREntries: 0, MSHRTargets: 1},
		{Bytes: 1024, LineBytes: 128, Ways: 2, MSHREntries: maxMSHREntries + 1, MSHRTargets: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated unexpectedly", i)
		}
	}
	if _, err := New(smallCfg()); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// Property test: under random accesses and fills, MSHR count never exceeds
// the configured entries, every accepted miss is eventually fillable, and
// accepted outcomes never exceed the invariants of the structure.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Bytes: 2048, LineBytes: 128, Ways: 1 + rng.Intn(4),
			MSHREntries: 1 + rng.Intn(6), MSHRTargets: 1 + rng.Intn(3),
			HitLatency: 1,
		}
		for (cfg.Bytes/cfg.LineBytes)%cfg.Ways != 0 {
			cfg.Ways = 1 + rng.Intn(4)
		}
		c := MustNew(cfg)
		var inflight []uint32
		for step := 0; step < 500; step++ {
			if len(inflight) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(inflight))
				b := inflight[i]
				inflight = append(inflight[:i], inflight[i+1:]...)
				if got := c.Fill(b, int64(step)); len(got) == 0 {
					return false // fill must return at least the primary miss
				}
				continue
			}
			b := uint32(rng.Intn(16)) * 128
			o := c.Access(req(b), int64(step), alwaysInject)
			if o == Miss {
				inflight = append(inflight, b)
			}
			if c.PendingMisses() > cfg.MSHREntries {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// l1Cfg is Table II's L1 (sm.DefaultConfig().L1).
func l1Cfg() Config {
	return Config{Bytes: 16 * 1024, LineBytes: 128, Ways: 4, MSHREntries: 64, MSHRTargets: 8, HitLatency: 18}
}

// TestCacheAccessFillDoesNotAllocate pins the MSHR slab: once warm, a miss,
// a merge, a fill and a hit allocate nothing.
func TestCacheAccessFillDoesNotAllocate(t *testing.T) {
	c := MustNew(l1Cfg())
	r1, r2, r3 := req(0), req(0), req(0)
	i := 0
	cycle := func() {
		block := uint32(i%512) * 128
		r1.Block, r2.Block, r3.Block = block, block, block
		now := int64(4 * i)
		if c.Access(r1, now, alwaysInject) != Miss || c.Access(r2, now+1, alwaysInject) != HitReserved {
			t.Fatal("want a miss then a hit-reserved")
		}
		if got := c.Fill(block, now+2); len(got) != 2 {
			t.Fatalf("fill returned %d targets, want 2", len(got))
		}
		if c.Access(r3, now+3, alwaysInject) != Hit {
			t.Fatal("want a hit after the fill")
		}
		i++
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("Access/Fill allocate %v times per miss", n)
	}
}

func BenchmarkL1AccessFill(b *testing.B) {
	c := MustNew(l1Cfg())
	reqs := make([]*memreq.Request, 16)
	for i := range reqs {
		reqs[i] = req(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Sixteen misses in flight across the sets, each merged once and
		// filled, then hit: the MSHR file's steady state.
		now := int64(4 * i)
		for j, r := range reqs {
			r.Block = uint32((16*i+j)%512) * 128
			c.Access(r, now, alwaysInject)
		}
		for _, r := range reqs {
			c.Access(r, now+1, alwaysInject)
		}
		for _, r := range reqs {
			c.Fill(r.Block, now+2)
		}
		for _, r := range reqs {
			c.Access(r, now+3, alwaysInject)
		}
	}
}
