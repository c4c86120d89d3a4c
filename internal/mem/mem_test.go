package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	m.Write32(1024, 0xdeadbeef)
	if got := m.Read32(1024); got != 0xdeadbeef {
		t.Errorf("Read32 = %#x, want 0xdeadbeef", got)
	}
	m.WriteF32(2048, 3.25)
	if got := m.ReadF32(2048); got != 3.25 {
		t.Errorf("ReadF32 = %v, want 3.25", got)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := New()
	if got := m.Read32(123456); got != 0 {
		t.Errorf("unwritten Read32 = %#x, want 0", got)
	}
	if got := m.Read8(99); got != 0 {
		t.Errorf("unwritten Read8 = %#x, want 0", got)
	}
	if m.Footprint() != 0 {
		t.Errorf("reads must not allocate pages, footprint = %d", m.Footprint())
	}
}

func TestPageStraddlingAccess(t *testing.T) {
	m := New()
	addr := uint32(PageSize - 2) // straddles pages 0 and 1
	m.Write32(addr, 0x11223344)
	if got := m.Read32(addr); got != 0x11223344 {
		t.Errorf("straddling Read32 = %#x, want 0x11223344", got)
	}
	if m.Read8(addr) != 0x44 || m.Read8(addr+3) != 0x11 {
		t.Errorf("little-endian layout broken across pages")
	}
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	m := New()
	a := m.Alloc(100)
	b := m.Alloc(1)
	c := m.Alloc(4096)
	for _, base := range []uint32{a, b, c} {
		if base%BlockBytes != 0 {
			t.Errorf("allocation %#x not %d-byte aligned", base, BlockBytes)
		}
		if base == 0 {
			t.Errorf("allocation at address 0")
		}
	}
	if b < a+100 {
		t.Errorf("allocations overlap: a=%#x(+100) b=%#x", a, b)
	}
	if c < b+1 {
		t.Errorf("allocations overlap: b=%#x(+1) c=%#x", b, c)
	}
}

func TestSliceHelpers(t *testing.T) {
	m := New()
	u := []uint32{1, 2, 3, 4, 5}
	base := m.AllocU32s(u)
	got := m.ReadU32s(base, len(u))
	for i := range u {
		if got[i] != u[i] {
			t.Errorf("u32s[%d] = %d, want %d", i, got[i], u[i])
		}
	}
	f := []float32{0.5, -1.25, float32(math.Pi)}
	fb := m.AllocF32s(f)
	gf := m.ReadF32s(fb, len(f))
	for i := range f {
		if gf[i] != f[i] {
			t.Errorf("f32s[%d] = %v, want %v", i, gf[i], f[i])
		}
	}
}

func TestBlockAddr(t *testing.T) {
	cases := []struct{ in, want uint32 }{
		{0, 0}, {1, 0}, {127, 0}, {128, 128}, {129, 128}, {4096, 4096},
	}
	for _, c := range cases {
		if got := BlockAddr(c.in); got != c.want {
			t.Errorf("BlockAddr(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// BenchmarkMemRead32 reads words the way the emulator's global loads do:
// lane addresses spread over mapped pages, plus reads of unmapped pages.
func BenchmarkMemRead32(b *testing.B) {
	m := New()
	base := m.Alloc(8 * PageSize)
	for i := uint32(0); i < 8*PageSize; i += 4 {
		m.Write32(base+i, i)
	}
	var sum uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := base + uint32(i*1156)%(8*PageSize)&^3
		sum += m.Read32(addr) + m.Read32(addr+64*PageSize)
	}
	benchSink = sum
}

var benchSink uint32

// Property: any written word reads back, and neighbours are unaffected.
func TestQuickWordRoundTrip(t *testing.T) {
	m := New()
	f := func(addrSeed uint32, v uint32) bool {
		addr := (addrSeed % (1 << 24)) * 4
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: byte-wise writes compose to the same word as Write32.
func TestQuickByteWordEquivalence(t *testing.T) {
	f := func(addrSeed uint32, v uint32) bool {
		addr := addrSeed % (1 << 26)
		m1, m2 := New(), New()
		m1.Write32(addr, v)
		for i := uint32(0); i < 4; i++ {
			m2.Write8(addr+i, byte(v>>(8*i)))
		}
		return m1.Read32(addr) == m2.Read32(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
