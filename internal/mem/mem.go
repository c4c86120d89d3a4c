// Package mem provides the simulated global-memory backing store: a sparse,
// page-granular byte-addressable space with a bump allocator and typed
// accessors. Addresses are 32 bit, matching the ISA's register width.
package mem

import (
	"fmt"
	"math"
	"slices"
)

// PageBits is log2 of the backing-store page size.
const PageBits = 16

// PageSize is the backing-store allocation granularity (64 KiB).
const PageSize = 1 << PageBits

// BlockBytes is the cache-line / coalescing granularity used throughout the
// simulator and the paper's block-level statistics (128 B).
const BlockBytes = 128

// BlockAddr returns the 128-byte-aligned block address containing addr.
func BlockAddr(addr uint32) uint32 { return addr &^ (BlockBytes - 1) }

// numPages is the number of pages in the 32-bit space, and so the most
// entries the page table can hold.
const numPages = 1 << (32 - PageBits)

// Memory is a sparse 32-bit byte-addressable space.
type Memory struct {
	// pages is the page table, indexed by addr>>PageBits: nil for an unmapped
	// page. It grows on the first write past its end, so it is never longer
	// than the highest written page id plus one (at most numPages pointers,
	// 512 KiB).
	pages []*[PageSize]byte
	// brk is the bump-allocation cursor. Address 0 is kept unmapped so that
	// null-pointer style bugs in kernels fault visibly in tests.
	brk uint32
}

// New returns an empty memory with the allocator starting at 64 KiB.
func New() *Memory {
	return &Memory{brk: PageSize}
}

// Alloc reserves size bytes aligned to BlockBytes and returns the base
// address. Alloc panics when the 32-bit space is exhausted, which indicates a
// mis-scaled workload rather than a runtime condition to handle.
func (m *Memory) Alloc(size uint32) uint32 {
	if size == 0 {
		size = 1
	}
	base := (m.brk + BlockBytes - 1) &^ (BlockBytes - 1)
	end := uint64(base) + uint64(size)
	if end > math.MaxUint32 {
		panic(fmt.Sprintf("mem: address space exhausted allocating %d bytes at %#x", size, base))
	}
	m.brk = uint32(end)
	return base
}

// Allocated returns the current top of the allocated region.
func (m *Memory) Allocated() uint32 { return m.brk }

// mapped returns the page holding addr, or nil when it is unmapped.
func (m *Memory) mapped(addr uint32) *[PageSize]byte {
	if id := int(addr >> PageBits); id < len(m.pages) {
		return m.pages[id]
	}
	return nil
}

// page returns the page holding addr, mapping it on first use.
func (m *Memory) page(addr uint32) *[PageSize]byte {
	id := int(addr >> PageBits)
	if id >= len(m.pages) {
		m.pages = slices.Grow(m.pages, id+1-len(m.pages))[:id+1]
	}
	p := m.pages[id]
	if p == nil {
		p = new([PageSize]byte)
		m.pages[id] = p
	}
	return p
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32) byte {
	p := m.mapped(addr)
	if p == nil {
		return 0
	}
	return p[addr&(PageSize-1)]
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v byte) {
	m.page(addr)[addr&(PageSize-1)] = v
}

// Read32 reads a little-endian 32-bit word. Unaligned access is supported
// (the emulator's kernels always use 4-byte alignment, but tests exercise
// arbitrary addresses).
func (m *Memory) Read32(addr uint32) uint32 {
	off := addr & (PageSize - 1)
	if off <= PageSize-4 {
		p := m.mapped(addr)
		if p == nil {
			return 0
		}
		return uint32(p[off]) | uint32(p[off+1])<<8 | uint32(p[off+2])<<16 | uint32(p[off+3])<<24
	}
	// Page-straddling access.
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(m.Read8(addr+i)) << (8 * i)
	}
	return v
}

// Write32 writes a little-endian 32-bit word.
func (m *Memory) Write32(addr uint32, v uint32) {
	off := addr & (PageSize - 1)
	if off <= PageSize-4 {
		p := m.page(addr)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		p[off+2] = byte(v >> 16)
		p[off+3] = byte(v >> 24)
		return
	}
	for i := uint32(0); i < 4; i++ {
		m.Write8(addr+i, byte(v>>(8*i)))
	}
}

// ReadF32 reads a float32.
func (m *Memory) ReadF32(addr uint32) float32 {
	return math.Float32frombits(m.Read32(addr))
}

// WriteF32 writes a float32.
func (m *Memory) WriteF32(addr uint32, v float32) {
	m.Write32(addr, math.Float32bits(v))
}

// WriteU32s stores a slice of words starting at base.
func (m *Memory) WriteU32s(base uint32, vs []uint32) {
	for i, v := range vs {
		m.Write32(base+uint32(i*4), v)
	}
}

// ReadU32s loads n words starting at base.
func (m *Memory) ReadU32s(base uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = m.Read32(base + uint32(i*4))
	}
	return out
}

// WriteF32s stores a slice of float32 starting at base.
func (m *Memory) WriteF32s(base uint32, vs []float32) {
	for i, v := range vs {
		m.WriteF32(base+uint32(i*4), v)
	}
}

// ReadF32s loads n float32 values starting at base.
func (m *Memory) ReadF32s(base uint32, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = m.ReadF32(base + uint32(i*4))
	}
	return out
}

// AllocU32s allocates and initializes a word array, returning its base.
func (m *Memory) AllocU32s(vs []uint32) uint32 {
	base := m.Alloc(uint32(4 * len(vs)))
	m.WriteU32s(base, vs)
	return base
}

// AllocF32s allocates and initializes a float array, returning its base.
func (m *Memory) AllocF32s(vs []float32) uint32 {
	base := m.Alloc(uint32(4 * len(vs)))
	m.WriteF32s(base, vs)
	return base
}

// Footprint returns the number of mapped pages, a debugging aid for tests
// that guard against runaway address generation.
func (m *Memory) Footprint() int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}
