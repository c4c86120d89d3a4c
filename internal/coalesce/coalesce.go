// Package coalesce implements the warp-level memory-access coalescer that
// sits in front of the L1 data cache. Lane addresses of one warp memory
// instruction are merged into the minimal set of 128-byte block accesses;
// each access becomes one memory request to the L1 cache, exactly the
// quantity Figure 2 of the paper reports per warp and per active thread.
package coalesce

import (
	"math/bits"

	"critload/internal/emu"
	"critload/internal/mem"
)

// Access is one coalesced block access generated by a warp instruction.
type Access struct {
	Block uint32 // 128-byte-aligned block address
	Lanes uint32 // mask of lanes merged into this access
}

// LaneCount returns the number of lanes merged into the access.
func (a Access) LaneCount() int {
	n := 0
	for m := a.Lanes; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// CoalesceInto merges the per-lane addresses of an executed memory
// instruction into block accesses appended to dst, ordered by first
// contributing lane. exec is the executed-lane mask; addrs holds per-lane byte
// addresses (valid where the exec bit is set). Per-step callers pass a reused
// dst[:0], so coalescing allocates nothing; an empty exec mask appends
// nothing.
func CoalesceInto(dst []Access, exec uint32, addrs *[emu.WarpSize]uint32) []Access {
	if exec == 0 {
		return dst
	}
	// A warp inside one block (the common, fully coalesced case) makes one
	// pass and one access, with no search.
	first := mem.BlockAddr(addrs[bits.TrailingZeros32(exec)&(emu.WarpSize-1)])
	m := exec
	for ; m != 0; m &= m - 1 {
		if mem.BlockAddr(addrs[bits.TrailingZeros32(m)&(emu.WarpSize-1)]) != first {
			break
		}
	}
	if m == 0 {
		return append(dst, Access{Block: first, Lanes: exec})
	}
	base := len(dst)
	// Typical warps touch 1-32 blocks; a linear scan of the accesses so far
	// keeps the order by first lane and needs no map.
	for lane := 0; lane < emu.WarpSize; lane++ {
		if exec&(1<<lane) == 0 {
			continue
		}
		b := mem.BlockAddr(addrs[lane])
		found := false
		for i := base; i < len(dst); i++ {
			if dst[i].Block == b {
				dst[i].Lanes |= 1 << lane
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, Access{Block: b, Lanes: 1 << lane})
		}
	}
	return dst
}
