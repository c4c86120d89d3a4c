package coalesce

import (
	"math/rand"
	"testing"
	"testing/quick"

	"critload/internal/emu"
	"critload/internal/mem"
)

func TestFullyCoalescedWarp(t *testing.T) {
	var addrs [emu.WarpSize]uint32
	for l := range addrs {
		addrs[l] = 0x1000 + uint32(4*l) // 32 × 4B = one 128B block
	}
	acc := CoalesceInto(nil, emu.FullMask, &addrs)
	if len(acc) != 1 {
		t.Fatalf("accesses = %d, want 1", len(acc))
	}
	if acc[0].Block != 0x1000 || acc[0].Lanes != emu.FullMask {
		t.Errorf("access = %+v", acc[0])
	}
	if acc[0].LaneCount() != 32 {
		t.Errorf("LaneCount = %d, want 32", acc[0].LaneCount())
	}
}

func TestStridedTwoBlocks(t *testing.T) {
	var addrs [emu.WarpSize]uint32
	for l := range addrs {
		addrs[l] = 0x2000 + uint32(8*l) // 8B stride: 256B = 2 blocks
	}
	acc := CoalesceInto(nil, emu.FullMask, &addrs)
	if len(acc) != 2 {
		t.Fatalf("accesses = %d, want 2", len(acc))
	}
	if acc[0].Block != 0x2000 || acc[1].Block != 0x2080 {
		t.Errorf("blocks = %#x,%#x", acc[0].Block, acc[1].Block)
	}
}

func TestFullyDivergentAddresses(t *testing.T) {
	var addrs [emu.WarpSize]uint32
	for l := range addrs {
		addrs[l] = uint32(l) * 4096 // every lane a distinct block
	}
	acc := CoalesceInto(nil, emu.FullMask, &addrs)
	if len(acc) != 32 {
		t.Fatalf("accesses = %d, want 32", len(acc))
	}
}

func TestInactiveLanesIgnored(t *testing.T) {
	var addrs [emu.WarpSize]uint32
	for l := range addrs {
		addrs[l] = uint32(l) * 4096
	}
	acc := CoalesceInto(nil, 0x5, &addrs) // lanes 0 and 2 only
	if len(acc) != 2 {
		t.Fatalf("accesses = %d, want 2", len(acc))
	}
	if acc[0].Lanes != 1 || acc[1].Lanes != 4 {
		t.Errorf("lane masks = %#x,%#x", acc[0].Lanes, acc[1].Lanes)
	}
}

func TestEmptyMask(t *testing.T) {
	var addrs [emu.WarpSize]uint32
	if acc := CoalesceInto(nil, 0, &addrs); acc != nil {
		t.Errorf("CoalesceInto(nil, 0) = %v, want nil", acc)
	}
}

func TestSameAddressAllLanes(t *testing.T) {
	var addrs [emu.WarpSize]uint32
	for l := range addrs {
		addrs[l] = 0x7777
	}
	acc := CoalesceInto(nil, emu.FullMask, &addrs)
	if len(acc) != 1 || acc[0].Lanes != emu.FullMask {
		t.Errorf("broadcast access = %+v", acc)
	}
}

// Properties checked with testing/quick: (1) appending after existing
// entries leaves them alone and yields the same accesses as an empty dst,
// (2) lane masks partition the exec mask, (3) every lane's address falls in
// its access's block, (4) access count never exceeds active lanes, (5) no
// two accesses share a block and they are ordered by first lane. Half the
// warps draw from 1 MiB, where lanes rarely share a block, half from 1 KiB
// (eight blocks), where runs of one block break and resume.
func TestQuickCoalesceInvariants(t *testing.T) {
	f := func(exec uint32, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		span := 1 << 20
		if seed&1 == 0 {
			span = 1 << 10
		}
		var addrs [emu.WarpSize]uint32
		for l := range addrs {
			addrs[l] = uint32(rng.Intn(span))
		}
		acc := CoalesceInto(nil, exec, &addrs)
		after := CoalesceInto([]Access{{Block: 1}}, exec, &addrs)
		if after[0] != (Access{Block: 1}) || len(after) != 1+len(acc) {
			return false
		}
		for i := range acc {
			if after[1+i] != acc[i] {
				return false
			}
		}
		var union uint32
		blocks := map[uint32]bool{}
		for i, a := range acc {
			if a.Lanes&union != 0 {
				return false // overlap
			}
			if blocks[a.Block] || i > 0 && a.Lanes&-a.Lanes < acc[i-1].Lanes&-acc[i-1].Lanes {
				return false // a block split, or out of first-lane order
			}
			blocks[a.Block] = true
			union |= a.Lanes
			for l := 0; l < emu.WarpSize; l++ {
				if a.Lanes&(1<<l) != 0 && mem.BlockAddr(addrs[l]) != a.Block {
					return false
				}
			}
		}
		if union != exec {
			return false
		}
		active := 0
		for m := exec; m != 0; m &= m - 1 {
			active++
		}
		return len(acc) <= active
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
