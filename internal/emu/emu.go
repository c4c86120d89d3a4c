// Package emu is the functional SIMT emulator for the PTX-subset ISA. It
// executes kernels warp by warp with a reconvergence-stack divergence model,
// producing per-instruction execution records that both the statistics
// collectors and the timing simulator consume. Values are computed here —
// the timing simulator only models latency on top (execution-driven
// simulation, as in GPGPU-Sim).
package emu

import (
	"fmt"
	"math/bits"
	"slices"

	"critload/internal/isa"
	"critload/internal/mem"
	"critload/internal/ptx"
)

// WarpSize is the number of SIMT lanes per warp.
const WarpSize = 32

// FullMask is the active mask with all lanes on.
const FullMask = uint32(0xffffffff)

// Dim3 is a three-dimensional launch extent or coordinate.
type Dim3 struct {
	X, Y, Z int
}

// Dim1 returns a one-dimensional Dim3.
func Dim1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// Dim2 returns a two-dimensional Dim3.
func Dim2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// Count returns the total number of elements in the extent.
func (d Dim3) Count() int { return d.X * d.Y * d.Z }

func (d Dim3) String() string { return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z) }

// Launch describes one kernel launch: grid and block extents plus the
// parameter values (each parameter is one 32-bit word, typically a device
// pointer or a scalar).
type Launch struct {
	Kernel *ptx.Kernel
	Grid   Dim3
	Block  Dim3
	Params []uint32
}

// Validate checks that the launch matches the kernel's parameter list and
// hardware limits.
func (l *Launch) Validate() error {
	if l.Kernel == nil {
		return fmt.Errorf("emu: launch without kernel")
	}
	if len(l.Params) != len(l.Kernel.Params) {
		return fmt.Errorf("emu: kernel %s expects %d params, launch has %d",
			l.Kernel.Name, len(l.Kernel.Params), len(l.Params))
	}
	if l.Grid.Count() <= 0 || l.Block.Count() <= 0 {
		return fmt.Errorf("emu: empty grid or block")
	}
	if l.Block.Count() > 1536 {
		return fmt.Errorf("emu: block of %d threads exceeds the 1536-thread SM limit", l.Block.Count())
	}
	return nil
}

// WarpsPerCTA returns the number of warps needed for one thread block.
func (l *Launch) WarpsPerCTA() int {
	return (l.Block.Count() + WarpSize - 1) / WarpSize
}

// CTACoord converts a linearized CTA id back to grid coordinates.
func (l *Launch) CTACoord(id int) Dim3 {
	x := id % l.Grid.X
	y := (id / l.Grid.X) % l.Grid.Y
	z := id / (l.Grid.X * l.Grid.Y)
	return Dim3{X: x, Y: y, Z: z}
}

// Env bundles the state a warp needs to execute: the global memory, the
// parameter space, and the CTA's shared memory.
type Env struct {
	Mem    *mem.Memory
	Launch *Launch
}

// CTA is one cooperative thread array in flight. Its storage is bound to a
// launch by Reset and may be rebound to any other: a driver that keeps one
// CTA allocates only when a launch needs more than any launch before it.
type CTA struct {
	ID     int // linearized CTA id: x + y*gridX + z*gridX*gridY
	Coord  Dim3
	Shared []byte
	Warps  []*Warp

	// warps backs Warps, every element in use or kept for a larger launch;
	// regs and preds back the warps' register files, warp-major; block is
	// the extent the warps' lane coordinates were computed for.
	warps []Warp
	regs  []uint32
	preds []uint32
	block Dim3
}

// NewCTA instantiates CTA id of the launch in fresh storage.
func NewCTA(l *Launch, id int) *CTA {
	c := new(CTA)
	c.Reset(l, id)
	return c
}

// Reset binds the CTA's storage to CTA id of the launch, in the state a
// fresh one starts in: registers, predicates and shared memory zeroed, every
// warp back at the first instruction with its full lane mask. Storage grows
// only when the launch needs more than the CTA holds, and is zeroed once.
// Growing moves the warps, so a *Warp taken before a Reset is stale after it.
func (c *CTA) Reset(l *Launch, id int) {
	k := l.Kernel
	n, nr, np := l.WarpsPerCTA(), k.NumRegs*WarpSize, k.NumPreds
	c.ID, c.Coord = id, l.CTACoord(id)
	c.Shared = zeroed(c.Shared, k.SharedBytes)
	c.regs = zeroed(c.regs, n*nr)
	c.preds = zeroed(c.preds, n*np)
	lanes := c.block != l.Block
	if have := len(c.warps); have < n {
		c.warps = slices.Grow(c.warps, n-have)
		c.warps = c.warps[:cap(c.warps)]
		c.Warps = make([]*Warp, len(c.warps))
		for i := range c.warps {
			c.Warps[i] = &c.warps[i]
		}
		// The new warps' SIMT stacks start in one slab too; a deeper nest
		// grows its own.
		stacks := make([]stackEntry, (len(c.warps)-have)*stackDepth)
		for i := range c.warps[have:] {
			c.warps[have+i].stack = stacks[i*stackDepth : i*stackDepth : (i+1)*stackDepth]
		}
		lanes = true
	}
	c.Warps = c.Warps[:n]
	c.block = l.Block
	decoded := k.Decoded()
	for i, w := range c.Warps {
		w.CTA, w.Index = c, uint16(i)
		w.kernel, w.decoded = k, decoded
		w.regs = c.regs[i*nr : (i+1)*nr]
		w.preds = c.preds[i*np : (i+1)*np]
		if lanes {
			w.setLanes(l.Block)
		}
		w.AtBarrier = false
		w.InstructionsExecuted = 0
		w.stack = append(w.stack[:0], stackEntry{pc: 0, rpc: len(k.Insts), mask: w.laneMask})
	}
}

// stackDepth is the SIMT stack capacity a warp starts with.
const stackDepth = 8

// zeroed returns s resized to n zero elements, reusing its storage when it
// has room.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Done reports whether every warp of the CTA has exited.
func (c *CTA) Done() bool {
	for _, w := range c.Warps {
		if !w.Done() {
			return false
		}
	}
	return true
}

// barrierReady reports whether every live warp is waiting at the barrier.
func (c *CTA) barrierReady() bool {
	for _, w := range c.Warps {
		if !w.Done() && !w.AtBarrier {
			return false
		}
	}
	return true
}

// ReleaseBarrier clears the barrier flag on all warps; callers must first
// check barrierReady.
func (c *CTA) ReleaseBarrier() {
	for _, w := range c.Warps {
		w.AtBarrier = false
	}
}

// stackEntry is one SIMT reconvergence-stack entry.
type stackEntry struct {
	pc   int    // next instruction index for this entry
	rpc  int    // reconvergence instruction index (pop when pc == rpc)
	mask uint32 // lanes executing under this entry
}

// Warp holds the architectural state of one warp.
type Warp struct {
	CTA *CTA

	kernel  *ptx.Kernel
	decoded []isa.Decoded // the kernel's execution table
	regs    []uint32      // numRegs × WarpSize, laid out reg-major
	preds   []uint32      // one lane-bitmask per predicate register
	stack   []stackEntry
	// tid[d][l] is %tid.x, .y, .z (d = 0, 1, 2) of lane l, zero for lanes
	// beyond the block size (a block has at most 1536 threads, so every
	// coordinate fits); laneMask has a bit per lane with a thread.
	tid      [3][WarpSize]uint16
	laneMask uint32
	// Index is the warp's index within the CTA (at most 48). It and
	// AtBarrier pack beside laneMask, keeping a warp in the 320-byte
	// allocation size class.
	Index     uint16
	AtBarrier bool
	// InstructionsExecuted counts warp-level instructions retired.
	InstructionsExecuted uint64
}

// setLanes computes the warp's lane coordinates and mask in a block of
// extent b.
func (w *Warp) setLanes(b Dim3) {
	w.laneMask = 0
	w.tid = [3][WarpSize]uint16{}
	for lane := 0; lane < WarpSize; lane++ {
		t := int(w.Index)*WarpSize + lane
		if t >= b.Count() {
			break
		}
		w.laneMask |= 1 << lane
		w.tid[0][lane] = uint16(t % b.X)
		w.tid[1][lane] = uint16(t / b.X % b.Y)
		w.tid[2][lane] = uint16(t / (b.X * b.Y))
	}
}

// The SIMT stack is kept normalized — no reconverged or empty entry on top —
// by CTA.Reset and at the end of every Execute, its only mutators, so the
// queries below are plain reads however often a scheduler asks them.

// Done reports whether the warp has no live lanes left.
func (w *Warp) Done() bool { return len(w.stack) == 0 }

// PC returns the current instruction index, or -1 when done.
func (w *Warp) PC() int {
	if len(w.stack) == 0 {
		return -1
	}
	return w.stack[len(w.stack)-1].pc
}

// NextInst returns the instruction the warp will execute next, or nil when
// the warp has finished.
func (w *Warp) NextInst() *isa.Instruction {
	pc := w.PC()
	if pc < 0 {
		return nil
	}
	return w.kernel.Insts[pc]
}

// normalize pops reconverged or empty stack entries.
func (w *Warp) normalize() {
	for len(w.stack) > 0 {
		top := &w.stack[len(w.stack)-1]
		if top.mask == 0 || top.pc == top.rpc || top.pc >= len(w.kernel.Insts) {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
}

// Reg returns the value of general register r in lane l.
func (w *Warp) Reg(r, l int) uint32 { return w.regs[r*WarpSize+l] }

// Pred returns predicate register p in lane l.
func (w *Warp) Pred(p, l int) bool { return w.preds[p]&(1<<l) != 0 }

// Step is the record of one executed warp instruction, consumed by the
// statistics collectors and the timing simulator.
type Step struct {
	Inst *isa.Instruction
	// Active is the SIMT active mask before applying the guard predicate.
	Active uint32
	// Exec is the set of lanes that actually executed (guard applied). For
	// memory instructions these are the lanes that generate accesses.
	Exec uint32
	// Addrs holds per-lane effective byte addresses for memory operations.
	// Only lanes set in Exec are valid: Execute does not clear the array, so
	// the other lanes are stale, left by an earlier instruction or computed
	// from registers those lanes did not execute with.
	Addrs [WarpSize]uint32
	// Mem marks global/shared/local/tex data-space memory operations.
	Mem bool
	// Barrier marks bar.sync execution: the warp must block until release.
	Barrier bool
	// Exited marks that the warp fully retired with this instruction.
	Exited bool

	// scratch is the executor's lane storage: gathered sources and, under a
	// partial mask, results on their way to the register row. It lives here,
	// in a record the caller reuses, so that no instruction zeroes a buffer;
	// a caller keeps one Step rather than declaring one per instruction.
	scratch [4]lanes
}

// ActiveCount returns the number of pre-guard active lanes.
func (s *Step) ActiveCount() int { return bits.OnesCount32(s.Active) }

// ExecCount returns the number of lanes that executed.
func (s *Step) ExecCount() int { return bits.OnesCount32(s.Exec) }
