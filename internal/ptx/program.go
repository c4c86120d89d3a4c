// Package ptx provides the textual assembler, program representation, and
// control-flow analyses (CFG, postdominators) for the PTX-subset ISA.
//
// Kernels are written in a PTX-like assembly dialect:
//
//	.kernel bfs_step
//	.param .u32 g_graph_mask
//	.param .u32 no_of_nodes
//	.shared 2048
//
//	    mov.u32      %r0, %ctaid.x;
//	    mov.u32      %r1, %ntid.x;
//	    mad.u32      %r2, %r0, %r1, %tid.x;
//	    ld.param.u32 %r3, [no_of_nodes];
//	    setp.ge.u32  %p0, %r2, %r3;
//	@%p0 bra EXIT;
//	    ...
//	EXIT:
//	    exit;
//
// The control-flow analyses feed two consumers: the SIMT divergence stack in
// the emulator (reconvergence at immediate postdominators) and the backward
// dataflow load classifier.
package ptx

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"critload/internal/isa"
)

// ParamDecl describes one kernel parameter. All parameters occupy 4 bytes in
// the parameter space, mirroring the 32-bit machine model.
type ParamDecl struct {
	Name   string
	Type   isa.DType
	Offset int // byte offset within the parameter space
}

// ParamSize is the byte size of every kernel parameter.
const ParamSize = 4

// MaxRegs and MaxPreds cap the register and predicate indices a kernel may
// name: %r0 to %r1023 and %p0 to %p1023. Register files are sized by the
// highest index, and reused CTA storage keeps the largest files it has
// held, so one huge index would otherwise cost its allocation for as long
// as the GPU or executor lives. MaxRegs registers for each of 32 lanes fill
// the default SM's whole register file; the built-in kernels use at most 66.
const (
	MaxRegs  = 1024
	MaxPreds = 1024
)

// MaxParams caps the parameters a kernel may declare, 4 KiB of parameter
// space. Each .param is checked against those declared before it, so the
// cap also bounds that check to MaxParams comparisons a parameter; the
// built-in kernels declare at most 13.
const MaxParams = 1024

// Kernel is one assembled kernel function.
type Kernel struct {
	Name        string
	Params      []ParamDecl
	SharedBytes int // statically declared shared memory per CTA
	NumRegs     int // general-purpose registers used (max index + 1)
	NumPreds    int // predicate registers used
	Insts       []*isa.Instruction
	Labels      map[string]int

	// Derived on first use, once, so kernels that are only classified never
	// build the execution tables; each result is immutable afterwards and
	// safe to share between goroutines.
	cfgOnce    sync.Once
	cfg        *CFG
	tablesOnce sync.Once
	hazards    []isa.Hazard  // per instruction
	decoded    []isa.Decoded // per instruction
}

// finish completes an assembled kernel: it resolves branch targets and sizes
// the register files from the highest index used. Parse ends every kernel
// here, before the kernel is visible to anyone else.
func (k *Kernel) finish() error {
	bump := func(n *int, reg int) {
		if reg+1 > *n {
			*n = reg + 1
		}
	}
	bumpOpd := func(o isa.Operand) {
		switch o.Kind {
		case isa.OpdReg, isa.OpdMem: // an absolute OpdMem has Reg -1
			bump(&k.NumRegs, o.Reg)
		case isa.OpdPred:
			bump(&k.NumPreds, o.Reg)
		}
	}
	for i, in := range k.Insts {
		if in.Op == isa.OpBra {
			t, ok := k.Labels[in.Label]
			if !ok {
				return fmt.Errorf("kernel %s: undefined label %q (inst %d)", k.Name, in.Label, i)
			}
			in.Targ = t
		}
		bumpOpd(in.Dst)
		for s := 0; s < in.NSrc; s++ {
			bumpOpd(in.Srcs[s])
		}
		if in.Guard.Active() {
			bump(&k.NumPreds, in.Guard.Reg)
		}
	}
	return nil
}

// buildTables derives every instruction's scoreboard operands and decoded
// execution form.
func (k *Kernel) buildTables() {
	k.hazards = make([]isa.Hazard, len(k.Insts))
	k.decoded = make([]isa.Decoded, len(k.Insts))
	for i, in := range k.Insts {
		k.hazards[i] = in.Hazard()
		k.decoded[i] = in.Decode()
		if in.IsParamLoad() {
			k.decoded[i].Srcs[0].Val = uint32(k.paramWord(in.Srcs[0]))
		}
	}
}

// Hazards returns the scoreboard operands of every instruction, indexed like
// Insts, building them on first use. The slice is shared and must not be
// modified.
func (k *Kernel) Hazards() []isa.Hazard {
	k.tablesOnce.Do(k.buildTables)
	return k.hazards
}

// Decoded returns the execution form of every instruction, indexed like
// Insts, building it on first use. The slice is shared and must not be
// modified.
func (k *Kernel) Decoded() []isa.Decoded {
	k.tablesOnce.Do(k.buildTables)
	return k.decoded
}

// ParamOffset returns the byte offset of a named parameter.
func (k *Kernel) ParamOffset(name string) (int, bool) {
	for _, p := range k.Params {
		if p.Name == name {
			return p.Offset, true
		}
	}
	return 0, false
}

// paramWord resolves an ld.param operand to the index of the 32-bit word it
// reads, or -1 when the parameter is unknown or the offset is misaligned or
// outside the parameter space.
func (k *Kernel) paramWord(o isa.Operand) int {
	off, ok := k.ParamOffset(o.Param)
	if o.Kind != isa.OpdParam || !ok {
		return -1
	}
	b := int64(off) + o.Imm
	if b < 0 || b%ParamSize != 0 || b/ParamSize >= int64(len(k.Params)) {
		return -1
	}
	return int(b / ParamSize)
}

// CFG returns the kernel's control-flow graph, building it on first use.
func (k *Kernel) CFG() *CFG {
	k.cfgOnce.Do(func() { k.cfg = BuildCFG(k) })
	return k.cfg
}

// ReconvergencePC returns the immediate-postdominator reconvergence
// instruction index for the branch at instruction index i. A return of
// len(k.Insts) denotes reconvergence at kernel exit.
func (k *Kernel) ReconvergencePC(i int) int {
	return k.CFG().ReconvergeIdx(i)
}

// GlobalLoads returns the instruction indices of all ld.global instructions,
// in program order.
func (k *Kernel) GlobalLoads() []int {
	var out []int
	for i, in := range k.Insts {
		if in.IsGlobalLoad() {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks structural invariants of the kernel: resolved branch
// targets, declared parameters, register indices within bounds, and operand
// shapes appropriate for each opcode.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("kernel has no name")
	}
	if len(k.Insts) == 0 {
		return fmt.Errorf("kernel %s has no instructions", k.Name)
	}
	if k.NumRegs > MaxRegs || k.NumPreds > MaxPreds {
		return fmt.Errorf("kernel %s uses %d registers and %d predicates, over the caps of %d and %d",
			k.Name, k.NumRegs, k.NumPreds, MaxRegs, MaxPreds)
	}
	checkReg := func(o isa.Operand, at int) error {
		switch o.Kind {
		case isa.OpdReg:
			if o.Reg < 0 || o.Reg >= k.NumRegs {
				return fmt.Errorf("%s:%d: register %%r%d out of range [0,%d)", k.Name, at, o.Reg, k.NumRegs)
			}
		case isa.OpdPred:
			if o.Reg < 0 || o.Reg >= k.NumPreds {
				return fmt.Errorf("%s:%d: predicate %%p%d out of range [0,%d)", k.Name, at, o.Reg, k.NumPreds)
			}
		case isa.OpdMem:
			if o.Reg >= k.NumRegs {
				return fmt.Errorf("%s:%d: mem base %%r%d out of range", k.Name, at, o.Reg)
			}
		case isa.OpdParam:
			if _, ok := k.ParamOffset(o.Param); !ok {
				return fmt.Errorf("%s:%d: unknown parameter %q", k.Name, at, o.Param)
			}
		}
		return nil
	}
	for i, in := range k.Insts {
		if in.Index != i {
			return fmt.Errorf("%s:%d: bad instruction index %d", k.Name, i, in.Index)
		}
		if in.Guard.Active() && in.Guard.Reg >= k.NumPreds {
			return fmt.Errorf("%s:%d: guard %%p%d out of range", k.Name, i, in.Guard.Reg)
		}
		if in.Op == isa.OpBra {
			if in.Targ < 0 || in.Targ >= len(k.Insts) {
				return fmt.Errorf("%s:%d: unresolved branch target %q", k.Name, i, in.Label)
			}
		}
		if in.Op == isa.OpLd && in.Space == isa.SpaceParam {
			if in.Srcs[0].Kind != isa.OpdParam {
				return fmt.Errorf("%s:%d: ld.param requires a [name] operand", k.Name, i)
			}
			if _, known := k.ParamOffset(in.Srcs[0].Param); known && k.paramWord(in.Srcs[0]) < 0 {
				return fmt.Errorf("%s:%d: ld.param %s is not an aligned word of the %d-byte parameter space",
					k.Name, i, in.Srcs[0], len(k.Params)*ParamSize)
			}
		}
		// An atom may discard the old value; every other producer names
		// the register it writes.
		if in.Op.WritesReg() && in.Op != isa.OpAtom && in.Dst.Kind != isa.OpdReg {
			return fmt.Errorf("%s:%d: %s writes a general register, not %s", k.Name, i, in.Op, in.Dst)
		}
		if (in.Op == isa.OpLd || in.Op == isa.OpSt || in.Op == isa.OpAtom) && in.Space == isa.SpaceNone {
			return fmt.Errorf("%s:%d: memory op without state space", k.Name, i)
		}
		if err := checkReg(in.Dst, i); err != nil {
			return err
		}
		for s := 0; s < in.NSrc; s++ {
			if err := checkReg(in.Srcs[s], i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Disassemble renders the kernel body as assembly text.
func (k *Kernel) Disassemble() string {
	// Invert the label map for printing.
	byIdx := map[int][]string{}
	for name, idx := range k.Labels {
		byIdx[idx] = append(byIdx[idx], name)
	}
	for _, names := range byIdx {
		sort.Strings(names)
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n", k.Name)
	for _, p := range k.Params {
		fmt.Fprintf(&b, ".param .%s %s\n", p.Type, p.Name)
	}
	if k.SharedBytes > 0 {
		fmt.Fprintf(&b, ".shared %d\n", k.SharedBytes)
	}
	for i, in := range k.Insts {
		for _, l := range byIdx[i] {
			b.WriteString(l)
			b.WriteString(":\n")
		}
		b.WriteString("    ")
		b.WriteString(in.String())
		b.WriteString(";\n")
	}
	return b.String()
}

// Program is a collection of kernels assembled from one source unit.
type Program struct {
	Kernels []*Kernel
}

// Kernel returns the kernel with the given name.
func (p *Program) Kernel(name string) (*Kernel, bool) {
	for _, k := range p.Kernels {
		if k.Name == name {
			return k, true
		}
	}
	return nil, false
}

// MustKernel returns the named kernel or panics; intended for workload
// registration where a missing kernel is a programming error.
func (p *Program) MustKernel(name string) *Kernel {
	k, ok := p.Kernel(name)
	if !ok {
		panic(fmt.Sprintf("ptx: kernel %q not found", name))
	}
	return k
}
