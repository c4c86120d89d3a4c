// Package kgen is a seeded, deterministic random PTX-kernel generator for
// differential testing. It lowers a small dataflow IR (Prog) to PTX text
// and assembles it with ptx.Parse, the front end every other kernel goes
// through. Every Op produces at most one fresh register or predicate
// (SSA-like single static definitions), references only earlier ops in an
// enclosing scope, and carries enough structure that the lowering pass can
// compute, by construction, the ground-truth classification of every global
// load it emits — the label dataflow.Classify must reproduce.
//
// The generated kernels are engine-race-free by discipline, so the emulator
// and both timing engines must agree on final memory:
//
//   - data arrays (global + const + tex views) are read-only;
//   - global stores go only to the thread's own output slots;
//   - shared memory is written only at the thread's own word, before a single
//     top-level barrier, and read only after it;
//   - atomics use one commutative u32 operation per kernel on a scratch
//     array, and values derived from an atomic return ("volatile" values,
//     whose concrete bits depend on warp scheduling) never reach stores,
//     shared memory, or branch predicates — they may feed load addresses,
//     which makes them legitimate non-deterministic loads.
//
// Local-space loads are deliberately absent: the functional emulator rejects
// them, so they cannot participate in a differential harness.
package kgen

import (
	"fmt"

	"critload/internal/isa"
)

// OpKind enumerates the IR operations.
type OpKind uint8

// IR operation kinds.
const (
	// KImm materializes the immediate Imm. Clean value.
	KImm OpKind = iota
	// KAlu computes alu[Alu](A, B); B < 0 uses Imm as second operand.
	KAlu
	// KSelp selects P ? A : B (B < 0 uses Imm).
	KSelp
	// KGuard initializes its register to Imm>>1, then conditionally
	// (@P, negated when Imm&1 is set) overwrites it with alu[Alu](A, B).
	KGuard
	// KSetp defines a predicate: cmp[Alu](A, B); B < 0 uses Imm.
	KSetp
	// KLoadG loads data array Imm&1 at index (A & mask). Global load:
	// recorded in the ground-truth Want map.
	KLoadG
	// KLoadC loads the const array at index (A & constMask). The classifier
	// treats ld.const results as parameterized, so the value is clean even
	// when the address is tainted.
	KLoadC
	// KLoadT loads data array Imm&1 through the texture space.
	KLoadT
	// KAtom performs the program-wide AtomOp on Scratch[A & scratchMask]
	// with operand B (B < 0 uses Imm). The returned old value is volatile.
	KAtom
	// KShStore stores A to the thread's own shared word. Only legal at
	// top level before the barrier.
	KShStore
	// KBar is the single top-level bar.sync.
	KBar
	// KShLoad loads shared word (A & (block-1)). Only legal after the
	// barrier.
	KShLoad
	// KStore stores A to the thread's output slot Imm%OutSlots.
	KStore
	// KLoop begins a counted loop of 1+Imm%MaxTrip iterations; KEnd closes.
	KLoop
	// KIf begins a block guarded by predicate P (negated when Imm&1);
	// KEnd closes.
	KIf
	// KEnd closes the innermost open KLoop/KIf.
	KEnd
	numKinds
)

var kindNames = [numKinds]string{
	KImm: "imm", KAlu: "alu", KSelp: "selp", KGuard: "guard", KSetp: "setp",
	KLoadG: "ld.g", KLoadC: "ld.c", KLoadT: "ld.t", KAtom: "atom",
	KShStore: "st.sh", KBar: "bar", KShLoad: "ld.sh", KStore: "st.g",
	KLoop: "loop", KIf: "if", KEnd: "end",
}

func (k OpKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is one IR operation. A and B reference earlier value-producing ops by
// index (-1 means "use the global thread id" for A-slots and "use Imm" for
// B-slots); P references an earlier KSetp. Alu selects the ALU or compare
// operation; Imm is an immediate payload whose meaning depends on Kind.
type Op struct {
	Kind OpKind
	A    int
	B    int
	P    int
	Alu  int
	Imm  uint32
}

// aluOps is the pool of binary ALU operations KAlu/KGuard draw from. All are
// total on u32 (shifts mask their count; div-by-zero yields zero and is
// excluded anyway).
var aluOps = []isa.Opcode{
	isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
	isa.OpMin, isa.OpMax, isa.OpShl, isa.OpShr,
}

// cmpOps is the pool of setp comparisons.
var cmpOps = []isa.CmpOp{isa.CmpEQ, isa.CmpNE, isa.CmpLT, isa.CmpLE, isa.CmpGT, isa.CmpGE}

// atomOps is the pool of per-kernel atomic operations: only commutative,
// idempotent-composition ops whose final memory value is independent of
// thread ordering.
var atomOps = []isa.AtomOp{isa.AtomAdd, isa.AtomMin, isa.AtomMax, isa.AtomOr, isa.AtomAnd}

// MaxTrip bounds loop trip counts.
const MaxTrip = 4

// OutSlots is the number of output words each thread owns.
const OutSlots = 8

// ScratchWords is the size of the atomic scratch array.
const ScratchWords = 64

// ConstWords is the size of the constant array.
const ConstWords = 64

// Prog is a generated kernel program: launch geometry, array sizes, the
// kernel-wide atomic operation, and the op list.
type Prog struct {
	Seed      int64
	GridX     int
	BlockX    int // power of two, ≤ 128
	DataWords int // power of two: words per data array
	AtomOp    isa.AtomOp
	Ops       []Op
}

// Clone deep-copies the program.
func (p *Prog) Clone() *Prog {
	q := *p
	q.Ops = append([]Op(nil), p.Ops...)
	return &q
}

// opInfo is the per-op static analysis the generator, Repair and the
// lowering pass all share.
type opInfo struct {
	dead    bool
	val     bool  // defines a general register
	pred    bool  // defines a predicate
	taint   bool  // value transitively depends on a data load / atomic
	vol     bool  // value depends on warp scheduling (atomic returns)
	path    []int // enclosing structure ops, outermost first
	matchOf int   // for KEnd: index of the KLoop/KIf it closes (-1 if none)
}

// definesValue reports whether kind produces a general-register value.
func definesValue(k OpKind) bool {
	switch k {
	case KImm, KAlu, KSelp, KGuard, KLoadG, KLoadC, KLoadT, KAtom, KShLoad:
		return true
	}
	return false
}

// analyze computes per-op scopes, structure matching and taint/volatility.
// It assumes the program is well-formed (as produced by Generate or Repair);
// malformed references are treated as the gtid/imm fallbacks, exactly as the
// lowering pass would.
func analyze(p *Prog) []opInfo {
	infos := make([]opInfo, len(p.Ops))
	var stack []int
	path := func() []int { return append([]int(nil), stack...) }
	for i, op := range p.Ops {
		in := &infos[i]
		in.matchOf = -1
		in.path = path()
		in.val = definesValue(op.Kind)
		in.pred = op.Kind == KSetp

		// References count only when the lowering pass would honor them:
		// an earlier live op of the right kind whose scope encloses this
		// one. Anything else lowers to the clean gtid/imm fallback.
		ref := func(j int, pred bool) (taint, vol bool) {
			if j < 0 || j >= i || infos[j].dead {
				return false, false
			}
			if pred && !infos[j].pred || !pred && !infos[j].val {
				return false, false
			}
			if !isPrefix(infos[j].path, in.path) {
				return false, false
			}
			return infos[j].taint, infos[j].vol
		}
		tA, vA := ref(op.A, false)
		tB, vB := ref(op.B, false)
		tP, vP := ref(op.P, true)
		switch op.Kind {
		case KImm:
		case KAlu:
			in.taint, in.vol = tA || tB, vA || vB
		case KSelp, KGuard:
			in.taint, in.vol = tA || tB || tP, vA || vB || vP
		case KSetp:
			in.taint, in.vol = tA || tB, vA || vB
		case KLoadG, KLoadT, KShLoad:
			// Data-load results are taint roots; the loaded bits vary with
			// scheduling only if the address does.
			in.taint, in.vol = true, vA
		case KLoadC:
			// Const-space loads are parameterized in the classifier's model:
			// the result is clean regardless of the address.
			in.taint, in.vol = false, vA
		case KAtom:
			in.taint, in.vol = true, true
		case KLoop, KIf:
			stack = append(stack, i)
		case KEnd:
			if n := len(stack); n > 0 {
				in.matchOf = stack[n-1]
				stack = stack[:n-1]
			} else {
				in.dead = true
			}
		}
	}
	// Unclosed structures are dead (Repair drops them; Generate closes all).
	for _, i := range stack {
		infos[i].dead = true
	}
	return infos
}

// isPrefix reports whether path a is a prefix of path b — i.e. whether a
// value defined at scope a is in scope at b.
func isPrefix(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Repair rewrites an arbitrarily mutated op list (typically after the
// shrinker deleted a range) back into a well-formed program: structures are
// re-matched, dangling or out-of-scope references are rerouted to the
// gtid/imm fallbacks or to nothing, shared-memory ops are forced back into
// the store→barrier→load discipline, and volatility constraints (stores,
// shared stores, atomics and branch predicates must be schedule-independent)
// are re-established. Repair is total: any op list maps to a valid program.
func Repair(p *Prog) *Prog {
	q := p.Clone()
	if q.GridX < 1 {
		q.GridX = 1
	}
	switch q.BlockX {
	case 32, 64, 128:
	default:
		q.BlockX = 32
	}
	if q.DataWords < 64 || q.DataWords&(q.DataWords-1) != 0 || q.DataWords > 4096 {
		q.DataWords = 256
	}
	ok := false
	for _, a := range atomOps {
		ok = ok || a == q.AtomOp
	}
	if !ok {
		q.AtomOp = isa.AtomAdd
	}

	// Pass 1: match structures and mark orphans dead.
	infos := analyze(q)
	droppedBegin := map[int]bool{}
	for i := range q.Ops {
		if q.Ops[i].Kind >= numKinds {
			infos[i].dead = true
		}
		if infos[i].dead && (q.Ops[i].Kind == KLoop || q.Ops[i].Kind == KIf) {
			droppedBegin[i] = true
		}
	}

	// Pass 2: rebuild against the surviving prefix. Dangling references fall
	// back to -1 (the gtid/imm fallback of the lowering pass) rather than
	// being rerouted, so Repair is the identity on well-formed programs.
	out := make([]Op, 0, len(q.Ops))
	outInfo := make([]opInfo, 0, len(q.Ops))
	oldToNew := make([]int, len(q.Ops))
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	var stack []int // new indices of open structures
	barSeen := false

	curPath := func() []int { return append([]int(nil), stack...) }
	// resolve maps an old reference to its surviving, in-scope new index,
	// or -1 for the lowering fallback.
	resolve := func(old int, pred, needCalm bool, path []int) int {
		if old < 0 || old >= len(oldToNew) {
			return -1
		}
		j := oldToNew[old]
		if j < 0 {
			return -1
		}
		oi := &outInfo[j]
		if pred && !oi.pred || !pred && !oi.val {
			return -1
		}
		if needCalm && oi.vol {
			return -1
		}
		if !isPrefix(oi.path, path) {
			return -1
		}
		return j
	}

	for i, op := range q.Ops {
		if infos[i].dead {
			continue
		}
		op = canon(op)
		path := curPath()
		emit := func(o Op) {
			oi := opInfo{val: definesValue(o.Kind), pred: o.Kind == KSetp, path: path}
			ref := func(j int) (bool, bool) {
				if j < 0 || j >= len(outInfo) {
					return false, false
				}
				return outInfo[j].taint, outInfo[j].vol
			}
			tA, vA := ref(o.A)
			tB, vB := ref(o.B)
			tP, vP := ref(o.P)
			switch o.Kind {
			case KAlu, KSetp:
				oi.taint, oi.vol = tA || tB, vA || vB
			case KSelp, KGuard:
				oi.taint, oi.vol = tA || tB || tP, vA || vB || vP
			case KLoadG, KLoadT, KShLoad:
				oi.taint, oi.vol = true, vA
			case KLoadC:
				oi.taint, oi.vol = false, vA
			case KAtom:
				oi.taint, oi.vol = true, true
			}
			oldToNew[i] = len(out)
			out = append(out, o)
			outInfo = append(outInfo, oi)
		}

		switch op.Kind {
		case KImm:
			emit(op)
		case KAlu, KSetp:
			op.A = resolve(op.A, false, false, path)
			op.B = resolve(op.B, false, false, path)
			if op.Kind == KSetp {
				op.Alu = normIdx(op.Alu, len(cmpOps))
			} else {
				op.Alu = normIdx(op.Alu, len(aluOps))
			}
			emit(op)
		case KSelp, KGuard:
			op.A = resolve(op.A, false, false, path)
			op.B = resolve(op.B, false, false, path)
			op.P = resolve(op.P, true, false, path)
			op.Alu = normIdx(op.Alu, len(aluOps))
			emit(op)
		case KLoadG, KLoadC, KLoadT:
			op.A = resolve(op.A, false, false, path)
			emit(op)
		case KAtom:
			op.A = resolve(op.A, false, true, path)
			op.B = resolve(op.B, false, true, path)
			emit(op)
		case KShStore:
			if len(stack) > 0 || barSeen {
				continue
			}
			op.A = resolve(op.A, false, true, path)
			emit(op)
		case KBar:
			if len(stack) > 0 || barSeen {
				continue
			}
			barSeen = true
			emit(op)
		case KShLoad:
			if !barSeen {
				continue
			}
			op.A = resolve(op.A, false, false, path)
			emit(op)
		case KStore:
			op.A = resolve(op.A, false, true, path)
			emit(op)
		case KLoop:
			op.Imm = op.Imm % MaxTrip
			emit(op)
			stack = append(stack, oldToNew[i])
		case KIf:
			op.P = resolve(op.P, true, true, path)
			if op.P < 0 {
				// No usable predicate: unwrap the block, keep its body.
				droppedBegin[i] = true
				continue
			}
			emit(op)
			stack = append(stack, oldToNew[i])
		case KEnd:
			if infos[i].matchOf < 0 || droppedBegin[infos[i].matchOf] {
				continue
			}
			if len(stack) == 0 {
				continue
			}
			stack = stack[:len(stack)-1]
			emit(op)
		}
	}
	q.Ops = out
	return q
}

// canon normalizes the fields a kind does not read to their -1/0 resting
// values, so that structurally identical programs compare equal and stale
// indices in unused slots can never alias a real reference.
func canon(op Op) Op {
	switch op.Kind {
	case KImm:
		op.A, op.B, op.P, op.Alu = -1, -1, -1, 0
	case KAlu, KSetp:
		op.P = -1
	case KSelp, KGuard:
		// every field is live
	case KLoadG, KLoadT:
		op.B, op.P, op.Alu = -1, -1, 0
	case KLoadC:
		op.B, op.P, op.Alu, op.Imm = -1, -1, 0, 0
	case KAtom:
		op.P, op.Alu = -1, 0
	case KShStore:
		op.B, op.P, op.Alu, op.Imm = -1, -1, 0, 0
	case KBar, KEnd:
		op.A, op.B, op.P, op.Alu, op.Imm = -1, -1, -1, 0, 0
	case KShLoad:
		op.B, op.P, op.Alu, op.Imm = -1, -1, 0, 0
	case KStore:
		op.B, op.P, op.Alu = -1, -1, 0
	case KLoop:
		op.A, op.B, op.P, op.Alu = -1, -1, -1, 0
	case KIf:
		op.A, op.B, op.Alu = -1, -1, 0
	}
	return op
}

// AluIndex returns the KAlu/KGuard Alu selector for an ALU opcode, or -1
// when the opcode is outside the generator's pool. It lets callers that
// assemble IR by hand (internal/families) name operations by opcode instead
// of hard-coding pool positions that would silently shift if the pool
// changed.
func AluIndex(op isa.Opcode) int {
	for i, a := range aluOps {
		if a == op {
			return i
		}
	}
	return -1
}

// normIdx clamps a selector into [0, n).
func normIdx(v, n int) int {
	if v < 0 {
		v = -v
	}
	return v % n
}
