package ptx

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"critload/internal/isa"
)

const bfsLikeSrc = `
// Simplified Rodinia BFS step kernel (Code 1 in the paper).
.kernel bfs_step
.param .u32 g_graph_mask
.param .u32 g_graph_nodes
.param .u32 g_graph_edges
.param .u32 g_graph_visited
.param .u32 no_of_nodes

    mov.u32      %r0, %ctaid.x;
    mov.u32      %r1, %ntid.x;
    mad.lo.u32   %r2, %r0, %r1, %tid.x;     // tid
    ld.param.u32 %r3, [no_of_nodes];
    setp.ge.u32  %p0, %r2, %r3;
@%p0 bra EXIT;
    ld.param.u32 %r4, [g_graph_mask];
    shl.u32      %r5, %r2, 2;
    add.u32      %r6, %r4, %r5;
    ld.global.u32 %r7, [%r6];               // mask[tid] (deterministic)
    setp.eq.u32  %p1, %r7, 0;
@%p1 bra EXIT;
    st.global.u32 [%r6], 0;
    ld.param.u32 %r8, [g_graph_nodes];
    add.u32      %r9, %r8, %r5;
    ld.global.u32 %r10, [%r9];              // nodes[tid].start (deterministic)
    ld.global.u32 %r11, [%r9+4];            // nodes[tid].count (deterministic)
    add.u32      %r12, %r10, %r11;          // end
LOOP:
    setp.ge.u32  %p2, %r10, %r12;
@%p2 bra EXIT;
    ld.param.u32 %r13, [g_graph_edges];
    shl.u32      %r14, %r10, 2;
    add.u32      %r15, %r13, %r14;
    ld.global.u32 %r16, [%r15];             // id = edges[i] (non-deterministic)
    ld.param.u32 %r17, [g_graph_visited];
    shl.u32      %r18, %r16, 2;
    add.u32      %r19, %r17, %r18;
    ld.global.u32 %r20, [%r19];             // visited[id] (non-deterministic)
    add.u32      %r10, %r10, 1;
    bra LOOP;
EXIT:
    exit;
`

func parseBFS(t *testing.T) *Kernel {
	t.Helper()
	prog, err := Parse(bfsLikeSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	k, ok := prog.Kernel("bfs_step")
	if !ok {
		t.Fatalf("kernel bfs_step not found")
	}
	return k
}

func TestParseBFSKernel(t *testing.T) {
	k := parseBFS(t)
	if got, want := len(k.Params), 5; got != want {
		t.Errorf("params = %d, want %d", got, want)
	}
	if off, ok := k.ParamOffset("g_graph_edges"); !ok || off != 8 {
		t.Errorf("g_graph_edges offset = %d,%v, want 8,true", off, ok)
	}
	if k.NumRegs != 21 {
		t.Errorf("NumRegs = %d, want 21", k.NumRegs)
	}
	if k.NumPreds != 3 {
		t.Errorf("NumPreds = %d, want 3", k.NumPreds)
	}
	loads := k.GlobalLoads()
	if len(loads) != 5 {
		t.Fatalf("global loads = %d, want 5", len(loads))
	}
	// Branch targets resolved.
	for _, in := range k.Insts {
		if in.Op == isa.OpBra && in.Targ < 0 {
			t.Errorf("unresolved branch %v", in)
		}
	}
	// Labels point at the right instructions.
	exitIdx := k.Labels["EXIT"]
	if k.Insts[exitIdx].Op != isa.OpExit {
		t.Errorf("EXIT label resolves to %v", k.Insts[exitIdx])
	}
}

func TestParseGuards(t *testing.T) {
	prog, err := Parse(`
.kernel g
    setp.lt.u32 %p0, 1, 2;
@%p0 add.u32 %r0, %r0, 1;
@!%p0 add.u32 %r0, %r0, 2;
    exit;
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	k := prog.Kernels[0]
	if g := k.Insts[1].Guard; !g.Active() || g.Reg != 0 || g.Negate {
		t.Errorf("inst1 guard = %+v", g)
	}
	if g := k.Insts[2].Guard; !g.Active() || g.Reg != 0 || !g.Negate {
		t.Errorf("inst2 guard = %+v", g)
	}
}

func TestParseOperandForms(t *testing.T) {
	prog, err := Parse(`
.kernel ops
.param .u32 base
    mov.u32 %r0, %tid.x;
    mov.f32 %r1, 1.5;
    mov.u32 %r2, 0x10;
    mov.u32 %r3, -7;
    ld.param.u32 %r4, [base];
    ld.global.u32 %r5, [%r4+12];
    ld.global.u32 %r6, [%r4-4];
    ld.global.u32 %r7, [4096];
    st.global.u32 [%r4], %r5;
    atom.global.add.u32 %r8, [%r4], 1;
    atom.global.cas.u32 %r9, [%r4], 0, 1;
    cvt.f32.u32 %r10, %r0;
    selp.u32 %r11, %r5, %r6, %p0;
    mul.hi.u32 %r12, %r0, %r2;
    bar.sync;
    exit;
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	k := prog.Kernels[0]
	in := k.Insts
	if in[1].Srcs[0].Kind != isa.OpdFImm || in[1].Srcs[0].Float() != 1.5 {
		t.Errorf("float imm: %v", in[1])
	}
	if in[2].Srcs[0].Imm != 16 {
		t.Errorf("hex imm: %v", in[2])
	}
	if in[3].Srcs[0].Imm != -7 {
		t.Errorf("neg imm: %v", in[3])
	}
	if in[5].Srcs[0].Imm != 12 || in[6].Srcs[0].Imm != -4 {
		t.Errorf("mem offsets: %v / %v", in[5], in[6])
	}
	if in[7].Srcs[0].Reg != -1 || in[7].Srcs[0].Imm != 4096 {
		t.Errorf("absolute mem operand: %v", in[7])
	}
	if in[9].Op != isa.OpAtom || in[9].Atom != isa.AtomAdd {
		t.Errorf("atom add: %v", in[9])
	}
	if in[10].Atom != isa.AtomCAS || in[10].NSrc != 3 {
		t.Errorf("atom cas: %v", in[10])
	}
	if in[11].Op != isa.OpCvt || in[11].Type != isa.F32 || in[11].SrcType != isa.U32 {
		t.Errorf("cvt: %v", in[11])
	}
	if in[13].Op != isa.OpMulHi {
		t.Errorf("mul.hi: %v", in[13])
	}
	if in[14].Op != isa.OpBar {
		t.Errorf("bar.sync: %v", in[14])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"inst outside kernel", "add.u32 %r0, %r1, %r2;", "outside kernel"},
		{"unknown opcode", ".kernel k\n frob.u32 %r0, %r1, %r2; exit;", "unknown opcode"},
		{"undefined label", ".kernel k\n bra NOWHERE; exit;", "undefined label"},
		{"dup label", ".kernel k\nA: exit;\nA: exit;", "duplicate label"},
		{"bad operand count", ".kernel k\n add.u32 %r0, %r1; exit;", "expects 3 operands"},
		{"unknown param", ".kernel k\n ld.param.u32 %r0, [nope]; exit;", "unknown parameter"},
		{"bad space", ".kernel k\n ld.weird.u32 %r0, [%r1]; exit;", "unknown state space"},
		{"setp dest", ".kernel k\n setp.lt.u32 %r0, %r1, %r2; exit;", "predicate register"},
		{"unbalanced bracket", ".kernel k\n ld.global.u32 %r0, [%r1; exit;", "unbalanced"},
		{"dup param", ".kernel k\n.param .u32 a\n.param .u32 a\n exit;", "duplicate param"},
		{"misaligned param offset", ".kernel k\n.param .u32 p\n ld.param.u32 %r0, [p+2]; exit;", "not an aligned word"},
		{"param offset past the end", ".kernel k\n.param .u32 p\n ld.param.u32 %r0, [p+4096]; exit;", "not an aligned word"},
		{"param offset before the start", ".kernel k\n.param .u32 p\n ld.param.u32 %r0, [p-4]; exit;", "not an aligned word"},
		{"alu into a predicate", ".kernel k\n mov.u32 %p0, 1; exit;", "writes a general register"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

// TestParseCapsRegisterIndices checks that a register or predicate index at
// or above its cap is a positioned parse error wherever the index appears,
// and that the highest index under the cap still parses.
func TestParseCapsRegisterIndices(t *testing.T) {
	top := fmt.Sprintf(".kernel k\n    mov.u32 %%r%d, 1;\n    setp.lt.u32 %%p%d, %%r0, 1;\n    exit;\n", MaxRegs-1, MaxPreds-1)
	prog, err := Parse(top)
	if err != nil {
		t.Fatalf("indices just under the caps: %v", err)
	}
	if k := prog.Kernels[0]; k.NumRegs != MaxRegs || k.NumPreds != MaxPreds {
		t.Errorf("NumRegs, NumPreds = %d, %d; want %d, %d", k.NumRegs, k.NumPreds, MaxRegs, MaxPreds)
	}
	for _, tc := range []struct{ name, stmt, tok string }{
		{"destination", "mov.u32 %r100000000, 1", "%r100000000"},
		{"source", fmt.Sprintf("add.u32 %%r0, %%r%d, 1", MaxRegs), fmt.Sprintf("%%r%d", MaxRegs)},
		{"memory base", fmt.Sprintf("ld.global.u32 %%r0, [%%r%d+4]", MaxRegs), fmt.Sprintf("%%r%d", MaxRegs)},
		{"predicate", fmt.Sprintf("setp.lt.u32 %%p%d, %%r0, 1", MaxPreds), fmt.Sprintf("%%p%d", MaxPreds)},
		{"guard", fmt.Sprintf("@!%%p%d exit", MaxPreds), fmt.Sprintf("%%p%d", MaxPreds)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(".kernel k\n    " + tc.stmt + ";\n    exit;\n")
			var pe *ParseError
			if !errors.As(err, &pe) || pe.Line != 2 || !strings.Contains(pe.Msg, tc.tok) || !strings.Contains(pe.Msg, "cap") {
				t.Errorf("error %v, want a line 2 parse error naming %s and the cap", err, tc.tok)
			}
		})
	}
}

// TestParseCapsParams checks that a kernel may declare MaxParams parameters
// and that the next one is a positioned parse error naming the cap.
func TestParseCapsParams(t *testing.T) {
	src := func(n int) string {
		var b strings.Builder
		b.WriteString(".kernel k\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, ".param .u32 p%d\n", i)
		}
		fmt.Fprintf(&b, "    ld.param.u32 %%r0, [p%d];\n    exit;\n", n-1)
		return b.String()
	}
	prog, err := Parse(src(MaxParams))
	if err != nil {
		t.Fatalf("%d params: %v", MaxParams, err)
	}
	if got := len(prog.Kernels[0].Params); got != MaxParams {
		t.Errorf("parsed %d params, want %d", got, MaxParams)
	}
	_, err = Parse(src(MaxParams + 1))
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != MaxParams+2 || !strings.Contains(pe.Msg, "cap") {
		t.Errorf("%d params: %v, want a line %d parse error naming the cap", MaxParams+1, err, MaxParams+2)
	}
}

// TestParseDirectiveErrors exercises every malformed-directive path: wrong
// arity, bad names and types, directives outside a kernel, and unknown
// directives. The assertions are on the message text, so a reworded or
// dropped diagnostic fails loudly.
func TestParseDirectiveErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"kernel missing name", ".kernel", "usage: .kernel <name>"},
		{"kernel bad name", ".kernel 9lives", "usage: .kernel <name>"},
		{"kernel extra field", ".kernel a b", "usage: .kernel <name>"},
		{"param outside kernel", ".param .u32 n", ".param outside kernel"},
		{"param missing name", ".kernel k\n.param .u32\n exit;", "usage: .param .<type> <name>"},
		{"param bad type", ".kernel k\n.param .q13 n\n exit;", "bad param type"},
		{"param bad name", ".kernel k\n.param .u32 7up\n exit;", "bad param name"},
		{"shared outside kernel", ".shared 128", ".shared outside kernel"},
		{"shared missing size", ".kernel k\n.shared\n exit;", "usage: .shared <bytes>"},
		{"shared non-numeric size", ".kernel k\n.shared lots\n exit;", "bad shared size"},
		{"shared negative size", ".kernel k\n.shared -16\n exit;", "bad shared size"},
		{"unknown directive", ".frobnicate 3", "unknown directive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

// TestParseTruncatedAndOperandErrors covers truncated kernel bodies (dangling
// labels, bare guards) and the operand-level diagnostics: modifier overflow,
// malformed immediates and offsets, and address-shape requirements for
// st/atom/ld.
func TestParseTruncatedAndOperandErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"label at end of kernel", ".kernel k\n exit;\nTAIL:", "without instruction"},
		{"label at end before next kernel", ".kernel k\n exit;\nTAIL:\n.kernel j\n exit;", "without instruction"},
		{"guard without instruction", ".kernel k\n@%p0;\n exit;", "guard without instruction"},
		{"bad guard register", ".kernel k\n@%r0 add.u32 %r0, %r1, %r2; exit;", "bad guard"},
		{"too many modifiers", ".kernel k\n add.u32.u32.u32 %r0, %r1, %r2; exit;", "too many modifiers"},
		{"two types on non-cvt", ".kernel k\n add.u32.s32 %r0, %r1, %r2; exit;", "too many type modifiers"},
		{"unknown type modifier", ".kernel k\n add.q96 %r0, %r1, %r2; exit;", "unknown type"},
		{"bad cvt types", ".kernel k\n cvt.q1.q2 %r0, %r1; exit;", "bad cvt types"},
		{"unknown comparison", ".kernel k\n setp.zz.u32 %p0, %r1, %r2; exit;", "unknown comparison"},
		{"empty operand", ".kernel k\n add.u32 %r0, , %r2; exit;", "empty operand"},
		{"unbalanced close bracket", ".kernel k\n add.u32 %r0, %r1], %r2; exit;", "unbalanced ']'"},
		{"bad float immediate", ".kernel k\n mov.f32 %r0, 1.2.3; exit;", "bad float immediate"},
		{"bad integer immediate", ".kernel k\n mov.u32 %r0, 12abc; exit;", "bad immediate"},
		{"unknown register", ".kernel k\n add.u32 %r0, %zz9, %r2; exit;", "unknown register"},
		{"bad offset", ".kernel k\n ld.global.u32 %r0, [%r1+zz]; exit;", "bad offset in"},
		{"bad base register", ".kernel k\n ld.global.u32 %r0, [%rq]; exit;", "bad base register"},
		{"st without address", ".kernel k\n st.global.u32 %r0, %r1; exit;", "st expects [addr] first"},
		{"atom without address", ".kernel k\n atom.global.add.u32 %r0, %r1, %r2; exit;", "atom expects [addr]"},
		{"ld without memory operand", ".kernel k\n ld.global.u32 %r0, %r1; exit;", "ld expects a memory operand"},
		{"ld.param non-param operand", ".kernel k\n.param .u32 n\n ld.param.u32 %r0, [%r1]; exit;", "ld.param expects [name]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	k := parseBFS(t)
	text := k.Disassemble()
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse of disassembly failed: %v\n%s", err, text)
	}
	k2 := prog2.Kernels[0]
	if len(k2.Insts) != len(k.Insts) {
		t.Fatalf("roundtrip length %d != %d", len(k2.Insts), len(k.Insts))
	}
	for i := range k.Insts {
		if k.Insts[i].String() != k2.Insts[i].String() {
			t.Errorf("inst %d: %q != %q", i, k.Insts[i], k2.Insts[i])
		}
	}
}

func TestMultipleKernels(t *testing.T) {
	prog, err := Parse(`
.kernel a
    exit;
.kernel b
    mov.u32 %r0, 1;
    exit;
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(prog.Kernels) != 2 {
		t.Fatalf("kernels = %d, want 2", len(prog.Kernels))
	}
	if _, ok := prog.Kernel("b"); !ok {
		t.Errorf("kernel b missing")
	}
	if prog.MustKernel("a").Name != "a" {
		t.Errorf("MustKernel(a) wrong kernel")
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	k := &Kernel{Name: "bad", Labels: map[string]int{}}
	in := &isa.Instruction{Op: isa.OpMov, Dst: isa.Reg(5), Guard: isa.NoGuard}
	in.Srcs[0] = isa.Imm(0)
	in.NSrc = 1
	k.Insts = append(k.Insts, in)
	k.NumRegs = 2 // %r5 out of range
	if err := k.Validate(); err == nil {
		t.Errorf("Validate accepted out-of-range register")
	}
}
