package ptx

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"critload/internal/isa"
)

// ParseError reports a syntax or semantic error with source position.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ptx: line %d: %s", e.Line, e.Msg)
}

// Parse assembles a source unit into a Program. Every kernel is validated and
// control-flow targets are resolved before returning.
func Parse(src string) (*Program, error) {
	p := &parser{}
	if err := p.run(src); err != nil {
		return nil, err
	}
	prog := &Program{Kernels: p.kernels}
	for _, k := range prog.Kernels {
		if err := k.Validate(); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// MustParse assembles src or panics. Workload kernel sources are compile-time
// constants, so a parse failure is a programming error.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	kernels []*Kernel
	cur     *Kernel
	insts   []*isa.Instruction // the current kernel's instructions so far
	pending []string           // labels waiting for the next instruction
	line    int
	// Instructions are carved from slab, allocated in chunks sized by the
	// statements still expected (left), so a parse allocates a handful of
	// blocks instead of one object per instruction.
	slab []isa.Instruction
	left int
	opds [4]isa.Operand // the current statement's operands
}

// maxSlab bounds one slab chunk, so a misestimate wastes little.
const maxSlab = 1024

// newInst carves a fresh instruction from the slab.
func (p *parser) newInst() *isa.Instruction {
	if len(p.slab) == 0 {
		p.slab = make([]isa.Instruction, min(max(p.left, 32), maxSlab))
	}
	in := &p.slab[0]
	p.slab = p.slab[1:]
	p.left--
	*in = isa.Instruction{Guard: isa.NoGuard, Targ: -1}
	return in
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) run(src string) error {
	// Every instruction Disassemble prints ends in ';', so the count sizes
	// the slab exactly for generated text.
	p.left = strings.Count(src, ";")
	for line, more := 1, true; more; line++ {
		var raw string
		raw, src, more = strings.Cut(src, "\n")
		p.line = line
		// A line may hold several ';'-separated statements.
		stmts, next := stripComment(raw), true
		for next {
			var stmt string
			stmt, stmts, next = strings.Cut(stmts, ";")
			if stmt = strings.TrimSpace(stmt); stmt == "" {
				continue
			}
			if err := p.statement(stmt); err != nil {
				return err
			}
		}
	}
	return p.finishKernel()
}

func stripComment(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "#"); i >= 0 {
		line = line[:i]
	}
	return line
}

func (p *parser) statement(stmt string) error {
	// Labels: "NAME:" possibly followed by an instruction on the same stmt.
	for {
		colon := strings.Index(stmt, ":")
		if colon < 0 {
			break
		}
		head := strings.TrimSpace(stmt[:colon])
		if !isIdent(head) {
			break
		}
		if p.cur == nil {
			return p.errf("label %q outside kernel", head)
		}
		if _, dup := p.cur.Labels[head]; dup {
			return p.errf("duplicate label %q", head)
		}
		p.pending = append(p.pending, head)
		stmt = strings.TrimSpace(stmt[colon+1:])
	}
	if stmt == "" {
		return nil
	}
	if strings.HasPrefix(stmt, ".") {
		return p.directive(stmt)
	}
	if p.cur == nil {
		return p.errf("instruction outside kernel: %q", stmt)
	}
	in, err := p.instruction(stmt)
	if err != nil {
		return err
	}
	idx := len(p.insts)
	in.Index = idx
	in.PC = uint32(idx * isa.InstBytes)
	for _, l := range p.pending {
		p.cur.Labels[l] = idx
	}
	p.pending = p.pending[:0]
	p.insts = append(p.insts, in)
	return nil
}

func (p *parser) directive(stmt string) error {
	var fields [3]string
	nf := splitFields(stmt, fields[:])
	switch fields[0] {
	case ".kernel", ".entry":
		if err := p.finishKernel(); err != nil {
			return err
		}
		if nf != 2 || !isIdent(fields[1]) {
			return p.errf("usage: .kernel <name>")
		}
		p.cur = &Kernel{Name: fields[1], Labels: map[string]int{}}
		return nil
	case ".param":
		if p.cur == nil {
			return p.errf(".param outside kernel")
		}
		// ".param .u32 name" or ".param u32 name"
		if nf != 3 {
			return p.errf("usage: .param .<type> <name>")
		}
		t, ok := parseDType(strings.TrimPrefix(fields[1], "."))
		if !ok {
			return p.errf("bad param type %q", fields[1])
		}
		name := fields[2]
		if !isIdent(name) {
			return p.errf("bad param name %q", name)
		}
		if len(p.cur.Params) == MaxParams {
			return p.errf("param %q is beyond the cap of %d parameters", name, MaxParams)
		}
		if _, dup := p.cur.ParamOffset(name); dup {
			return p.errf("duplicate param %q", name)
		}
		p.cur.Params = append(p.cur.Params, ParamDecl{
			Name: name, Type: t, Offset: len(p.cur.Params) * ParamSize,
		})
		return nil
	case ".shared":
		if p.cur == nil {
			return p.errf(".shared outside kernel")
		}
		if nf != 2 {
			return p.errf("usage: .shared <bytes>")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return p.errf("bad shared size %q", fields[1])
		}
		p.cur.SharedBytes = n
		return nil
	default:
		return p.errf("unknown directive %q", fields[0])
	}
}

func (p *parser) finishKernel() error {
	if p.cur == nil {
		return nil
	}
	if len(p.pending) > 0 {
		return p.errf("labels %v at end of kernel without instruction", p.pending)
	}
	k := p.cur
	p.cur = nil
	k.Insts = append([]*isa.Instruction(nil), p.insts...)
	p.insts = p.insts[:0]
	if err := k.finish(); err != nil {
		return p.errf("%v", err)
	}
	p.kernels = append(p.kernels, k)
	return nil
}

// instruction parses one instruction statement (guard, mnemonic, operands).
func (p *parser) instruction(stmt string) (*isa.Instruction, error) {
	in := p.newInst()

	// Optional guard "@%p1" or "@!%p1".
	if strings.HasPrefix(stmt, "@") {
		sp := strings.IndexAny(stmt, " \t")
		if sp < 0 {
			return nil, p.errf("guard without instruction: %q", stmt)
		}
		g := stmt[1:sp]
		neg := false
		if strings.HasPrefix(g, "!") {
			neg = true
			g = g[1:]
		}
		reg, ok := parsePredName(g)
		if !ok {
			return nil, p.errf("bad guard %q", stmt[:sp])
		}
		if err := p.capped(g, reg, MaxPreds, "predicates"); err != nil {
			return nil, err
		}
		in.Guard = isa.PredGuard{Reg: reg, Negate: neg}
		stmt = strings.TrimSpace(stmt[sp:])
	}

	sp := strings.IndexAny(stmt, " \t")
	mnemonic := stmt
	rest := ""
	if sp >= 0 {
		mnemonic = stmt[:sp]
		rest = strings.TrimSpace(stmt[sp:])
	}
	if err := p.decodeMnemonic(in, mnemonic); err != nil {
		return nil, err
	}

	// Branch operand is a label, not a normal operand.
	if in.Op == isa.OpBra {
		if !isIdent(rest) {
			return nil, p.errf("bra needs a label, got %q", rest)
		}
		in.Label = rest
		return in, nil
	}
	if in.Op == isa.OpExit || in.Op == isa.OpRet || in.Op == isa.OpBar || in.Op == isa.OpNop {
		if rest != "" {
			return nil, p.errf("%s takes no operands", in.Op)
		}
		return in, nil
	}

	n, err := p.operands(rest)
	if err != nil {
		return nil, err
	}
	return in, p.assignOperands(in, p.opds[:min(n, len(p.opds))], n)
}

// modifiers walks the dot-separated modifiers of a mnemonic in place.
type modifiers struct {
	rest string
	n    int // modifiers left
}

func (m *modifiers) peek() string {
	s, _, _ := strings.Cut(m.rest, ".")
	return s
}

func (m *modifiers) pop() string {
	s, rest, _ := strings.Cut(m.rest, ".")
	m.rest = rest
	m.n--
	return s
}

// decodeMnemonic splits "ld.global.u32" style mnemonics into opcode, state
// space, comparison, atomic op and data type.
func (p *parser) decodeMnemonic(in *isa.Instruction, m string) error {
	head, rest, dotted := strings.Cut(m, ".")
	mods := modifiers{rest: rest}
	if dotted {
		mods.n = strings.Count(rest, ".") + 1
	}

	// Multi-token opcodes first.
	switch m {
	case "bar.sync":
		in.Op = isa.OpBar
		return nil
	}
	op, ok := opcodeByName(head)
	if !ok {
		return p.errf("unknown opcode %q", m)
	}
	in.Op = op
	in.Type = isa.U32 // default

	switch op {
	case isa.OpLd, isa.OpSt, isa.OpAtom:
		if mods.n < 2 {
			return p.errf("%s needs .<space>.<type>", head)
		}
		name := mods.pop()
		space, ok := spaceByName(name)
		if !ok {
			return p.errf("unknown state space %q in %q", name, m)
		}
		in.Space = space
		if op == isa.OpAtom {
			name := mods.pop()
			a, ok := atomByName(name)
			if !ok {
				return p.errf("unknown atomic op %q in %q", name, m)
			}
			in.Atom = a
		}
	case isa.OpSetp:
		if mods.n < 2 {
			return p.errf("setp needs .<cmp>.<type>")
		}
		name := mods.pop()
		c, ok := cmpByName(name)
		if !ok {
			return p.errf("unknown comparison %q", name)
		}
		in.Cmp = c
	case isa.OpMul, isa.OpMad:
		// Accept and fold the PTX ".lo"/".hi" width modifiers.
		if mods.n > 0 && mods.peek() == "lo" {
			mods.pop()
		} else if mods.n > 0 && mods.peek() == "hi" {
			in.Op = isa.OpMulHi
			mods.pop()
		}
	case isa.OpDiv, isa.OpSqrt, isa.OpRcp, isa.OpRsqrt, isa.OpSin, isa.OpCos, isa.OpEx2, isa.OpLg2:
		// Accept ".approx"/".rn"/".full" rounding modifiers.
		if r := mods.peek(); mods.n > 0 && (r == "approx" || r == "rn" || r == "full") {
			mods.pop()
		}
	}

	// Remaining modifiers must be types. cvt takes dst then src type.
	switch mods.n {
	case 0:
		// keep default
	case 1:
		name := mods.pop()
		t, ok := parseDType(name)
		if !ok {
			return p.errf("unknown type %q in %q", name, m)
		}
		in.Type = t
	case 2:
		if in.Op != isa.OpCvt {
			return p.errf("too many type modifiers in %q", m)
		}
		dt, ok1 := parseDType(mods.pop())
		st, ok2 := parseDType(mods.pop())
		if !ok1 || !ok2 {
			return p.errf("bad cvt types in %q", m)
		}
		in.Type = dt
		in.SrcType = st
	default:
		return p.errf("too many modifiers in %q", m)
	}
	return nil
}

// operands parses an operand list, respecting [...] brackets, into p.opds.
// It returns how many operands the list has; those past len(p.opds) are
// parsed for errors but not kept, since no opcode takes that many.
func (p *parser) operands(rest string) (int, error) {
	n, depth, start := 0, 0, 0
	for i := 0; i <= len(rest); i++ {
		if i < len(rest) {
			switch rest[i] {
			case '[':
				depth++
				continue
			case ']':
				depth--
				if depth < 0 {
					return 0, p.errf("unbalanced ']' in %q", rest)
				}
				continue
			case ',':
				if depth != 0 {
					continue
				}
			default:
				continue
			}
		} else if depth != 0 {
			return 0, p.errf("unbalanced '[' in %q", rest)
		}
		tok := strings.TrimSpace(rest[start:i])
		if tok == "" {
			return 0, p.errf("empty operand in %q", rest)
		}
		o, err := p.operand(tok)
		if err != nil {
			return 0, err
		}
		if n < len(p.opds) {
			p.opds[n] = o
		}
		n++
		start = i + 1
	}
	return n, nil
}

func (p *parser) operand(tok string) (isa.Operand, error) {
	switch {
	case strings.HasPrefix(tok, "["):
		if !strings.HasSuffix(tok, "]") {
			return isa.Operand{}, p.errf("bad memory operand %q", tok)
		}
		return p.memOperand(strings.TrimSpace(tok[1 : len(tok)-1]))
	case strings.HasPrefix(tok, "%"):
		if r, ok := isa.SpecialRegByName(tok); ok {
			return isa.SReg(r), nil
		}
		if r, ok := parseRegName(tok); ok {
			return isa.Reg(r), p.capped(tok, r, MaxRegs, "registers")
		}
		if r, ok := parsePredName(strings.TrimPrefix(tok, "%")); ok && strings.HasPrefix(tok, "%p") {
			return isa.PredReg(r), p.capped(tok, r, MaxPreds, "predicates")
		}
		return isa.Operand{}, p.errf("unknown register %q", tok)
	default:
		if strings.ContainsAny(tok, ".eE") && !strings.HasPrefix(tok, "0x") && !strings.HasPrefix(tok, "-0x") {
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return isa.Operand{}, p.errf("bad float immediate %q", tok)
			}
			return isa.FImm(f), nil
		}
		v, err := strconv.ParseInt(tok, 0, 64)
		if err != nil {
			return isa.Operand{}, p.errf("bad immediate %q", tok)
		}
		return isa.Imm(v), nil
	}
}

// memOperand parses the inside of [...]: "%r3", "%r3+8", "%r3-4", "name",
// "name+8", or an absolute integer address.
func (p *parser) memOperand(body string) (isa.Operand, error) {
	base := body
	var off int64
	// Find a +/- separating base from offset (not at position 0).
	for i := 1; i < len(body); i++ {
		if body[i] == '+' || body[i] == '-' {
			base = strings.TrimSpace(body[:i])
			o, err := strconv.ParseInt(strings.TrimSpace(body[i:]), 0, 64)
			if err != nil {
				return isa.Operand{}, p.errf("bad offset in [%s]", body)
			}
			off = o
			break
		}
	}
	switch {
	case strings.HasPrefix(base, "%"):
		r, ok := parseRegName(base)
		if !ok {
			return isa.Operand{}, p.errf("bad base register in [%s]", body)
		}
		return isa.Mem(r, off), p.capped(base, r, MaxRegs, "registers")
	case isIdent(base):
		return isa.Param(base, off), nil
	default:
		v, err := strconv.ParseInt(base, 0, 64)
		if err != nil {
			return isa.Operand{}, p.errf("bad memory operand [%s]", body)
		}
		return isa.Mem(-1, v+off), nil
	}
}

// assignOperands distributes parsed operands into dst/src slots per opcode;
// n is the statement's operand count, of which opds holds the first ones.
func (p *parser) assignOperands(in *isa.Instruction, opds []isa.Operand, n int) error {
	need := func(want int) error {
		if n != want {
			return p.errf("%s expects %d operands, got %d", in.Op, want, n)
		}
		return nil
	}
	setSrcs := func(srcs ...isa.Operand) {
		copy(in.Srcs[:], srcs)
		in.NSrc = len(srcs)
	}
	switch in.Op {
	case isa.OpSt:
		if err := need(2); err != nil {
			return err
		}
		if opds[0].Kind != isa.OpdMem {
			return p.errf("st expects [addr] first")
		}
		setSrcs(opds[0], opds[1])
	case isa.OpLd:
		if err := need(2); err != nil {
			return err
		}
		in.Dst = opds[0]
		if in.Space == isa.SpaceParam {
			if opds[1].Kind != isa.OpdParam {
				return p.errf("ld.param expects [name]")
			}
		} else if opds[1].Kind != isa.OpdMem && opds[1].Kind != isa.OpdParam {
			return p.errf("ld expects a memory operand")
		}
		setSrcs(opds[1])
	case isa.OpAtom:
		// atom.space.op.type d, [a], b  (CAS: d, [a], b, c)
		if in.Atom == isa.AtomCAS {
			if err := need(4); err != nil {
				return err
			}
			in.Dst = opds[0]
			setSrcs(opds[1], opds[2], opds[3])
		} else {
			if err := need(3); err != nil {
				return err
			}
			in.Dst = opds[0]
			setSrcs(opds[1], opds[2])
		}
		if in.Srcs[0].Kind != isa.OpdMem {
			return p.errf("atom expects [addr]")
		}
	case isa.OpSetp:
		if err := need(3); err != nil {
			return err
		}
		if opds[0].Kind != isa.OpdPred {
			return p.errf("setp destination must be a predicate register")
		}
		in.Dst = opds[0]
		setSrcs(opds[1], opds[2])
	case isa.OpSelp:
		if err := need(4); err != nil {
			return err
		}
		in.Dst = opds[0]
		setSrcs(opds[1], opds[2], opds[3])
	case isa.OpMad:
		if err := need(4); err != nil {
			return err
		}
		in.Dst = opds[0]
		setSrcs(opds[1], opds[2], opds[3])
	case isa.OpMov, isa.OpNot, isa.OpAbs, isa.OpNeg, isa.OpCvt,
		isa.OpSqrt, isa.OpRsqrt, isa.OpRcp, isa.OpSin, isa.OpCos, isa.OpEx2, isa.OpLg2:
		if err := need(2); err != nil {
			return err
		}
		in.Dst = opds[0]
		setSrcs(opds[1])
	default: // two-source arithmetic
		if err := need(3); err != nil {
			return err
		}
		in.Dst = opds[0]
		setSrcs(opds[1], opds[2])
	}
	return nil
}

func opcodeByName(name string) (isa.Opcode, bool) {
	switch name {
	case "nop":
		return isa.OpNop, true
	case "mov":
		return isa.OpMov, true
	case "add":
		return isa.OpAdd, true
	case "sub":
		return isa.OpSub, true
	case "mul":
		return isa.OpMul, true
	case "mad", "fma":
		return isa.OpMad, true
	case "div":
		return isa.OpDiv, true
	case "rem":
		return isa.OpRem, true
	case "min":
		return isa.OpMin, true
	case "max":
		return isa.OpMax, true
	case "abs":
		return isa.OpAbs, true
	case "neg":
		return isa.OpNeg, true
	case "and":
		return isa.OpAnd, true
	case "or":
		return isa.OpOr, true
	case "xor":
		return isa.OpXor, true
	case "not":
		return isa.OpNot, true
	case "shl":
		return isa.OpShl, true
	case "shr":
		return isa.OpShr, true
	case "setp":
		return isa.OpSetp, true
	case "selp":
		return isa.OpSelp, true
	case "cvt":
		return isa.OpCvt, true
	case "sqrt":
		return isa.OpSqrt, true
	case "rsqrt":
		return isa.OpRsqrt, true
	case "rcp":
		return isa.OpRcp, true
	case "sin":
		return isa.OpSin, true
	case "cos":
		return isa.OpCos, true
	case "ex2":
		return isa.OpEx2, true
	case "lg2":
		return isa.OpLg2, true
	case "ld":
		return isa.OpLd, true
	case "st":
		return isa.OpSt, true
	case "atom":
		return isa.OpAtom, true
	case "bra":
		return isa.OpBra, true
	case "exit":
		return isa.OpExit, true
	case "ret":
		return isa.OpRet, true
	}
	return 0, false
}

func spaceByName(name string) (isa.MemSpace, bool) {
	switch name {
	case "global":
		return isa.SpaceGlobal, true
	case "shared":
		return isa.SpaceShared, true
	case "local":
		return isa.SpaceLocal, true
	case "const":
		return isa.SpaceConst, true
	case "param":
		return isa.SpaceParam, true
	case "tex":
		return isa.SpaceTex, true
	}
	return 0, false
}

func cmpByName(name string) (isa.CmpOp, bool) {
	switch name {
	case "eq":
		return isa.CmpEQ, true
	case "ne":
		return isa.CmpNE, true
	case "lt":
		return isa.CmpLT, true
	case "le":
		return isa.CmpLE, true
	case "gt":
		return isa.CmpGT, true
	case "ge":
		return isa.CmpGE, true
	}
	return 0, false
}

func atomByName(name string) (isa.AtomOp, bool) {
	switch name {
	case "add":
		return isa.AtomAdd, true
	case "min":
		return isa.AtomMin, true
	case "max":
		return isa.AtomMax, true
	case "exch":
		return isa.AtomExch, true
	case "cas":
		return isa.AtomCAS, true
	case "or":
		return isa.AtomOr, true
	case "and":
		return isa.AtomAnd, true
	}
	return 0, false
}

func parseDType(s string) (isa.DType, bool) {
	switch s {
	case "u32":
		return isa.U32, true
	case "s32":
		return isa.S32, true
	case "f32":
		return isa.F32, true
	case "b32":
		return isa.B32, true
	case "pred":
		return isa.Pred, true
	}
	return 0, false
}

// capped rejects register index n, written tok, unless it is below limit,
// the cap of its register file.
func (p *parser) capped(tok string, n, limit int, file string) error {
	if n < limit {
		return nil
	}
	return p.errf("%s is beyond the cap of %d %s", tok, limit, file)
}

func parseRegName(s string) (int, bool) {
	if !strings.HasPrefix(s, "%r") {
		return 0, false
	}
	n, err := strconv.Atoi(s[2:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func parsePredName(s string) (int, bool) {
	s = strings.TrimPrefix(s, "%")
	if !strings.HasPrefix(s, "p") {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// splitFields stores the first len(dst) white-space separated fields of s in
// dst, as strings.Fields would split them, and returns how many fields s has.
func splitFields(s string, dst []string) int {
	n := 0
	for {
		i := strings.IndexFunc(s, isNotSpace)
		if i < 0 {
			return n
		}
		s = s[i:]
		field := s
		if j := strings.IndexFunc(s, unicode.IsSpace); j >= 0 {
			field, s = s[:j], s[j:]
		} else {
			s = ""
		}
		if n < len(dst) {
			dst[n] = field
		}
		n++
	}
}

func isNotSpace(r rune) bool { return !unicode.IsSpace(r) }

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
