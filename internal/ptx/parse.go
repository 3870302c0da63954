package ptx

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Parse parses a PTX translation unit.
func Parse(src string) (*Module, error) {
	// Counted once, ';', ':' and '@' bound the statements, instructions
	// and guards; ',' and one ';' in two bound the operands but the
	// destinations.
	semis := strings.Count(src, ";")
	p := &parser{
		lex:       lexer{src: src, line: 1},
		body:      make([]Stmt, 0, semis+strings.Count(src, ":")),
		instrs:    arena[Instr]{left: semis, chunk: 128},
		ops:       arena[Operand]{left: strings.Count(src, ",") + semis/2, chunk: 256},
		guards:    arena[Guard]{left: strings.Count(src, "@"), chunk: 256},
		mnemonics: make(map[string]*Instr, 32),
	}
	p.advance()
	m := p.parseModule()
	if p.err != nil {
		return nil, p.err
	}
	return m, nil
}

// arena hands out a module's instructions, operands or guards from
// chunks of at most 20 KiB, small enough to stay cheap to clear, each as
// large as the source still needs by the count Parse made.
type arena[T any] struct {
	free  []T
	left  int // elements the source still needs, by Parse's count
	chunk int // elements a chunk holds at most
}

// slot returns element k of a run open at the front of the arena, the
// run's first k elements already filled, moving the run to a fresh chunk
// when the one it is in is full.
func (a *arena[T]) slot(k int) *T {
	if k == len(a.free) {
		fresh := make([]T, max(2*k, min(a.left, a.chunk), 1))
		copy(fresh, a.free[:k])
		a.free = fresh
	}
	return &a.free[k]
}

// take closes the run of n elements open at the front of the arena and
// returns it, with no room to append in place.
func (a *arena[T]) take(n int) []T {
	out := a.free[:n:n]
	a.free, a.left = a.free[n:], a.left-n
	return out
}

// ParseKernel parses a source containing a single kernel and returns it.
func ParseKernel(src string) (*Kernel, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(m.Kernels) != 1 {
		return nil, &Error{Line: 1, Msg: "expected exactly one kernel"}
	}
	return m.Kernels[0], nil
}

// parser is a recursive-descent parser over the lexer's tokens. Its first
// error ends the parse: err keeps it, the token becomes the end of input,
// and every error reported after it is that one.
type parser struct {
	lex lexer
	tok token
	err error
	// The arena of the module's statements, carved kernel by kernel and
	// sized by Parse, and those of its instructions, operands and guards.
	body   []Stmt
	instrs arena[Instr]
	ops    arena[Operand]
	guards arena[Guard]
	// mnemonics holds each mnemonic decoded so far: a module spells a
	// few dozen, thousands of times over.
	mnemonics map[string]*Instr
}

// advance moves to the next token.
func (p *parser) advance() {
	if p.err == nil {
		p.err = p.lex.next(&p.tok)
	}
	if p.err != nil {
		p.tok = token{kind: tokEOF}
	}
}

// fail records err as the parse's error unless one came first, and
// returns the parse's error.
func (p *parser) fail(err error) error {
	if p.err == nil {
		p.err, p.tok = err, token{kind: tokEOF}
	}
	return p.err
}

func (p *parser) errf(format string, args ...any) error {
	if p.err != nil {
		return p.err
	}
	return p.fail(&Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)})
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.text() != s {
		return p.errf("expected %q, found %q", s, p.tokString())
	}
	p.advance()
	return p.err
}

// atPunct reports whether the token is punctuation c: a punctuation
// token is one byte.
func (p *parser) atPunct(c byte) bool {
	return p.tok.kind == tokPunct && p.lex.src[p.tok.start] == c
}

// text is the token's text, a slice of the source.
func (p *parser) text() string { return p.lex.src[p.tok.start:p.tok.end] }

// tokString is the token as an error message quotes it.
func (p *parser) tokString() string {
	if p.tok.kind == tokEOF {
		return "<eof>"
	}
	return p.text()
}

// decode sets the fields a mnemonic spells on in.
func (p *parser) decode(t *token, in *Instr) error {
	text := p.lex.src[t.start:t.end]
	dec := p.mnemonics[text]
	if dec == nil {
		dec = new(Instr)
		if err := parseMnemonic(text, dec); err != nil {
			return p.fail(&Error{Line: t.line, Msg: err.Error()})
		}
		p.mnemonics[text] = dec
	}
	guard, line, col := in.Guard, in.Line, in.Col
	*in = *dec
	in.Guard, in.Line, in.Col = guard, line, col
	return nil
}

// parseModule parses directives and kernels to the end of input; the
// caller reads p.err.
func (p *parser) parseModule() *Module {
	m := &Module{AddressSize: 64}
	for p.tok.kind != tokEOF {
		if p.tok.kind != tokIdent {
			p.errf("expected directive, found %q", p.tokString())
			return nil
		}
		switch p.text() {
		case ".version":
			p.advance()
			m.Version = p.text()
			p.advance()
		case ".target":
			p.advance()
			m.Target = p.text()
			p.advance()
		case ".address_size":
			p.advance()
			n, err := strconv.Atoi(p.text())
			if err != nil {
				p.errf("bad address size %q", p.text())
				return nil
			}
			m.AddressSize = n
			p.advance()
		case ".global":
			d, err := p.parseVarDecl(SpaceGlobal)
			if err != nil {
				return nil
			}
			m.Globals = append(m.Globals, d)
		case ".visible", ".entry":
			k, err := p.parseKernel()
			if err != nil {
				return nil
			}
			m.Kernels = append(m.Kernels, k)
		default:
			p.errf("unsupported module directive %q", p.text())
			return nil
		}
	}
	return m
}

// parseVarDecl parses `.global|.shared [.align N] .bK name[SIZE];` and
// scalar forms `.global .u32 name;`.
func (p *parser) parseVarDecl(space Space) (VarDecl, error) {
	d := VarDecl{Space: space, Align: 1}
	p.advance() // consume .global/.shared
	if p.text() == ".align" {
		p.advance()
		a, err := strconv.Atoi(p.text())
		if err != nil {
			return d, p.errf("bad alignment %q", p.text())
		}
		d.Align = a
		p.advance()
	}
	ty, ok := parseTypeName(p.text())
	if !ok {
		return d, p.errf("expected type in variable declaration, found %q", p.text())
	}
	p.advance()
	if p.tok.kind != tokIdent {
		return d, p.errf("expected variable name, found %q", p.tokString())
	}
	d.Name = p.text()
	p.advance()
	d.Size = int64(max(ty.Size(), 1))
	if p.atPunct('[') {
		p.advance()
		n, err := strconv.ParseInt(p.text(), 0, 64)
		if err != nil {
			return d, p.errf("bad array size %q", p.text())
		}
		if n < 0 || n > math.MaxInt64/d.Size {
			return d, p.errf("array size %d out of range", n)
		}
		p.advance()
		if err := p.expectPunct("]"); err != nil {
			return d, err
		}
		d.Size *= n
	}
	return d, p.expectPunct(";")
}

func (p *parser) parseKernel() (*Kernel, error) {
	// Optional .visible prefix.
	if p.text() == ".visible" {
		p.advance()
	}
	if p.text() != ".entry" {
		return nil, p.errf("expected .entry, found %q", p.text())
	}
	p.advance()
	if p.tok.kind != tokIdent {
		return nil, p.errf("expected kernel name, found %q", p.tokString())
	}
	k := &Kernel{Name: p.text()}
	p.advance()
	if p.atPunct('(') {
		p.advance()
		for !p.atPunct(')') {
			if p.text() != ".param" {
				return nil, p.errf("expected .param, found %q", p.tokString())
			}
			p.advance()
			ty, ok := parseTypeName(p.text())
			if !ok {
				return nil, p.errf("expected param type, found %q", p.text())
			}
			p.advance()
			if p.tok.kind != tokIdent {
				return nil, p.errf("expected param name, found %q", p.tokString())
			}
			k.Params = append(k.Params, Param{Name: p.text(), Type: ty})
			p.advance()
			if p.atPunct(',') {
				p.advance()
			}
		}
		p.advance() // consume ')'
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	first := len(p.body)
	for !p.atPunct('}') {
		var err error
		switch p.text() {
		case ".reg":
			var rd RegDecl
			rd, err = p.parseRegDecl()
			k.Regs = append(k.Regs, rd)
		case ".shared":
			var d VarDecl
			d, err = p.parseVarDecl(SpaceShared)
			k.Shared = append(k.Shared, d)
		case ".local":
			var d VarDecl
			d, err = p.parseVarDecl(SpaceLocal)
			k.Local = append(k.Local, d)
		default:
			err = p.parseStmt()
		}
		if err != nil {
			return nil, err
		}
	}
	// Capped, so that an append to the body cannot write into the
	// arena's next kernel.
	k.Body = slices.Clip(p.body[first:])
	k.NumberRegs()
	p.advance() // consume '}'
	return k, p.err
}

// parseRegDecl parses `.reg .u32 %r<10>;` or `.reg .pred %p<4>;`.
func (p *parser) parseRegDecl() (RegDecl, error) {
	var rd RegDecl
	p.advance() // consume .reg
	ty, ok := parseTypeName(p.text())
	if !ok {
		return rd, p.errf("expected register type, found %q", p.text())
	}
	rd.Type = ty
	p.advance()
	if p.tok.kind != tokIdent || !strings.HasPrefix(p.text(), "%") {
		return rd, p.errf("expected register prefix, found %q", p.tokString())
	}
	rd.Prefix = p.text()
	p.advance()
	if err := p.expectPunct("<"); err != nil {
		return rd, err
	}
	n, err := strconv.Atoi(p.text())
	if err != nil {
		return rd, p.errf("bad register count %q", p.text())
	}
	rd.Count = n
	p.advance()
	if err := p.expectPunct(">"); err != nil {
		return rd, err
	}
	return rd, p.expectPunct(";")
}

// parseStmt parses one label or instruction into the kernel's arenas.
func (p *parser) parseStmt() error {
	line, col := p.tok.line, p.tok.col
	var mnemonic *token
	// Label: IDENT ':'. Looking past the identifier tells "LBB1:" from
	// "ret;"; an instruction goes on from the token after its mnemonic.
	if p.tok.kind == tokIdent && !strings.HasPrefix(p.text(), "%") && !strings.HasPrefix(p.text(), ".") {
		name := p.tok
		p.advance()
		if p.err != nil {
			return p.err
		}
		if p.atPunct(':') {
			p.body = append(p.body, Stmt{Label: p.lex.src[name.start:name.end], Line: line, Col: col})
			p.advance()
			return p.err
		}
		mnemonic = &name
	}
	in, err := p.parseInstr(mnemonic)
	if err != nil {
		return err
	}
	p.body = append(p.body, Stmt{Instr: in, Line: line, Col: col})
	return nil
}

// parseInstr parses one instruction into p's arenas. A non-nil mnemonic
// is the instruction's first token, already consumed.
func (p *parser) parseInstr(mnemonic *token) (*Instr, error) {
	in := p.instrs.slot(0)
	p.instrs.take(1)
	if mnemonic != nil {
		in.Line, in.Col = mnemonic.line, mnemonic.col
		if err := p.decode(mnemonic, in); err != nil {
			return nil, err
		}
	} else {
		in.Line, in.Col = p.tok.line, p.tok.col
		if err := p.parseGuard(in); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIdent {
			return nil, p.errf("expected instruction mnemonic, found %q", p.tokString())
		}
		if err := p.decode(&p.tok, in); err != nil {
			return nil, err
		}
		p.advance()
	}
	// Operands until ';'. A brace group {%r1, %r2, ...} (vector ld/st)
	// contributes its members in order.
	dst, n := writesDst(in.Op), 0
	for !p.atPunct(';') {
		if p.atPunct('{') {
			p.advance()
			for !p.atPunct('}') {
				if err := p.parseOperand(in, dst, &n); err != nil {
					return nil, err
				}
				if p.atPunct(',') {
					p.advance()
				}
			}
			p.advance() // consume '}'
		} else if err := p.parseOperand(in, dst, &n); err != nil {
			return nil, err
		}
		if p.atPunct(',') {
			p.advance()
		}
	}
	p.advance() // consume ';'
	if p.err != nil {
		return nil, p.err
	}
	in.Args = p.ops.take(n)
	if in.Op == OpBra {
		// The branch target may have parsed as a symbol.
		for i := range in.Args {
			if in.Args[i].Kind == OpndSym {
				in.Args[i].Kind = OpndLabel
			}
		}
	}
	return in, nil
}

// parseGuard parses an optional guard, @%p or @!%p.
func (p *parser) parseGuard(in *Instr) error {
	if !p.atPunct('@') {
		return nil
	}
	p.advance()
	g := p.guards.slot(0)
	p.guards.take(1)
	if p.atPunct('!') {
		g.Neg = true
		p.advance()
	}
	if p.tok.kind != tokIdent || !strings.HasPrefix(p.text(), "%") {
		return p.errf("expected predicate register after @, found %q", p.tokString())
	}
	g.Reg = p.text()
	in.Guard = g
	p.advance()
	return p.err
}

// writesDst reports whether an instruction's first operand is its
// destination.
func writesDst(op Op) bool {
	switch op {
	case OpLd, OpMov, OpAdd, OpSub, OpMul, OpMad, OpDiv, OpRem, OpMin, OpMax,
		OpAnd, OpOr, OpXor, OpNot, OpNeg, OpShl, OpShr, OpSetp, OpSelp,
		OpCvt, OpCvta, OpAtom:
		return true
	}
	return false
}

// parseOperand parses an instruction's next operand: into in.Dst if it
// is the destination of one that writes one, else onto the n operands
// open at the front of the operand arena.
func (p *parser) parseOperand(in *Instr, dst bool, n *int) error {
	if dst && !in.HasDst {
		in.HasDst = true
		return p.operand(&in.Dst)
	}
	*n++
	return p.operand(p.ops.slot(*n - 1))
}

// operand parses one operand into o, which is zero.
func (p *parser) operand(o *Operand) error {
	switch {
	case p.atPunct('['):
		p.advance()
		o.Kind = OpndMem
		if p.tok.kind != tokIdent {
			return p.errf("expected base in memory operand, found %q", p.tokString())
		}
		if strings.HasPrefix(p.text(), "%") {
			o.Reg = p.text()
		} else {
			o.Sym = p.text()
		}
		p.advance()
		if p.atPunct('+') {
			p.advance()
			n, err := strconv.ParseInt(p.text(), 0, 64)
			if err != nil {
				return p.errf("bad memory offset %q", p.text())
			}
			o.Off = n
			p.advance()
		}
		return p.expectPunct("]")
	case p.tok.kind == tokNumber:
		text := p.text()
		p.advance()
		if p.err != nil {
			return p.err
		}
		neg := strings.HasPrefix(text, "-")
		body := strings.TrimPrefix(text, "-")
		if strings.HasPrefix(body, "0f") || strings.HasPrefix(body, "0F") {
			bits, err := strconv.ParseUint(body[2:], 16, 32)
			if err != nil {
				return p.errf("bad float literal %q", text)
			}
			f := float64(math.Float32frombits(uint32(bits)))
			if neg {
				f = -f
			}
			o.Kind, o.F = OpndFImm, f
			return nil
		}
		if strings.ContainsAny(body, ".") && !strings.HasPrefix(body, "0x") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return p.errf("bad float literal %q", text)
			}
			o.Kind, o.F = OpndFImm, f
			return nil
		}
		n, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			// very large unsigned hex
			u, uerr := strconv.ParseUint(body, 0, 64)
			if uerr != nil {
				return p.errf("bad integer literal %q", text)
			}
			n = int64(u)
			if neg {
				n = -n
			}
		}
		o.Kind, o.Imm = OpndImm, n
		return nil
	case p.tok.kind == tokIdent && strings.HasPrefix(p.text(), "%"):
		name := p.text()
		p.advance()
		o.Kind, o.Reg = OpndReg, name
		// Every special register's name starts %t, %n, %c, %l or %w.
		if c := name[1]; c == 't' || c == 'n' || c == 'c' || c == 'l' || c == 'w' {
			if s, ok := sregByName[name]; ok {
				*o = Operand{Kind: OpndSreg, Sreg: s}
			}
		}
		return p.err
	case p.tok.kind == tokIdent && p.text() == "WARP_SZ":
		p.advance()
		o.Kind, o.Sreg = OpndSreg, SregWarpSize
		return p.err
	case p.tok.kind == tokIdent && !strings.HasPrefix(p.text(), "."):
		o.Kind, o.Sym = OpndSym, p.text()
		p.advance()
		return p.err
	}
	return p.errf("unexpected operand %q", p.tokString())
}

// The parser's name tables are the printer's, inverted: each name is
// written once, in ast.go.
var (
	opByName      = invert(opNames)
	spaceByName   = invert(spaceNames)
	cacheByName   = invert(cacheNames)
	typeByName    = invert(typeNames)
	cmpByName     = invert(cmpNames)
	atomByName    = invert(atomNames)
	sregByName    = invert(sregNames)
	logKindByName = invert(logNames)
)

// invert returns the inverse of a name table.
func invert[K comparable](names map[K]string) map[string]K {
	m := make(map[string]K, len(names))
	for k, n := range names {
		m[n] = k
	}
	return m
}

// parseTypeName decodes a type token, which carries its leading dot
// (".u32").
func parseTypeName(s string) (Type, bool) {
	name, dotted := strings.CutPrefix(s, ".")
	t, ok := typeByName[name]
	return t, ok && dotted
}

// parseMnemonic decodes a dotted mnemonic like "ld.global.cg.u32" into the
// instruction's structured fields.
func parseMnemonic(text string, in *Instr) error {
	base, mods, more := strings.Cut(text, ".")
	op, ok := opByName[base]
	if !ok {
		return &Error{Msg: "unknown mnemonic " + base}
	}
	in.Op = op
	if op == OpLog {
		return parseLogMnemonic(mods, more, in)
	}
	for more {
		var m string
		m, mods, more = strings.Cut(mods, ".")
		switch {
		case m == "uni":
			in.Uni = true
		case m == "volatile":
			in.Volatile = true
		case m == "v2":
			in.Vec = 2
		case m == "v4":
			in.Vec = 4
		case m == "wide":
			in.Wide = true
		case m == "lo":
			in.Lo = true
		case m == "hi":
			in.Hi = true
		case m == "sync" || m == "cta" || m == "gl" || m == "sys" || m == "to":
			in.Level = m
		case m == "rn" || m == "rz" || m == "rm" || m == "rp" || m == "ftz" || m == "approx" || m == "full" || m == "sat":
			// Rounding/saturation modifiers: accepted and ignored.
		default:
			if sp, ok := spaceByName[m]; ok {
				in.Space = sp
				continue
			}
			if co, ok := cacheByName[m]; ok && (op == OpLd || op == OpSt) {
				in.Cache = co
				continue
			}
			if cm, ok := cmpByName[m]; ok && op == OpSetp {
				in.Cmp = cm
				continue
			}
			if am, ok := atomByName[m]; ok && (op == OpAtom || op == OpRed) {
				// Ambiguity: "add"/"min"/"max"/"and"/"or"/"xor" are also
				// type-free modifiers only for atomics, where they bind to
				// the atomic op the first time.
				if in.Atom == AtomNone {
					in.Atom = am
					continue
				}
			}
			if t, ok := typeByName[m]; ok {
				if in.Type == TypeNone {
					in.Type = t
				} else if in.Src == TypeNone {
					// Second type: cvt's source type.
					in.Src = t
				}
				continue
			}
			return &Error{Msg: "unknown modifier ." + m + " on " + base}
		}
	}
	return nil
}

// parseLogMnemonic decodes `_log.<kind>[.<space>][.szN]` from the text
// after `_log`; more reports whether a dot led it.
func parseLogMnemonic(mods string, more bool, in *Instr) error {
	if !more {
		return &Error{Msg: "_log requires a kind"}
	}
	kind, mods, more := strings.Cut(mods, ".")
	k, ok := logKindByName[kind]
	if !ok {
		return &Error{Msg: "unknown _log kind " + kind}
	}
	in.LogK = k
	for more {
		var m string
		m, mods, more = strings.Cut(mods, ".")
		if sp, ok := spaceByName[m]; ok {
			in.Space = sp
			continue
		}
		if strings.HasPrefix(m, "sz") {
			n, err := strconv.Atoi(m[2:])
			if err != nil {
				return &Error{Msg: "bad _log size " + m}
			}
			in.AccSz = n
			continue
		}
		return &Error{Msg: "unknown _log modifier ." + m}
	}
	return nil
}
