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
	// and guards. The operands after a destination follow a ',', and the
	// operand arena allows for one instruction in two without one; past
	// that it grows, and what was carved keeps the array it came from.
	semis := strings.Count(src, ";")
	p := &parser{
		lex:    newLexer(src),
		body:   make([]Stmt, 0, semis+strings.Count(src, ":")),
		instrs: make([]Instr, 0, semis),
		ops:    make([]Operand, 0, strings.Count(src, ",")+strings.Count(src, "}")+semis/2),
		guards: make([]Guard, 0, strings.Count(src, "@")),

		mnemonics: make(map[string]*Instr, 32),
	}
	p.advance()
	m := p.parseModule()
	if p.err != nil {
		return nil, p.err
	}
	return m, nil
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
	lex *lexer
	tok token
	err error
	// Arenas the module's statements, instructions, operands and guards
	// are carved from, kernel by kernel, sized by Parse.
	body   []Stmt
	instrs []Instr
	ops    []Operand
	guards []Guard
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
	if p.tok.kind != tokPunct || p.tok.text != s {
		return p.errf("expected %q, found %q", s, p.tok.String())
	}
	p.advance()
	return p.err
}

func (p *parser) atPunct(s string) bool {
	return p.tok.kind == tokPunct && p.tok.text == s
}

// decode sets the fields a mnemonic spells on in.
func (p *parser) decode(t *token, in *Instr) error {
	dec := p.mnemonics[t.text]
	if dec == nil {
		dec = new(Instr)
		if err := parseMnemonic(t.text, dec); err != nil {
			return p.fail(&Error{Line: t.line, Msg: err.Error()})
		}
		p.mnemonics[t.text] = dec
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
			p.errf("expected directive, found %q", p.tok.String())
			return nil
		}
		switch p.tok.text {
		case ".version":
			p.advance()
			m.Version = p.tok.text
			p.advance()
		case ".target":
			p.advance()
			m.Target = p.tok.text
			p.advance()
		case ".address_size":
			p.advance()
			n, err := strconv.Atoi(p.tok.text)
			if err != nil {
				p.errf("bad address size %q", p.tok.text)
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
			p.errf("unsupported module directive %q", p.tok.text)
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
	if p.tok.text == ".align" {
		p.advance()
		a, err := strconv.Atoi(p.tok.text)
		if err != nil {
			return d, p.errf("bad alignment %q", p.tok.text)
		}
		d.Align = a
		p.advance()
	}
	ty, ok := parseTypeName(p.tok.text)
	if !ok {
		return d, p.errf("expected type in variable declaration, found %q", p.tok.text)
	}
	p.advance()
	if p.tok.kind != tokIdent {
		return d, p.errf("expected variable name, found %q", p.tok.String())
	}
	d.Name = p.tok.text
	p.advance()
	d.Size = int64(max(ty.Size(), 1))
	if p.atPunct("[") {
		p.advance()
		n, err := strconv.ParseInt(p.tok.text, 0, 64)
		if err != nil {
			return d, p.errf("bad array size %q", p.tok.text)
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
	if p.tok.text == ".visible" {
		p.advance()
	}
	if p.tok.text != ".entry" {
		return nil, p.errf("expected .entry, found %q", p.tok.text)
	}
	p.advance()
	if p.tok.kind != tokIdent {
		return nil, p.errf("expected kernel name, found %q", p.tok.String())
	}
	k := &Kernel{Name: p.tok.text}
	p.advance()
	if p.atPunct("(") {
		p.advance()
		for !p.atPunct(")") {
			if p.tok.text != ".param" {
				return nil, p.errf("expected .param, found %q", p.tok.String())
			}
			p.advance()
			ty, ok := parseTypeName(p.tok.text)
			if !ok {
				return nil, p.errf("expected param type, found %q", p.tok.text)
			}
			p.advance()
			if p.tok.kind != tokIdent {
				return nil, p.errf("expected param name, found %q", p.tok.String())
			}
			k.Params = append(k.Params, Param{Name: p.tok.text, Type: ty})
			p.advance()
			if p.atPunct(",") {
				p.advance()
			}
		}
		p.advance() // consume ')'
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	first := len(p.body)
	for !p.atPunct("}") {
		var err error
		switch p.tok.text {
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
	ty, ok := parseTypeName(p.tok.text)
	if !ok {
		return rd, p.errf("expected register type, found %q", p.tok.text)
	}
	rd.Type = ty
	p.advance()
	if p.tok.kind != tokIdent || !strings.HasPrefix(p.tok.text, "%") {
		return rd, p.errf("expected register prefix, found %q", p.tok.String())
	}
	rd.Prefix = p.tok.text
	p.advance()
	if err := p.expectPunct("<"); err != nil {
		return rd, err
	}
	n, err := strconv.Atoi(p.tok.text)
	if err != nil {
		return rd, p.errf("bad register count %q", p.tok.text)
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
	if p.tok.kind == tokIdent && !strings.HasPrefix(p.tok.text, "%") && !strings.HasPrefix(p.tok.text, ".") {
		name := p.tok
		p.advance()
		if p.err != nil {
			return p.err
		}
		if p.atPunct(":") {
			p.body = append(p.body, Stmt{Label: name.text, Line: line, Col: col})
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

// parseInstr parses one instruction onto the end of p.instrs, its
// operands onto p.ops and its guard onto p.guards. A non-nil mnemonic is
// the instruction's first token, already consumed.
func (p *parser) parseInstr(mnemonic *token) (*Instr, error) {
	var in Instr
	if mnemonic != nil {
		in.Line, in.Col = mnemonic.line, mnemonic.col
		if err := p.decode(mnemonic, &in); err != nil {
			return nil, err
		}
	} else {
		in.Line, in.Col = p.tok.line, p.tok.col
		if err := p.parseGuard(&in); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIdent {
			return nil, p.errf("expected instruction mnemonic, found %q", p.tok.String())
		}
		if err := p.decode(&p.tok, &in); err != nil {
			return nil, err
		}
		p.advance()
	}
	// Operands until ';'. A brace group {%r1, %r2, ...} (vector ld/st)
	// contributes its members in order.
	first := len(p.ops)
	for !p.atPunct(";") {
		if p.atPunct("{") {
			p.advance()
			for !p.atPunct("}") {
				if err := p.parseOperand(); err != nil {
					return nil, err
				}
				if p.atPunct(",") {
					p.advance()
				}
			}
			p.advance() // consume '}'
		} else if err := p.parseOperand(); err != nil {
			return nil, err
		}
		if p.atPunct(",") {
			p.advance()
		}
	}
	p.advance() // consume ';'
	if p.err != nil {
		return nil, p.err
	}
	p.assignOperands(&in, first)
	p.instrs = append(p.instrs, in)
	return &p.instrs[len(p.instrs)-1], nil
}

// parseGuard parses an optional guard, @%p or @!%p, onto p.guards.
func (p *parser) parseGuard(in *Instr) error {
	if !p.atPunct("@") {
		return nil
	}
	p.advance()
	var g Guard
	if p.atPunct("!") {
		g.Neg = true
		p.advance()
	}
	if p.tok.kind != tokIdent || !strings.HasPrefix(p.tok.text, "%") {
		return p.errf("expected predicate register after @, found %q", p.tok.String())
	}
	g.Reg = p.tok.text
	p.guards = append(p.guards, g)
	in.Guard = &p.guards[len(p.guards)-1]
	p.advance()
	return p.err
}

// assignOperands splits the operands parsed from first on into Dst and
// Args according to the instruction kind; a destination leaves p.ops for
// in.Dst.
func (p *parser) assignOperands(in *Instr, first int) {
	opnds := p.ops[first:]
	switch in.Op {
	case OpLd, OpMov, OpAdd, OpSub, OpMul, OpMad, OpDiv, OpRem, OpMin, OpMax,
		OpAnd, OpOr, OpXor, OpNot, OpNeg, OpShl, OpShr, OpSetp, OpSelp,
		OpCvt, OpCvta, OpAtom:
		if len(opnds) > 0 {
			in.Dst, in.HasDst = opnds[0], true
			p.ops = append(p.ops[:first], opnds[1:]...)
			opnds = p.ops[first:]
		}
	case OpBra:
		// The branch target may have parsed as a symbol.
		for i := range opnds {
			if opnds[i].Kind == OpndSym {
				opnds[i].Kind = OpndLabel
			}
		}
	}
	in.Args = slices.Clip(p.ops[first:])
}

// parseOperand parses one operand onto the end of p.ops.
func (p *parser) parseOperand() error {
	o, err := p.operand()
	if err == nil {
		p.ops = append(p.ops, o)
	}
	return err
}

func (p *parser) operand() (Operand, error) {
	switch {
	case p.atPunct("["):
		p.advance()
		o := Operand{Kind: OpndMem}
		if p.tok.kind != tokIdent {
			return o, p.errf("expected base in memory operand, found %q", p.tok.String())
		}
		if strings.HasPrefix(p.tok.text, "%") {
			o.Reg = p.tok.text
		} else {
			o.Sym = p.tok.text
		}
		p.advance()
		if p.atPunct("+") {
			p.advance()
			n, err := strconv.ParseInt(p.tok.text, 0, 64)
			if err != nil {
				return o, p.errf("bad memory offset %q", p.tok.text)
			}
			o.Off = n
			p.advance()
		}
		return o, p.expectPunct("]")
	case p.tok.kind == tokNumber:
		text := p.tok.text
		p.advance()
		if p.err != nil {
			return Operand{}, p.err
		}
		neg := strings.HasPrefix(text, "-")
		body := strings.TrimPrefix(text, "-")
		if strings.HasPrefix(body, "0f") || strings.HasPrefix(body, "0F") {
			bits, err := strconv.ParseUint(body[2:], 16, 32)
			if err != nil {
				return Operand{}, p.errf("bad float literal %q", text)
			}
			f := float64(math.Float32frombits(uint32(bits)))
			if neg {
				f = -f
			}
			return Operand{Kind: OpndFImm, F: f}, nil
		}
		if strings.ContainsAny(body, ".") && !strings.HasPrefix(body, "0x") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return Operand{}, p.errf("bad float literal %q", text)
			}
			return Operand{Kind: OpndFImm, F: f}, nil
		}
		n, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			// very large unsigned hex
			u, uerr := strconv.ParseUint(body, 0, 64)
			if uerr != nil {
				return Operand{}, p.errf("bad integer literal %q", text)
			}
			n = int64(u)
			if neg {
				n = -n
			}
		}
		return Operand{Kind: OpndImm, Imm: n}, nil
	case p.tok.kind == tokIdent && strings.HasPrefix(p.tok.text, "%"):
		name := p.tok.text
		p.advance()
		// Special registers but %laneid and %warpid are axis-dotted.
		if !strings.Contains(name, ".") && name != "%laneid" && name != "%warpid" {
			return Operand{Kind: OpndReg, Reg: name}, p.err
		}
		if s, ok := sregByName[name]; ok {
			return Operand{Kind: OpndSreg, Sreg: s}, p.err
		}
		return Operand{Kind: OpndReg, Reg: name}, p.err
	case p.tok.kind == tokIdent && p.tok.text == "WARP_SZ":
		p.advance()
		return Operand{Kind: OpndSreg, Sreg: SregWarpSize}, p.err
	case p.tok.kind == tokIdent && !strings.HasPrefix(p.tok.text, "."):
		name := p.tok.text
		p.advance()
		return Operand{Kind: OpndSym, Sym: name}, p.err
	}
	return Operand{}, p.errf("unexpected operand %q", p.tok.String())
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
