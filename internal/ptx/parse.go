package ptx

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse parses a PTX translation unit.
func Parse(src string) (*Module, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.parseModule()
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

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) *Error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return p.errf("expected %q, found %q", s, p.tok.String())
	}
	return p.advance()
}

func (p *parser) atPunct(s string) bool {
	return p.tok.kind == tokPunct && p.tok.text == s
}

func (p *parser) parseModule() (*Module, error) {
	m := &Module{AddressSize: 64}
	for p.tok.kind != tokEOF {
		if p.tok.kind != tokIdent {
			return nil, p.errf("expected directive, found %q", p.tok.String())
		}
		switch {
		case p.tok.text == ".version":
			if err := p.advance(); err != nil {
				return nil, err
			}
			m.Version = p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.tok.text == ".target":
			if err := p.advance(); err != nil {
				return nil, err
			}
			m.Target = p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.tok.text == ".address_size":
			if err := p.advance(); err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(p.tok.text)
			if err != nil {
				return nil, p.errf("bad address size %q", p.tok.text)
			}
			m.AddressSize = n
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.tok.text == ".global":
			d, err := p.parseVarDecl(SpaceGlobal)
			if err != nil {
				return nil, err
			}
			m.Globals = append(m.Globals, d)
		case p.tok.text == ".visible" || p.tok.text == ".entry":
			k, err := p.parseKernel()
			if err != nil {
				return nil, err
			}
			m.Kernels = append(m.Kernels, k)
		default:
			return nil, p.errf("unsupported module directive %q", p.tok.text)
		}
	}
	return m, nil
}

// parseVarDecl parses `.global|.shared [.align N] .bK name[SIZE];` and
// scalar forms `.global .u32 name;`.
func (p *parser) parseVarDecl(space Space) (VarDecl, error) {
	d := VarDecl{Space: space, Align: 1}
	if err := p.advance(); err != nil { // consume .global/.shared
		return d, err
	}
	if p.tok.text == ".align" {
		if err := p.advance(); err != nil {
			return d, err
		}
		a, err := strconv.Atoi(p.tok.text)
		if err != nil {
			return d, p.errf("bad alignment %q", p.tok.text)
		}
		d.Align = a
		if err := p.advance(); err != nil {
			return d, err
		}
	}
	ty, ok := parseTypeName(p.tok.text)
	if !ok {
		return d, p.errf("expected type in variable declaration, found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return d, err
	}
	if p.tok.kind != tokIdent {
		return d, p.errf("expected variable name, found %q", p.tok.String())
	}
	d.Name = p.tok.text
	if err := p.advance(); err != nil {
		return d, err
	}
	if p.atPunct("[") {
		if err := p.advance(); err != nil {
			return d, err
		}
		n, err := strconv.ParseInt(p.tok.text, 0, 64)
		if err != nil {
			return d, p.errf("bad array size %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return d, err
		}
		if err := p.expectPunct("]"); err != nil {
			return d, err
		}
		d.Size = n * int64(max(ty.Size(), 1))
	} else {
		d.Size = int64(max(ty.Size(), 1))
	}
	if err := p.expectPunct(";"); err != nil {
		return d, err
	}
	return d, nil
}

func (p *parser) parseKernel() (*Kernel, error) {
	// Optional .visible prefix.
	if p.tok.text == ".visible" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.text != ".entry" {
		return nil, p.errf("expected .entry, found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tokIdent {
		return nil, p.errf("expected kernel name, found %q", p.tok.String())
	}
	k := &Kernel{Name: p.tok.text}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.atPunct("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for !p.atPunct(")") {
			if p.tok.text != ".param" {
				return nil, p.errf("expected .param, found %q", p.tok.String())
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			ty, ok := parseTypeName(p.tok.text)
			if !ok {
				return nil, p.errf("expected param type, found %q", p.tok.text)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokIdent {
				return nil, p.errf("expected param name, found %q", p.tok.String())
			}
			k.Params = append(k.Params, Param{Name: p.tok.text, Type: ty})
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.atPunct(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.advance(); err != nil { // consume ')'
			return nil, err
		}
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !p.atPunct("}") {
		switch {
		case p.tok.text == ".reg":
			rd, err := p.parseRegDecl()
			if err != nil {
				return nil, err
			}
			k.Regs = append(k.Regs, rd)
		case p.tok.text == ".shared":
			d, err := p.parseVarDecl(SpaceShared)
			if err != nil {
				return nil, err
			}
			k.Shared = append(k.Shared, d)
		case p.tok.text == ".local":
			d, err := p.parseVarDecl(SpaceLocal)
			if err != nil {
				return nil, err
			}
			k.Local = append(k.Local, d)
		default:
			st, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			k.Body = append(k.Body, st)
		}
	}
	return k, p.advance() // consume '}'
}

// parseRegDecl parses `.reg .u32 %r<10>;` or `.reg .pred %p<4>;`.
func (p *parser) parseRegDecl() (RegDecl, error) {
	var rd RegDecl
	if err := p.advance(); err != nil { // consume .reg
		return rd, err
	}
	ty, ok := parseTypeName(p.tok.text)
	if !ok {
		return rd, p.errf("expected register type, found %q", p.tok.text)
	}
	rd.Type = ty
	if err := p.advance(); err != nil {
		return rd, err
	}
	if p.tok.kind != tokIdent || !strings.HasPrefix(p.tok.text, "%") {
		return rd, p.errf("expected register prefix, found %q", p.tok.String())
	}
	rd.Prefix = p.tok.text
	if err := p.advance(); err != nil {
		return rd, err
	}
	if err := p.expectPunct("<"); err != nil {
		return rd, err
	}
	n, err := strconv.Atoi(p.tok.text)
	if err != nil {
		return rd, p.errf("bad register count %q", p.tok.text)
	}
	rd.Count = n
	if err := p.advance(); err != nil {
		return rd, err
	}
	if err := p.expectPunct(">"); err != nil {
		return rd, err
	}
	return rd, p.expectPunct(";")
}

// parseStmt parses one label or instruction.
func (p *parser) parseStmt() (Stmt, error) {
	line, col := p.tok.line, p.tok.col
	// Label: IDENT ':'
	if p.tok.kind == tokIdent && !strings.HasPrefix(p.tok.text, "%") && !strings.HasPrefix(p.tok.text, ".") {
		// Look ahead for ':': need to distinguish "LBB1:" from "ret;".
		save := *p.lex
		saveTok := p.tok
		name := p.tok.text
		if err := p.advance(); err != nil {
			return Stmt{}, err
		}
		if p.atPunct(":") {
			if err := p.advance(); err != nil {
				return Stmt{}, err
			}
			return Stmt{Label: name, Line: line, Col: col}, nil
		}
		*p.lex = save
		p.tok = saveTok
	}
	in, err := p.parseInstr()
	if err != nil {
		return Stmt{}, err
	}
	return Stmt{Instr: in, Line: line, Col: col}, nil
}

func (p *parser) parseInstr() (*Instr, error) {
	in := &Instr{Line: p.tok.line, Col: p.tok.col}
	// Optional guard @%p / @!%p.
	if p.atPunct("@") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		g := &Guard{}
		if p.atPunct("!") {
			g.Neg = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.kind != tokIdent || !strings.HasPrefix(p.tok.text, "%") {
			return nil, p.errf("expected predicate register after @, found %q", p.tok.String())
		}
		g.Reg = p.tok.text
		in.Guard = g
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokIdent {
		return nil, p.errf("expected instruction mnemonic, found %q", p.tok.String())
	}
	if err := parseMnemonic(p.tok.text, in); err != nil {
		return nil, &Error{Line: p.tok.line, Msg: err.Error()}
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	// Operands until ';'. A brace group {%r1, %r2, ...} (vector ld/st)
	// contributes its members in order.
	var opnds []Operand
	for !p.atPunct(";") {
		if p.atPunct("{") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			for !p.atPunct("}") {
				o, err := p.parseOperand()
				if err != nil {
					return nil, err
				}
				opnds = append(opnds, o)
				if p.atPunct(",") {
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
			}
			if err := p.advance(); err != nil { // consume '}'
				return nil, err
			}
		} else {
			o, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			opnds = append(opnds, o)
		}
		if p.atPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.advance(); err != nil { // consume ';'
		return nil, err
	}
	assignOperands(in, opnds)
	return in, nil
}

// assignOperands splits the flat operand list into Dst and Args according
// to the instruction kind.
func assignOperands(in *Instr, opnds []Operand) {
	hasDst := false
	switch in.Op {
	case OpLd, OpMov, OpAdd, OpSub, OpMul, OpMad, OpDiv, OpRem, OpMin, OpMax,
		OpAnd, OpOr, OpXor, OpNot, OpNeg, OpShl, OpShr, OpSetp, OpSelp,
		OpCvt, OpCvta, OpAtom:
		hasDst = len(opnds) > 0
	case OpBra:
		if len(opnds) == 1 && opnds[0].Kind == OpndSym {
			opnds[0].Kind = OpndLabel
		}
	}
	if hasDst {
		in.Dst = opnds[0]
		in.HasDst = true
		in.Args = opnds[1:]
	} else {
		in.Args = opnds
	}
	// Branch target may have parsed as a symbol.
	if in.Op == OpBra {
		for i := range in.Args {
			if in.Args[i].Kind == OpndSym {
				in.Args[i].Kind = OpndLabel
			}
		}
	}
}

func (p *parser) parseOperand() (Operand, error) {
	switch {
	case p.atPunct("["):
		if err := p.advance(); err != nil {
			return Operand{}, err
		}
		var o Operand
		o.Kind = OpndMem
		if p.tok.kind != tokIdent {
			return Operand{}, p.errf("expected base in memory operand, found %q", p.tok.String())
		}
		if strings.HasPrefix(p.tok.text, "%") {
			o.BaseReg = p.tok.text
		} else {
			o.BaseSym = p.tok.text
		}
		if err := p.advance(); err != nil {
			return Operand{}, err
		}
		if p.atPunct("+") {
			if err := p.advance(); err != nil {
				return Operand{}, err
			}
			n, err := strconv.ParseInt(p.tok.text, 0, 64)
			if err != nil {
				return Operand{}, p.errf("bad memory offset %q", p.tok.text)
			}
			o.Off = n
			if err := p.advance(); err != nil {
				return Operand{}, err
			}
		}
		if err := p.expectPunct("]"); err != nil {
			return Operand{}, err
		}
		return o, nil
	case p.tok.kind == tokNumber:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return Operand{}, err
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
		if err := p.advance(); err != nil {
			return Operand{}, err
		}
		if s, ok := sregByName[name]; ok {
			return Operand{Kind: OpndSreg, Sreg: s}, nil
		}
		return Operand{Kind: OpndReg, Reg: name}, nil
	case p.tok.kind == tokIdent && p.tok.text == "WARP_SZ":
		if err := p.advance(); err != nil {
			return Operand{}, err
		}
		return Operand{Kind: OpndSreg, Sreg: SregWarpSize}, nil
	case p.tok.kind == tokIdent && !strings.HasPrefix(p.tok.text, "."):
		name := p.tok.text
		if err := p.advance(); err != nil {
			return Operand{}, err
		}
		return Operand{Kind: OpndSym, Sym: name}, nil
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
	parts := strings.Split(text, ".")
	op, ok := opByName[parts[0]]
	if !ok {
		return &Error{Msg: "unknown mnemonic " + parts[0]}
	}
	in.Op = op
	mods := parts[1:]
	if op == OpLog {
		return parseLogMnemonic(mods, in)
	}
	for _, m := range mods {
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
			return &Error{Msg: "unknown modifier ." + m + " on " + parts[0]}
		}
	}
	return nil
}

// parseLogMnemonic decodes `_log.<kind>[.<space>][.sN]`.
func parseLogMnemonic(mods []string, in *Instr) error {
	if len(mods) == 0 {
		return &Error{Msg: "_log requires a kind"}
	}
	k, ok := logKindByName[mods[0]]
	if !ok {
		return &Error{Msg: "unknown _log kind " + mods[0]}
	}
	in.LogK = k
	for _, m := range mods[1:] {
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
