package ptx

import (
	"fmt"
	"strings"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokEOF    tokKind = iota
	tokIdent          // identifier, register (%r1), special reg (%tid.x) or directive (.reg)
	tokNumber         // integer or float literal
	tokPunct          // single-character punctuation
)

// token is one token: its text is the source's bytes [start, end).
type token struct {
	kind       tokKind
	start, end int
	line       int
	col        int // 1-based column of the token's first byte
}

// lexer produces tokens from PTX source text.
type lexer struct {
	src       string
	pos       int
	line      int
	lineStart int // byte offset of the current line's first character
}

// col returns the 1-based column of the current position.
func (l *lexer) col() int { return l.pos - l.lineStart + 1 }

// Error is a positioned lex/parse error.
type Error struct {
	Line int
	Col  int // 1-based column, 0 when unknown
	Msg  string
}

func (e *Error) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("ptx: line %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("ptx: line %d: %s", e.Line, e.Msg)
}

func (l *lexer) errf(format string, args ...any) *Error {
	return &Error{Line: l.line, Col: l.col(), Msg: fmt.Sprintf(format, args...)}
}

// Byte classes, looked up once per byte.
const (
	classPunct      = 1 + iota // a punctuation token of its own
	classIdentStart            // may start an identifier
	classIdentCont             // may only continue one
)

var byteClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c == '_' || c == '$' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			t[c] = classIdentStart
		case c >= '0' && c <= '9' || c == '.':
			t[c] = classIdentCont
		case strings.IndexByte(",;[](){}:@!+<>", byte(c)) >= 0:
			t[c] = classPunct
		}
	}
	return t
}()

func isIdentStart(c byte) bool { return byteClass[c] == classIdentStart }

func isIdentCont(c byte) bool { return byteClass[c] >= classIdentStart }

// next scans the next token into t.
func (l *lexer) next(t *token) error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
			l.lineStart = l.pos
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return l.errf("unterminated block comment")
			}
			seg := l.src[l.pos : l.pos+2+end+2]
			l.line += strings.Count(seg, "\n")
			if nl := strings.LastIndexByte(seg, '\n'); nl >= 0 {
				l.lineStart = l.pos + nl + 1
			}
			l.pos += 2 + end + 2
		default:
			return l.lexToken(t)
		}
	}
	*t = token{kind: tokEOF, line: l.line, col: l.col()}
	return nil
}

func (l *lexer) lexToken(t *token) error {
	c := l.src[l.pos]
	start := l.pos
	t.line, t.col = l.line, l.col()
	switch {
	case c == '%' || c == '.':
		// Register, special register (%tid.x) or directive.
		l.pos++
		l.skipIdent()
		if l.pos == start+1 && c == '%' {
			return l.errf("bare %% in input")
		}
		if l.pos == start+1 {
			return l.errf("bare '.' in input")
		}
		t.kind = tokIdent
	case isIdentStart(c):
		l.pos++
		l.skipIdent()
		t.kind = tokIdent
	case c >= '0' && c <= '9':
		l.lexNumber()
		t.kind = tokNumber
	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		l.pos++
		l.lexNumber()
		t.kind = tokNumber
	case byteClass[c] == classPunct:
		l.pos++
		t.kind = tokPunct
	default:
		return l.errf("unexpected character %q", c)
	}
	t.start, t.end = start, l.pos
	return nil
}

func (l *lexer) skipIdent() {
	for l.pos < len(l.src) && isIdentCont(l.src[l.pos]) {
		l.pos++
	}
}

// lexNumber scans an integer, decimal float or hex literal.
func (l *lexer) lexNumber() {
	if rest := l.src[l.pos:]; strings.HasPrefix(rest, "0x") || strings.HasPrefix(rest, "0X") ||
		strings.HasPrefix(rest, "0f") || strings.HasPrefix(rest, "0F") {
		// Hex integer, or hex float literal 0fXXXXXXXX (IEEE-754 bits).
		l.pos += 2
		for l.pos < len(l.src) && isHex(l.src[l.pos]) {
			l.pos++
		}
		return
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
