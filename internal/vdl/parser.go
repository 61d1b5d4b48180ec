package vdl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads a VDL document (a sequence of TR and DV statements, with
// #-to-end-of-line and //-style comments) into a fresh catalog.
func Parse(src string) (*Catalog, error) {
	p := &parser{lex: newLexer(src), cat: NewCatalog()}
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.cat, nil
}

// --- lexer ------------------------------------------------------------------

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokPunct // one of ( ) { } , ; = : @ or the two-char ->
)

type token struct {
	kind tokenKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrParse, l.line, fmt.Sprintf(format, args...))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		switch {
		case ch == '\n':
			l.line++
			l.pos++
		case ch == ' ' || ch == '\t' || ch == '\r':
			l.pos++
		case ch == '#':
			l.skipLine()
		case ch == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLine()
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil

scan:
	if n := identLen(l.src[l.pos:]); n > 0 {
		start := l.pos
		l.pos += n
		return token{kind: tokIdent, text: l.src[start:l.pos], line: l.line}, nil
	}
	ch := l.src[l.pos]
	switch {
	case ch == '"':
		return l.scanString()
	case ch == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		return token{kind: tokPunct, text: "->", line: l.line}, nil
	case strings.ContainsRune("(){},;=:@", rune(ch)):
		l.pos++
		return token{kind: tokPunct, text: string(ch), line: l.line}, nil
	default:
		return token{}, l.errf("unexpected character %q", string(ch))
	}
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

func (l *lexer) scanString() (token, error) {
	line := l.line
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		switch ch {
		case '"':
			l.pos++
			if !ValidString(b.String()) {
				return token{}, l.errf("string literal %q holds a character VDL text cannot carry", b.String())
			}
			return token{kind: tokString, text: b.String(), line: line}, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, l.errf("unterminated escape")
			}
			l.pos++
			esc := l.src[l.pos]
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '"', '\\':
				b.WriteByte(esc)
			default:
				return token{}, l.errf("bad escape \\%c", esc)
			}
			l.pos++
		case '\n':
			return token{}, l.errf("newline in string literal")
		default:
			b.WriteByte(ch)
			l.pos++
		}
	}
	return token{}, l.errf("unterminated string literal")
}

// scanBody captures the raw text between balanced braces; the caller has
// already consumed the opening '{'.
func (l *lexer) scanBody() (string, error) {
	depth := 1
	start := l.pos
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				body := l.src[start:l.pos]
				l.pos++
				l.line += strings.Count(body, "\n")
				return body, nil
			}
		}
		l.pos++
	}
	return "", l.errf("unterminated transformation body")
}

// ValidName reports whether s is exactly one identifier to the lexer, so that
// a statement written with s as a transformation, derivation or argument name
// reads back with that name and nothing else. The lexer scans identifiers with
// the same identLen, so the two cannot disagree.
func ValidName(s string) bool { return s != "" && identLen(s) == len(s) }

// ValidString reports whether s can be the value of a string literal. VDL
// text is written with strconv.Quote and read by a lexer that knows the
// escapes \n \t \" \\ only, so a value survives the round trip exactly when
// every other character may stand for itself: valid UTF-8 that Quote prints
// as is. The lexer refuses a literal holding anything else.
func ValidString(s string) bool {
	for i := 0; i < len(s); {
		r, w := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && w == 1 {
			return false
		}
		if r != '\n' && r != '\t' && !strconv.IsPrint(r) {
			return false
		}
		i += w
	}
	return true
}

// identLen returns the length in bytes of the identifier s starts with, 0 when
// it starts with none.
func identLen(s string) int {
	n := 0
	for n < len(s) {
		r, w := rune(s[n]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[n:])
		}
		if n == 0 && !isIdentStart(r) {
			return 0
		}
		// '-' is legal inside identifiers (NGP9-01) but "->" is the
		// derivation arrow, never part of a name.
		if !isIdentPart(r) || strings.HasPrefix(s[n:], "->") {
			break
		}
		n += w
	}
	return n
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	// Logical names in the paper contain digits, dots and dashes
	// (NGP9_F323-0927589); allow them in identifiers but not leading.
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.' || r == '-'
}

// --- parser ----------------------------------------------------------------

// parser reads statements token by token. Its first error sticks: every step
// after it does nothing, so a statement reads as straight-line code and Parse
// reports the error the first failing step met.
type parser struct {
	lex *lexer
	cat *Catalog
	tok token
	err error
}

// advance reads the next token.
func (p *parser) advance() {
	if p.err == nil {
		p.tok, p.err = p.lex.next()
	}
}

// fail records a parse error at the current token's line.
func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("%w: line %d: %s", ErrParse, p.tok.line, fmt.Sprintf(format, args...))
	}
}

// at reports whether the current token is the punctuation s.
func (p *parser) at(s string) bool { return p.tok.kind == tokPunct && p.tok.text == s }

func (p *parser) punct(s string) {
	if !p.at(s) {
		p.fail("expected %q, got %q", s, p.tok.text)
	}
	p.advance()
}

// word reads a token of kind, naming what was expected otherwise.
func (p *parser) word(kind tokenKind, what string) string {
	if p.tok.kind != kind {
		p.fail("expected %s, got %q", what, p.tok.text)
	}
	text := p.tok.text
	p.advance()
	return text
}

// dir reads "in" or "out", refusing any other word with msg.
func (p *parser) dir(msg string) Direction {
	switch w := p.word(tokIdent, "identifier"); w {
	case "in":
		return In
	case "out":
		return Out
	default:
		p.fail(msg, w)
		return In
	}
}

func (p *parser) run() error {
	p.advance()
	for p.err == nil && p.tok.kind != tokEOF {
		switch kw := p.word(tokIdent, "identifier"); kw {
		case "TR":
			p.parseTR()
		case "DV":
			p.parseDV()
		default:
			p.fail("expected TR or DV, got %q", kw)
		}
	}
	return p.err
}

// parseTR parses: name ( [in|out ident {, in|out ident}] ) { body }
func (p *parser) parseTR() {
	t := &Transformation{Name: p.word(tokIdent, "identifier")}
	p.punct("(")
	for p.err == nil && !p.at(")") {
		dir := p.dir("expected in/out, got %q")
		t.Args = append(t.Args, Arg{Name: p.word(tokIdent, "identifier"), Dir: dir})
		if p.at(",") {
			p.advance()
		}
	}
	p.advance() // consume ')'
	// '{' then raw body captured directly from the lexer.
	if !p.at("{") {
		p.fail("expected '{', got %q", p.tok.text)
	}
	if p.err == nil {
		t.Body, p.err = p.lex.scanBody()
	}
	p.advance()
	if p.err == nil {
		p.err = p.cat.AddTransformation(t)
	}
}

// parseDV parses: name -> trName ( arg=value {, arg=value} ) ;
// where value is "scalar" or @{in|out:"lfn"}.
func (p *parser) parseDV() {
	name := p.word(tokIdent, "identifier")
	p.punct("->")
	trName := p.word(tokIdent, "identifier")
	p.punct("(")
	var actuals []Actual
	bindings := map[string]Binding{}
	for p.err == nil && !p.at(")") {
		argName := p.word(tokIdent, "identifier")
		p.punct("=")
		b := p.binding()
		if _, dup := bindings[argName]; dup {
			p.fail("DV %q binds %q twice", name, argName)
		}
		bindings[argName] = b
		actuals = append(actuals, Actual{Name: argName, Binding: b})
		if p.at(",") {
			p.advance()
		}
	}
	p.advance() // consume ')'
	p.punct(";")
	if p.err == nil {
		d := NewDerivation(name, trName, actuals)
		d.Bindings = bindings
		p.err = p.cat.AddDerivation(d)
	}
}

func (p *parser) binding() Binding {
	switch {
	case p.tok.kind == tokString:
		return ScalarBinding(p.word(tokString, "string"))
	case p.at("@"):
		p.advance()
		p.punct("{")
		dir := p.dir("expected in/out in file binding, got %q")
		p.punct(":")
		lfn := p.word(tokString, "string")
		p.punct("}")
		return FileBinding(dir, lfn)
	}
	p.fail("expected string or @{...} binding, got %q", p.tok.text)
	return Binding{}
}
