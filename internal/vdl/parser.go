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
		case '\n':
			// counted at the end via strings.Count; nothing here
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

type parser struct {
	lex    *lexer
	cat    *Catalog
	tok    token
	peeked bool
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return fmt.Errorf("%w: line %d: expected %q, got %q", ErrParse, p.tok.line, s, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectIdent() (string, error) {
	if p.tok.kind != tokIdent {
		return "", fmt.Errorf("%w: line %d: expected identifier, got %q", ErrParse, p.tok.line, p.tok.text)
	}
	name := p.tok.text
	return name, p.advance()
}

func (p *parser) expectString() (string, error) {
	if p.tok.kind != tokString {
		return "", fmt.Errorf("%w: line %d: expected string, got %q", ErrParse, p.tok.line, p.tok.text)
	}
	s := p.tok.text
	return s, p.advance()
}

func (p *parser) run() error {
	if err := p.advance(); err != nil {
		return err
	}
	for p.tok.kind != tokEOF {
		kw, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch kw {
		case "TR":
			if err := p.parseTR(); err != nil {
				return err
			}
		case "DV":
			if err := p.parseDV(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: line %d: expected TR or DV, got %q", ErrParse, p.tok.line, kw)
		}
	}
	return nil
}

// parseTR parses: name ( [in|out ident {, in|out ident}] ) { body }
func (p *parser) parseTR() error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	t := &Transformation{Name: name}
	for !(p.tok.kind == tokPunct && p.tok.text == ")") {
		dirWord, err := p.expectIdent()
		if err != nil {
			return err
		}
		var dir Direction
		switch dirWord {
		case "in":
			dir = In
		case "out":
			dir = Out
		default:
			return fmt.Errorf("%w: line %d: expected in/out, got %q", ErrParse, p.tok.line, dirWord)
		}
		argName, err := p.expectIdent()
		if err != nil {
			return err
		}
		t.Args = append(t.Args, Arg{Name: argName, Dir: dir})
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return err
			}
		}
	}
	if err := p.advance(); err != nil { // consume ')'
		return err
	}
	// '{' then raw body captured directly from the lexer.
	if p.tok.kind != tokPunct || p.tok.text != "{" {
		return fmt.Errorf("%w: line %d: expected '{', got %q", ErrParse, p.tok.line, p.tok.text)
	}
	body, err := p.lex.scanBody()
	if err != nil {
		return err
	}
	t.Body = body
	if err := p.advance(); err != nil {
		return err
	}
	return p.cat.AddTransformation(t)
}

// parseDV parses: name -> trName ( arg=value {, arg=value} ) ;
// where value is "scalar" or @{in|out:"lfn"}.
func (p *parser) parseDV() error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("->"); err != nil {
		return err
	}
	trName, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	d := &Derivation{Name: name, TR: trName, Bindings: map[string]Binding{}}
	for !(p.tok.kind == tokPunct && p.tok.text == ")") {
		argName, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct("="); err != nil {
			return err
		}
		b, err := p.parseBinding()
		if err != nil {
			return err
		}
		if _, dup := d.Bindings[argName]; dup {
			return fmt.Errorf("%w: line %d: DV %q binds %q twice", ErrParse, p.tok.line, name, argName)
		}
		d.Bindings[argName] = b
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return err
			}
		}
	}
	if err := p.advance(); err != nil { // consume ')'
		return err
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	return p.cat.AddDerivation(d)
}

func (p *parser) parseBinding() (Binding, error) {
	if p.tok.kind == tokString {
		v := p.tok.text
		return ScalarBinding(v), p.advance()
	}
	if p.tok.kind == tokPunct && p.tok.text == "@" {
		if err := p.advance(); err != nil {
			return Binding{}, err
		}
		if err := p.expectPunct("{"); err != nil {
			return Binding{}, err
		}
		dirWord, err := p.expectIdent()
		if err != nil {
			return Binding{}, err
		}
		var dir Direction
		switch dirWord {
		case "in":
			dir = In
		case "out":
			dir = Out
		default:
			return Binding{}, fmt.Errorf("%w: line %d: expected in/out in file binding, got %q",
				ErrParse, p.tok.line, dirWord)
		}
		if err := p.expectPunct(":"); err != nil {
			return Binding{}, err
		}
		lfn, err := p.expectString()
		if err != nil {
			return Binding{}, err
		}
		if err := p.expectPunct("}"); err != nil {
			return Binding{}, err
		}
		return FileBinding(dir, lfn), nil
	}
	return Binding{}, fmt.Errorf("%w: line %d: expected string or @{...} binding, got %q",
		ErrParse, p.tok.line, p.tok.text)
}
