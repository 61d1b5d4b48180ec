package votable

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The byte scanner under the decoder in stream.go. It accepts and rejects
// exactly what encoding/xml's strict Decoder does on the way to a struct
// unmarshal (the frozen legacyRead oracle in stream_test.go is the
// specification) and reports errors as encoding/xml's own types, with the
// same text and line; those types are all the package still imports
// encoding/xml for.
// It keeps no token values: character data is unescaped straight into one
// reused buffer, attributes into another, and the open elements' names
// into a third, so a document of any length is streamed in memory bounded
// by its largest row or tag (Read keeps a table's rows until the table
// ends, to cut them from one block).
//
// The grammar, as encoding/xml applies it:
//   - "\r\n" and a lone "\r" in character data and attribute values read
//     as "\n";
//   - the five predefined entities and character references whose value
//     fits in a rune are expanded, anything else after '&' is an error;
//     the expanded text must be valid UTF-8 within the XML character range;
//   - CDATA sections are character data; comments, processing
//     instructions and directives (DOCTYPE) are skipped, except that
//     <?xml ...?> must declare version 1.0 and UTF-8 if it declares either;
//   - a name carries at most one prefix ("a:TD"); elements and attributes
//     match by their local name, the last of a repeated attribute wins, and
//     an end tag must repeat its start tag's name, prefix included;
//   - an element's text is its direct character data, its child elements
//     skipped whole, and nothing after the root element is parsed.
type scanner struct {
	br    *bufio.Reader
	win   []byte // the bytes br holds buffered; win[i:] are unread
	i     int
	rerr  error // the read error that ended the input (io.EOF at its end)
	lines int   // newlines in the windows already discarded

	text     []byte     // character data kept by next(true)
	cellEnds []int      // end offset in text of each cell of the rows kept
	rowEnds  []int      // end offset in cellEnds of each row kept
	tmp      []byte     // the current tag's name or attribute names and values
	attrs    []attrSpan // attributes of the last start tag, spans of tmp
	open     []byte     // raw names of the open elements, concatenated
	ends     []int      // end offset in open of each open element's name
	empty    bool       // the last start tag was <.../>; its end tag is due
}

// attrSpan locates one attribute in scanner.tmp: tmp[local:value] is its
// local name, tmp[value:end] its unescaped value.
type attrSpan struct{ local, value, end int }

type event int

const (
	startTag event = iota
	endTag
)

// errNoName is readName's report that the next byte cannot start a name;
// each caller turns it into its own syntax error.
var errNoName = errors.New("no name")

// scanners holds scanners between decodes, so that their buffers, a kept
// table's text and cell offsets above all, are reused, not grown again.
var scanners = sync.Pool{New: func() any { return &scanner{br: bufio.NewReader(nil)} }}

// maxPooledBytes is the most a scanner's kept-row buffers may hold for it
// to go back to the pool; a survey-scale table's are left to the collector.
const maxPooledBytes = 4 << 20

func newScanner(r io.Reader) *scanner {
	s := scanners.Get().(*scanner)
	s.br.Reset(r)
	return s
}

// keptBytes is the capacity of s's kept-row buffers in bytes.
func (s *scanner) keptBytes() int {
	return cap(s.text) + 8*(cap(s.cellEnds)+cap(s.rowEnds))
}

// release empties s, drops its reader and puts it back in the pool.
func (s *scanner) release() {
	s.br.Reset(nil)
	if s.keptBytes() > maxPooledBytes {
		s.text, s.cellEnds, s.rowEnds = nil, nil, nil
	}
	*s = scanner{br: s.br, text: s.text[:0], cellEnds: s.cellEnds[:0], rowEnds: s.rowEnds[:0],
		tmp: s.tmp[:0], attrs: s.attrs[:0], open: s.open[:0], ends: s.ends[:0]}
	scanners.Put(s)
}

// syntax builds a syntax error at the current line: one plus the newlines
// read so far, as encoding/xml counts it.
func (s *scanner) syntax(msg string) error {
	line := 1 + s.lines + bytes.Count(s.win[:s.i], []byte{'\n'})
	return &xml.SyntaxError{Msg: msg, Line: line}
}

func (s *scanner) getc() (byte, bool) {
	if s.i < len(s.win) {
		s.i++
		return s.win[s.i-1], true
	}
	return s.fill()
}

// fill discards the consumed window, peeks at whatever br buffers next and
// returns its first byte.
func (s *scanner) fill() (byte, bool) {
	if s.rerr != nil {
		return 0, false
	}
	s.lines += bytes.Count(s.win, []byte{'\n'})
	_, _ = s.br.Discard(len(s.win)) // the window is buffered: Discard cannot fail
	s.win, s.i = nil, 0
	if _, err := s.br.Peek(1); err != nil {
		s.rerr = err
		return 0, false
	}
	s.win, _ = s.br.Peek(s.br.Buffered())
	s.i = 1
	return s.win[0], true
}

// ungetc steps back over the byte getc just returned.
func (s *scanner) ungetc() { s.i-- }

// unexpected is the error for an element where the document needs the
// element want: the struct unmarshal's xml.UnmarshalError, with its text.
func (s *scanner) unexpected(want string) error {
	return xml.UnmarshalError("expected element type <" + want + "> but have <" + string(s.local()) + ">")
}

// eof is the error for input that ends where more is required: a read
// error as it is, the end of input as a syntax error.
func (s *scanner) eof(msg string) error {
	if s.rerr == io.EOF {
		return s.syntax(msg)
	}
	return s.rerr
}

func (s *scanner) mustgetc() (byte, error) {
	if b, ok := s.getc(); ok {
		return b, nil
	}
	return 0, s.eof("unexpected EOF")
}

func (s *scanner) space() {
	for {
		b, ok := s.getc()
		if !ok {
			return
		}
		switch b {
		case ' ', '\r', '\n', '\t':
		default:
			s.ungetc()
			return
		}
	}
}

// next advances to the next start or end tag, consuming the character
// data, comments, processing instructions and directives before it.
// Character data (CDATA included) is appended to s.text when keep is set
// and checked and dropped otherwise. After a start tag, local and attr
// describe it until the following call.
func (s *scanner) next(keep bool) (event, error) {
	s.attrs = s.attrs[:0]
	if s.empty {
		s.empty = false
		s.pop()
		return endTag, nil
	}
	for {
		s.tmp = s.tmp[:0]
		b, ok := s.getc()
		if !ok {
			if len(s.ends) == 0 {
				return 0, s.rerr // io.EOF itself before the root, like encoding/xml
			}
			return 0, s.eof("unexpected EOF")
		}
		var err error
		if b != '<' {
			s.ungetc()
			err = s.textSection(keep, false)
		} else if b, err = s.mustgetc(); err == nil {
			switch b {
			case '/':
				return endTag, s.endTag()
			case '?':
				err = s.procInst()
			case '!':
				err = s.bang(keep)
			default:
				s.ungetc()
				return startTag, s.startTag()
			}
		}
		if err != nil {
			return 0, err
		}
	}
}

// skip consumes the rest of the element whose start tag next returned.
func (s *scanner) skip() error {
	for depth := 0; ; {
		ev, err := s.next(false)
		if err != nil {
			return err
		}
		switch {
		case ev == startTag:
			depth++
		case depth == 0:
			return nil
		default:
			depth--
		}
	}
}

// ownText appends the direct character data of the element whose start
// tag next returned to s.text, skipping its child elements whole.
func (s *scanner) ownText() error {
	for {
		ev, err := s.next(true)
		if err != nil {
			return err
		}
		if ev == endTag {
			return nil
		}
		if err := s.skip(); err != nil {
			return err
		}
	}
}

// textElement returns the direct character data of the element whose
// start tag next returned.
func (s *scanner) textElement() (string, error) {
	mark := len(s.text)
	err := s.ownText()
	text := string(s.text[mark:])
	s.text = s.text[:mark]
	return text, err
}

// local returns the local name of the innermost open element.
func (s *scanner) local() []byte {
	start := 0
	if n := len(s.ends); n > 1 {
		start = s.ends[n-2]
	}
	return localName(s.open[start:])
}

// is reports whether the innermost open element's local name is name.
func (s *scanner) is(name string) bool { return string(s.local()) == name }

// attr returns the value of the last attribute of the current start tag
// whose local name is name, or "".
func (s *scanner) attr(name string) string {
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if a := s.attrs[i]; string(s.tmp[a.local:a.value]) == name {
			return string(s.tmp[a.value:a.end])
		}
	}
	return ""
}

// splitName splits a raw name at its one prefix colon, as encoding/xml
// does: a colon at either end is part of the local name.
func splitName(name []byte) (space, local []byte) {
	if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[:i], name[i+1:]
	}
	return nil, name
}

func localName(name []byte) []byte {
	_, local := splitName(name)
	return local
}

// readName appends the bytes of a name to dst: everything up to the first
// ASCII byte that cannot be part of one.
func (s *scanner) readName(dst []byte) ([]byte, error) {
	b, err := s.mustgetc()
	if err != nil {
		return dst, err
	}
	if b < utf8.RuneSelf && !isNameByte(b) {
		s.ungetc()
		return dst, errNoName
	}
	for {
		dst = append(dst, b)
		if b, err = s.mustgetc(); err != nil {
			return dst, err
		}
		if b < utf8.RuneSelf && !isNameByte(b) {
			s.ungetc()
			return dst, nil
		}
	}
}

// name appends a name to dst and checks its characters.
func (s *scanner) name(dst []byte) ([]byte, error) {
	start := len(dst)
	dst, err := s.readName(dst)
	if err == nil && !isName(dst[start:]) {
		err = s.syntax("invalid XML name: " + string(dst[start:]))
	}
	return dst, err
}

// nsname is name for element and attribute names, which may carry one
// prefix; a second colon makes it no name at all.
func (s *scanner) nsname(dst []byte) ([]byte, error) {
	start := len(dst)
	dst, err := s.name(dst)
	if err == nil {
		if i := bytes.IndexByte(dst[start:], ':'); i >= 0 && bytes.IndexByte(dst[start+i+1:], ':') >= 0 {
			err = errNoName
		}
	}
	return dst, err
}

func (s *scanner) startTag() error {
	var err error
	if s.open, err = s.nsname(s.open); err != nil {
		if err == errNoName {
			err = s.syntax("expected element name after <")
		}
		return err
	}
	s.ends = append(s.ends, len(s.open))
	for {
		s.space()
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		switch b {
		case '/':
			if b, err = s.mustgetc(); err != nil {
				return err
			}
			if b != '>' {
				return s.syntax("expected /> in element")
			}
			s.empty = true
			return nil
		case '>':
			return nil
		}
		s.ungetc()
		start := len(s.tmp)
		if s.tmp, err = s.nsname(s.tmp); err != nil {
			if err == errNoName {
				err = s.syntax("expected attribute name in element")
			}
			return err
		}
		a := attrSpan{local: len(s.tmp) - len(localName(s.tmp[start:])), value: len(s.tmp)}
		s.space()
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if b != '=' {
			return s.syntax("attribute name without = in element")
		}
		s.space()
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if b != '"' && b != '\'' {
			return s.syntax("unquoted or missing attribute value in element")
		}
		if s.tmp, err = s.chars(s.tmp, b); err != nil {
			return err
		}
		a.end = len(s.tmp)
		s.attrs = append(s.attrs, a)
	}
}

// endTag reads the rest of an end tag and closes the innermost open
// element, which it must name.
func (s *scanner) endTag() error {
	var err error
	if s.tmp, err = s.nsname(s.tmp); err != nil {
		if err == errNoName {
			err = s.syntax("expected element name after </")
		}
		return err
	}
	name := s.tmp
	s.space()
	b, err := s.mustgetc()
	if err != nil {
		return err
	}
	if b != '>' {
		return s.syntax("invalid characters between </" + string(localName(name)) + " and >")
	}
	if len(s.ends) == 0 {
		return s.syntax("unexpected end element </" + string(localName(name)) + ">")
	}
	open := s.pop()
	if bytes.Equal(open, name) {
		return nil
	}
	space, local := splitName(name)
	openSpace, openLocal := splitName(open)
	if !bytes.Equal(openLocal, local) {
		return s.syntax("element <" + string(openLocal) + "> closed by </" + string(local) + ">")
	}
	ns := string(space)
	if ns == "" {
		ns = `""`
	}
	return s.syntax("element <" + string(openLocal) + "> in space " + string(openSpace) +
		" closed by </" + string(local) + "> in space " + ns)
}

// pop closes the innermost open element and returns its raw name, which
// stays readable until the next start tag.
func (s *scanner) pop() []byte {
	n := len(s.ends) - 1
	start := 0
	if n > 0 {
		start = s.ends[n-1]
	}
	name := s.open[start:]
	s.open, s.ends = s.open[:start], s.ends[:n]
	return name
}

// textSection reads character data up to the next '<' (cdata false) or a
// CDATA section's body (cdata true), keeping it in s.text if keep is set.
func (s *scanner) textSection(keep, cdata bool) error {
	mark := len(s.text)
	var err error
	if cdata {
		s.text, err = s.chars(s.text, ']')
	} else {
		s.text, err = s.chars(s.text, 0)
	}
	if !keep {
		s.text = s.text[:mark]
	}
	return err
}

// chars appends character data to dst, unescaped, and checks what it
// appended. until selects where the data ends: 0 before the next '<',
// ']' at the "]]>" closing a CDATA section, and a quote character at the
// quote that closes an attribute value.
func (s *scanner) chars(dst []byte, until byte) ([]byte, error) {
	start := len(dst)
	cdata, quoted := until == ']', until == '"' || until == '\''
	var b0, b1 byte // the two bytes before b, raw; cleared by a reference
	for {
		if b1 != '\r' {
			// Copy the buffered run of bytes that no rule below looks at
			// or back at; after it, b0 and b1 hold nothing those rules test.
			n := 0
			for _, c := range s.win[s.i:] {
				if !plainText[c] {
					break
				}
				n++
			}
			if n > 0 {
				dst = append(dst, s.win[s.i:s.i+n]...)
				s.i += n
				b0, b1 = 0, 0
			}
		}
		b, ok := s.getc()
		if !ok {
			if cdata {
				return dst, s.eof("unexpected EOF in CDATA section")
			}
			break
		}
		if !quoted && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				dst = dst[:len(dst)-2]
				break
			}
			return dst, s.syntax("unescaped ]]> not in CDATA section")
		}
		if b == '<' && !cdata {
			if quoted {
				return dst, s.syntax("unescaped < inside quoted string")
			}
			s.ungetc()
			break
		}
		if quoted && b == until {
			break
		}
		if b == '&' && !cdata {
			var err error
			if dst, err = s.reference(dst); err != nil {
				return dst, err
			}
			b0, b1 = 0, 0
			continue
		}
		switch {
		case b == '\r':
			dst = append(dst, '\n')
		case b1 == '\r' && b == '\n':
		default:
			dst = append(dst, b)
		}
		b0, b1 = b1, b
	}
	return dst, s.checkChars(dst[start:])
}

// plainText is false for the bytes chars must look at one by one: the
// ends of character data ('<', the quotes, "]]>"), '&' and '\r'.
var plainText = func() (t [256]bool) {
	for c := range t {
		t[c] = !strings.ContainsRune("<&\r]>\"'", rune(c))
	}
	return t
}()

// reference expands the entity or character reference after a '&'.
func (s *scanner) reference(dst []byte) ([]byte, error) {
	amp := len(dst)
	dst = append(dst, '&')
	b, err := s.mustgetc()
	if err != nil {
		return dst, err
	}
	var r rune
	known := false
	if b == '#' {
		dst = append(dst, '#')
		if b, err = s.mustgetc(); err != nil {
			return dst, err
		}
		base := 10
		if b == 'x' {
			base = 16
			dst = append(dst, 'x')
			if b, err = s.mustgetc(); err != nil {
				return dst, err
			}
		}
		digits := len(dst)
		for '0' <= b && b <= '9' || base == 16 && ('a' <= b && b <= 'f' || 'A' <= b && b <= 'F') {
			dst = append(dst, b)
			if b, err = s.mustgetc(); err != nil {
				return dst, err
			}
		}
		if b != ';' {
			s.ungetc()
		} else {
			n, err := strconv.ParseUint(string(dst[digits:]), base, 64)
			dst = append(dst, ';')
			if err == nil && n <= unicode.MaxRune {
				r, known = rune(n), true
			}
		}
	} else {
		s.ungetc()
		if dst, err = s.readName(dst); err != nil && err != errNoName {
			return dst, err
		}
		if b, err = s.mustgetc(); err != nil {
			return dst, err
		}
		if b != ';' {
			s.ungetc()
		} else {
			name := dst[amp+1:]
			dst = append(dst, ';')
			if isName(name) {
				r, known = predefinedEntity(name)
			}
		}
	}
	if known {
		return utf8.AppendRune(dst[:amp], r), nil
	}
	ent := string(dst[amp:])
	if !strings.HasSuffix(ent, ";") {
		ent += " (no semicolon)"
	}
	return dst, s.syntax("invalid character entity " + ent)
}

func predefinedEntity(name []byte) (rune, bool) {
	switch string(name) {
	case "lt":
		return '<', true
	case "gt":
		return '>', true
	case "amp":
		return '&', true
	case "apos":
		return '\'', true
	case "quot":
		return '"', true
	}
	return 0, false
}

// checkChars rejects text that is not UTF-8 or holds a character outside
// the XML character range.
func (s *scanner) checkChars(text []byte) error {
	for i := 0; i < len(text); {
		r, n := rune(text[i]), 1
		if r >= utf8.RuneSelf {
			if r, n = utf8.DecodeRune(text[i:]); r == utf8.RuneError && n == 1 {
				return s.syntax("invalid UTF-8")
			}
		}
		if !inXMLCharacterRange(r) {
			return s.syntax(fmt.Sprintf("illegal character code %U", r))
		}
		i += n
	}
	return nil
}

// procInst skips a processing instruction, checking the version and
// encoding an <?xml ...?> declaration names.
func (s *scanner) procInst() error {
	target, err := s.name(s.tmp)
	if err != nil {
		if err == errNoName {
			err = s.syntax("expected target name after <?")
		}
		return err
	}
	s.tmp = target
	s.space()
	body := len(s.tmp)
	var b0 byte
	for {
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		if b0 == '?' && b == '>' {
			break
		}
		s.tmp = append(s.tmp, b)
		b0 = b
	}
	if string(s.tmp[:body]) != "xml" {
		return nil
	}
	content := string(s.tmp[body : len(s.tmp)-1]) // without the '?'
	if ver := pseudoAttr("version", content); ver != "" && ver != "1.0" {
		return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := pseudoAttr("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		// encoding/xml's text for a decoder that converts no charsets.
		return fmt.Errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", enc)
	}
	return nil
}

// pseudoAttr returns the quoted value that follows the first occurrence
// of param= followed by a quote in a processing instruction's body,
// searching the way encoding/xml does.
func pseudoAttr(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang reads the markup after "<!": a comment, a CDATA section (character
// data, kept if keep is set) or a directive.
func (s *scanner) bang(keep bool) error {
	b, err := s.mustgetc()
	if err != nil {
		return err
	}
	switch b {
	case '-':
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if b != '-' {
			return s.syntax("invalid sequence <!- not part of <!--")
		}
		var b0, b1 byte
		for {
			if b, err = s.mustgetc(); err != nil {
				return err
			}
			if b0 == '-' && b1 == '-' {
				if b != '>' {
					return s.syntax(`invalid sequence "--" not allowed in comments`)
				}
				return nil
			}
			b0, b1 = b1, b
		}
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if b, err = s.mustgetc(); err != nil {
				return err
			}
			if b != "CDATA["[i] {
				return s.syntax("invalid <![ sequence")
			}
		}
		return s.textSection(keep, true)
	}
	return s.directive()
}

// directive skips a directive such as <!DOCTYPE ...> up to the '>' that
// closes it: angle brackets nest, except inside quotes and comments. The
// byte after "<!" has been read and takes no part in the nesting.
func (s *scanner) directive() error {
	var b, inquote byte
	var err error
	depth := 0
	for {
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < len("!--"); i++ {
				if b, err = s.mustgetc(); err != nil {
					return err
				}
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, err = s.mustgetc(); err != nil {
					return err
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}
