// Streaming VOTable codec: a row-callback decoder and an incremental
// encoder that never hold a full Table in memory. The in-memory Read/Write
// API in votable.go is reimplemented on top of these; the encoder's printer
// reproduces the struct-marshal output byte for byte (same indentation and
// escaping rules as encoding/xml's indented Encode), so survey-scale
// producers can stream hundreds of thousands of rows while every existing
// byte-identity pin stays in force. The decoder walks the document with the
// byte scanner in scan.go, which keeps malformed-input behavior aligned with
// the historical whole-document unmarshal through encoding/xml.
package votable

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// TableMeta is everything about a TABLE except its rows — the unit of
// metadata a streaming producer declares up front and a streaming consumer
// receives before the first row.
type TableMeta struct {
	Name        string
	Description string
	Params      []Param
	Fields      []Field
}

// Meta returns the table's metadata without its rows.
func (t *Table) Meta() TableMeta {
	return TableMeta{Name: t.Name, Description: t.Description, Params: t.Params, Fields: t.Fields}
}

// --- streaming encoder -----------------------------------------------------

// Encoder writes a VOTable document incrementally: document → resources →
// tables → rows. Memory use is bounded by the encoder's internal buffer, not
// by the number of rows written, and the byte stream it produces is
// identical to what the historical struct-marshal Write produced (the
// dedicated printer below reproduces encoding/xml's indented output,
// including its chardata escaping, without paying the reflection cost).
type Encoder struct {
	w     *bufio.Writer
	state encState
	rows  int  // rows written to the open table
	inDoc bool // VOTABLE has child elements so far
	inRes bool // current RESOURCE has child elements so far
	err   error
}

type encState int

const (
	encInit encState = iota
	encDocument
	encResource
	encTable
	encDone
)

// NewEncoder returns an encoder writing to w. Call BeginDocument first and
// End last.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriter(w)}
}

func (e *Encoder) fail(err error) error {
	if e.err == nil {
		e.err = err
	}
	return e.err
}

func (e *Encoder) misuse(op string, want encState) error {
	if e.err != nil {
		return e.err
	}
	if e.state != want {
		return e.fail(fmt.Errorf("votable: encoder: %s in wrong state", op))
	}
	return nil
}

// Escape sequences matching encoding/xml's escapeText with newline escaping
// on — the variant the struct marshaler applies to both attribute values and
// element character data.
const (
	escQuot = "&#34;"
	escApos = "&#39;"
	escAmp  = "&amp;"
	escLT   = "&lt;"
	escGT   = "&gt;"
	escTab  = "&#x9;"
	escNL   = "&#xA;"
	escCR   = "&#xD;"
	escFFFD = "�"
)

func inXMLCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

func (e *Encoder) escape(s string) {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = escQuot
		case '\'':
			esc = escApos
		case '&':
			esc = escAmp
		case '<':
			esc = escLT
		case '>':
			esc = escGT
		case '\t':
			esc = escTab
		case '\n':
			esc = escNL
		case '\r':
			esc = escCR
		default:
			if !inXMLCharacterRange(r) || (r == utf8.RuneError && width == 1) {
				esc = escFFFD
				break
			}
			continue
		}
		e.str(s[last : i-width])
		e.str(esc)
		last = i
	}
	e.str(s[last:])
}

func (e *Encoder) str(s string) {
	if e.err != nil {
		return
	}
	if _, err := e.w.WriteString(s); err != nil {
		e.err = err
	}
}

const indentUnit = "  "

// xmlHeader is the declaration every document starts with, encoding/xml's
// Header.
const xmlHeader = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// line starts a new output line at the given element depth.
func (e *Encoder) line(depth int) {
	e.str("\n")
	for i := 0; i < depth; i++ {
		e.str(indentUnit)
	}
}

func (e *Encoder) attr(name, value string) {
	e.str(" ")
	e.str(name)
	e.str(`="`)
	e.escape(value)
	e.str(`"`)
}

// textElement emits <name>text</name> inline, matching how the struct
// marshaler prints chardata-only elements.
func (e *Encoder) textElement(name, text string) {
	e.str("<")
	e.str(name)
	e.str(">")
	e.escape(text)
	e.str("</")
	e.str(name)
	e.str(">")
}

// BeginDocument writes the XML header and opens the VOTABLE element. An
// empty description is omitted, mirroring the omitempty wire tag.
func (e *Encoder) BeginDocument(description string) error {
	if err := e.misuse("BeginDocument", encInit); err != nil {
		return err
	}
	e.str(xmlHeader)
	e.str(`<VOTABLE version="1.1">`)
	if description != "" {
		e.inDoc = true
		e.line(1)
		e.textElement("DESCRIPTION", description)
	}
	e.state = encDocument
	return e.err
}

// BeginResource opens a RESOURCE element.
func (e *Encoder) BeginResource(name string) error {
	if err := e.misuse("BeginResource", encDocument); err != nil {
		return err
	}
	e.inDoc = true
	e.inRes = false
	e.line(1)
	e.str("<RESOURCE")
	if name != "" {
		e.attr("name", name)
	}
	e.str(">")
	e.state = encResource
	return e.err
}

// BeginTable opens a TABLE element and writes its metadata (description,
// PARAMs, FIELDs) plus the opening DATA/TABLEDATA tags; rows follow via Row.
func (e *Encoder) BeginTable(meta TableMeta) error {
	if err := e.misuse("BeginTable", encResource); err != nil {
		return err
	}
	e.inRes = true
	e.line(2)
	e.str("<TABLE")
	if meta.Name != "" {
		e.attr("name", meta.Name)
	}
	e.str(">")
	if meta.Description != "" {
		e.line(3)
		e.textElement("DESCRIPTION", meta.Description)
	}
	for _, p := range meta.Params {
		e.line(3)
		e.str("<PARAM")
		// name, datatype and value are not omitempty on the wire struct.
		e.attr("name", p.Name)
		e.attr("datatype", p.Datatype)
		e.attr("value", p.Value)
		if p.Unit != "" {
			e.attr("unit", p.Unit)
		}
		if p.UCD != "" {
			e.attr("ucd", p.UCD)
		}
		e.str("></PARAM>")
	}
	for _, f := range meta.Fields {
		e.line(3)
		e.str("<FIELD")
		if f.ID != "" {
			e.attr("ID", f.ID)
		}
		e.attr("name", f.Name)
		e.attr("datatype", f.Datatype)
		if f.Unit != "" {
			e.attr("unit", f.Unit)
		}
		if f.UCD != "" {
			e.attr("ucd", f.UCD)
		}
		e.str(">")
		if f.Description != "" {
			e.line(4)
			e.textElement("DESCRIPTION", f.Description)
			e.line(3)
		}
		e.str("</FIELD>")
	}
	e.line(3)
	e.str("<DATA>")
	e.line(4)
	e.str("<TABLEDATA>")
	e.rows = 0
	e.state = encTable
	return e.err
}

// Row writes one TR with one TD per cell.
func (e *Encoder) Row(cells []string) error {
	if err := e.misuse("Row", encTable); err != nil {
		return err
	}
	e.rows++
	e.line(5)
	e.str("<TR>")
	for _, c := range cells {
		e.line(6)
		e.textElement("TD", c)
	}
	if len(cells) > 0 {
		e.line(5)
	}
	e.str("</TR>")
	return e.err
}

// EndTable closes TABLEDATA, DATA and TABLE.
func (e *Encoder) EndTable() error {
	if err := e.misuse("EndTable", encTable); err != nil {
		return err
	}
	if e.rows > 0 {
		e.line(4)
	}
	e.str("</TABLEDATA>")
	e.line(3)
	e.str("</DATA>")
	e.line(2)
	e.str("</TABLE>")
	e.state = encResource
	return e.err
}

// EncodeTable writes a whole in-memory table as one streaming unit.
func (e *Encoder) EncodeTable(t *Table) error {
	if err := e.BeginTable(t.Meta()); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := e.Row(r); err != nil {
			return err
		}
	}
	return e.EndTable()
}

// EndResource closes the current RESOURCE element.
func (e *Encoder) EndResource() error {
	if err := e.misuse("EndResource", encResource); err != nil {
		return err
	}
	if e.inRes {
		e.line(1)
	}
	e.str("</RESOURCE>")
	e.state = encDocument
	return e.err
}

// End closes the VOTABLE element, flushes the encoder and writes the
// trailing newline Write always emitted.
func (e *Encoder) End() error {
	if err := e.misuse("End", encDocument); err != nil {
		return err
	}
	if e.inDoc {
		e.line(0)
	}
	e.str("</VOTABLE>")
	e.str("\n")
	if e.err != nil {
		return e.err
	}
	if err := e.w.Flush(); err != nil {
		return e.fail(err)
	}
	e.state = encDone
	return nil
}

// --- streaming decoder -----------------------------------------------------

// Handler receives decode events in document order. Any callback may be nil;
// a non-nil callback returning an error aborts the decode and that error is
// returned verbatim (decode errors from the XML layer are wrapped in
// "votable: parse:" like Read always did).
//
// Rows are delivered exactly as written — not padded or width-checked —
// because field declarations may legally appear after the data in a document;
// consumers that want normalized rows use DecodeRows or Read.
type Handler struct {
	Description      func(text string) error
	StartResource    func(name string) error
	EndResource      func() error
	StartTable       func(name string) error
	TableDescription func(text string) error
	Param            func(p Param) error
	Field            func(f Field) error
	Row              func(cells []string) error
	EndTable         func() error

	// rows, which Read sets, takes Row's place: the scanner keeps every row
	// of a table in its buffers and hands them over at the table's end,
	// before EndTable, its text as one string, so that the table can be cut
	// from one block.
	rows func(text string, cellEnds, rowEnds []int) error
}

func parseErr(err error) error {
	return fmt.Errorf("votable: parse: %w", err)
}

// callbackError marks an error raised by a handler callback so it can pass
// through the decoder without the parse wrapping.
type callbackError struct{ err error }

func (c callbackError) Error() string { return c.err.Error() }

// call invokes a handler callback, tagging its error for unwrapped return.
func call(err error) error {
	if err != nil {
		return callbackError{err}
	}
	return nil
}

// DecodeDocument streams a VOTable document through h. It parses exactly
// one top-level element and examines nothing after it, skips unknown
// elements, and accepts, rejects and delivers what the historical
// struct unmarshal through encoding/xml did, with the same error texts.
func DecodeDocument(r io.Reader, h *Handler) error {
	s := newScanner(r)
	err := decodeRoot(s, h)
	s.release()
	if cb, ok := err.(callbackError); ok {
		return cb.err
	}
	if err != nil {
		return parseErr(err)
	}
	return nil
}

func decodeRoot(s *scanner, h *Handler) error {
	// Before the root an end tag is a syntax error, so next returns the
	// root's start tag or an error.
	if _, err := s.next(false); err != nil {
		return err
	}
	if !s.is("VOTABLE") {
		return s.unexpected("VOTABLE")
	}
	return decodeVOTable(s, h)
}

// children is the one child-element loop every level of the document runs:
// it hands each start tag up to the enclosing end tag to each, which
// consumes the element whole — decodes it, descends into it or skips it.
func children(s *scanner, each func() error) error {
	for {
		ev, err := s.next(false)
		if err != nil {
			return err
		}
		if ev == endTag {
			return nil
		}
		if err := each(); err != nil {
			return err
		}
	}
}

func decodeVOTable(s *scanner, h *Handler) error {
	return children(s, func() error {
		switch string(s.local()) {
		case "DESCRIPTION":
			text, err := s.textElement()
			if err != nil {
				return err
			}
			if h.Description != nil {
				return call(h.Description(text))
			}
		case "RESOURCE":
			if h.StartResource != nil {
				if err := call(h.StartResource(s.attr("name"))); err != nil {
					return err
				}
			}
			if err := decodeResource(s, h); err != nil {
				return err
			}
			if h.EndResource != nil {
				return call(h.EndResource())
			}
		default:
			return s.skip()
		}
		return nil
	})
}

func decodeResource(s *scanner, h *Handler) error {
	return children(s, func() error {
		if !s.is("TABLE") {
			return s.skip()
		}
		if h.StartTable != nil {
			if err := call(h.StartTable(s.attr("name"))); err != nil {
				return err
			}
		}
		s.text, s.cellEnds, s.rowEnds = s.text[:0], s.cellEnds[:0], s.rowEnds[:0]
		if err := decodeTable(s, h); err != nil {
			return err
		}
		if h.rows != nil {
			if err := call(h.rows(s.keptRows())); err != nil {
				return err
			}
		}
		if h.EndTable != nil {
			return call(h.EndTable())
		}
		return nil
	})
}

func decodeTable(s *scanner, h *Handler) error {
	return children(s, func() error {
		switch string(s.local()) {
		case "DESCRIPTION":
			text, err := s.textElement()
			if err != nil {
				return err
			}
			if h.TableDescription != nil {
				return call(h.TableDescription(text))
			}
		case "PARAM":
			p := Param{Name: s.attr("name"), Datatype: s.attr("datatype"), Value: s.attr("value"),
				Unit: s.attr("unit"), UCD: s.attr("ucd")}
			if err := s.skip(); err != nil {
				return err
			}
			if h.Param != nil {
				return call(h.Param(p))
			}
		case "FIELD":
			f := Field{ID: s.attr("ID"), Name: s.attr("name"), Datatype: s.attr("datatype"),
				Unit: s.attr("unit"), UCD: s.attr("ucd")}
			err := children(s, func() error {
				if !s.is("DESCRIPTION") {
					return s.skip()
				}
				var err error
				f.Description, err = s.textElement()
				return err
			})
			if err != nil {
				return err
			}
			if h.Field != nil {
				return call(h.Field(f))
			}
		case "DATA":
			return decodeData(s, h)
		default:
			return s.skip()
		}
		return nil
	})
}

func decodeData(s *scanner, h *Handler) error {
	return children(s, func() error {
		if !s.is("TABLEDATA") {
			return s.skip()
		}
		return decodeTableData(s, h)
	})
}

// decodeTableData reads the rows of a TABLEDATA. For Read it keeps them
// all in the scanner's buffers; otherwise it hands each to h.Row and
// forgets it.
//
//nvo:hotpath
func decodeTableData(s *scanner, h *Handler) error {
	for {
		ok, err := s.nextChild("TR")
		if !ok || err != nil {
			return err
		}
		if err := decodeTR(s); err != nil {
			return err
		}
		if h.rows == nil {
			if err := s.deliverRow(h); err != nil {
				return err
			}
		}
	}
}

// decodeTR reads one row: its TDs' text is unescaped onto s.text, the end
// of each cell appended to s.cellEnds and the end of the row to s.rowEnds.
// An empty cell costs no text.
//
//nvo:hotpath
func decodeTR(s *scanner) error {
	for {
		ok, err := s.nextChild("TD")
		if err != nil {
			return err
		}
		if !ok {
			s.rowEnds = append(s.rowEnds, len(s.cellEnds))
			return nil
		}
		if err := s.ownText(); err != nil {
			return err
		}
		s.cellEnds = append(s.cellEnds, len(s.text))
	}
}

// nextChild advances to the next child named name of the element being
// read, skipping any other child whole, and reports false at that
// element's end tag. It is children without a callback, for the row loops.
//
//nvo:hotpath
func (s *scanner) nextChild(name string) (bool, error) {
	for {
		ev, err := s.next(false)
		if err != nil || ev == endTag {
			return false, err
		}
		if s.is(name) {
			return true, nil
		}
		if err := s.skip(); err != nil {
			return false, err
		}
	}
}

// keptRows hands over the rows kept for a table: their text as one string,
// and the cell and row ends. Buffers too large to go back to the pool are
// given up here, so that the collector may take the text back while the
// table's cells are cut.
func (s *scanner) keptRows() (text string, cellEnds, rowEnds []int) {
	text, cellEnds, rowEnds = string(s.text), s.cellEnds, s.rowEnds
	if s.keptBytes() > maxPooledBytes {
		s.text, s.cellEnds, s.rowEnds = nil, nil, nil
	}
	return text, cellEnds, rowEnds
}

// deliverRow hands the one row the scanner holds to h.Row, as one string
// the cells slice and their []string (nil for a row without cells), and
// empties the scanner's buffers.
func (s *scanner) deliverRow(h *Handler) error {
	var cells []string
	if h.Row != nil && len(s.cellEnds) > 0 {
		cells = make([]string, len(s.cellEnds))
		cutCells(cells, string(s.text), 0, s.cellEnds)
	}
	s.text, s.cellEnds, s.rowEnds = s.text[:0], s.cellEnds[:0], s.rowEnds[:0]
	if h.Row == nil {
		return nil
	}
	return call(h.Row(cells))
}

// --- normalized row streaming ---------------------------------------------

// DecodeRows streams the data rows of every table in a document. Rows are
// normalized against the fields declared so far: short rows are padded with
// empty cells and over-wide rows fail with ErrRaggedRow, exactly as Read
// does. startTable fires once per table before its first row (and before
// endTable for empty tables); meta accumulates params/fields as they are
// declared. Either callback may be nil.
func DecodeRows(r io.Reader, startTable func(meta *TableMeta) error, row func(meta *TableMeta, cells []string) error) error {
	var meta *TableMeta
	announced := false
	announce := func() error {
		if announced || meta == nil {
			return nil
		}
		announced = true
		if startTable == nil {
			return nil
		}
		return startTable(meta)
	}
	h := &Handler{
		StartTable: func(name string) error {
			meta = &TableMeta{Name: name}
			announced = false
			return nil
		},
		TableDescription: func(s string) error {
			meta.Description = strings.TrimSpace(s)
			return nil
		},
		Param: func(p Param) error {
			meta.Params = append(meta.Params, p)
			return nil
		},
		Field: func(f Field) error {
			meta.Fields = append(meta.Fields, f)
			return nil
		},
		Row: func(cells []string) error {
			if err := announce(); err != nil {
				return err
			}
			cells, err := normalizeRow(meta.Name, cells, len(meta.Fields))
			if err != nil {
				return err
			}
			if row == nil {
				return nil
			}
			return row(meta, cells)
		},
		EndTable: func() error {
			return announce()
		},
	}
	return DecodeDocument(r, h)
}

func normalizeRow(table string, cells []string, width int) ([]string, error) {
	// Tolerate short rows (trailing empty TDs omitted).
	for len(cells) < width {
		cells = append(cells, "")
	}
	if len(cells) > width {
		return nil, overWide(table, len(cells), width)
	}
	return cells, nil
}

// overWide is the error for a row of table with n cells, more than its
// width fields.
func overWide(table string, n, width int) error {
	return fmt.Errorf("%w: table %q row has %d cells for %d fields", ErrRaggedRow, table, n, width)
}
