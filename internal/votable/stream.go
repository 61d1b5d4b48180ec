// Streaming VOTable codec: an incremental encoder that never holds a full
// Table in memory, and the one decoder under Read and DecodeRows. The
// encoder's printer reproduces the struct-marshal output byte for byte (same
// indentation and escaping rules as encoding/xml's indented Encode), so
// survey-scale producers can stream hundreds of thousands of rows while
// every existing byte-identity pin stays in force. The decoder walks the
// document with the byte scanner in scan.go, which keeps malformed-input
// behavior aligned with the historical whole-document unmarshal through
// encoding/xml, and builds the Document as it goes: Read's tables keep
// their rows, cut into one block at each table's end, while DecodeRows
// hands each row over as it ends and keeps none.
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

// --- decoder ---------------------------------------------------------------

// decoder reads one VOTable document into doc through the byte scanner in
// scan.go: the document's description and resources, and each table's
// name, trimmed description, params and fields. It parses exactly one
// top-level element and examines nothing after it, skips unknown elements,
// and accepts and rejects what the historical struct unmarshal through
// encoding/xml did, with the same error texts.
//
// A table's rows go one of two ways. Without a row hook (Read) the scanner
// keeps them all, and at the table's end they are cut into one block,
// padded to the table's final field count. With one (DecodeRows) each row
// is padded to the fields declared so far and handed to the hook as it
// ends, and the table keeps none.
type decoder struct {
	s   *scanner
	doc *Document

	// start and row are DecodeRows' hooks: start, if set, announces each
	// table once, before its first row or at its end. A hook's error ends
	// the decode and is returned as it is.
	start func(meta *TableMeta) error
	row   func(meta *TableMeta, cells []string) error

	meta       *TableMeta // the table being read
	announced  bool       // start has been given meta
	hookFailed bool       // the decode ended with an error that hook passed on
	ragged     error      // Read's first over-wide row, reported once the document has parsed
}

// decode reads the document r holds into d.doc.
func (d *decoder) decode(r io.Reader) error {
	d.s = newScanner(r)
	err := d.document()
	d.s.release()
	switch {
	case err == nil:
		return d.ragged
	case d.hookFailed:
		return err
	}
	return fmt.Errorf("votable: parse: %w", err)
}

// hook passes on an error that decode returns as it is, not as a parse
// error: a hook's, or the over-wide row of DecodeRows.
func (d *decoder) hook(err error) error {
	d.hookFailed = err != nil
	return err
}

// document reads the root, which must be a VOTABLE, and its DESCRIPTION
// and RESOURCEs.
func (d *decoder) document() error {
	s := d.s
	// Before the root an end tag is a syntax error, so next returns the
	// root's start tag or an error.
	if _, err := s.next(false); err != nil {
		return err
	}
	if !s.is("VOTABLE") {
		return s.unexpected("VOTABLE")
	}
	return children(s, func() error {
		switch string(s.local()) {
		case "DESCRIPTION":
			text, err := s.textElement()
			d.doc.Description = strings.TrimSpace(text)
			return err
		case "RESOURCE":
			d.doc.Resources = append(d.doc.Resources, Resource{Name: s.attr("name")})
			return children(s, func() error {
				if !s.is("TABLE") {
					return s.skip()
				}
				return d.table()
			})
		}
		return s.skip()
	})
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

// table reads the TABLE whose start tag next returned and appends it to
// the last resource.
func (d *decoder) table() error {
	s := d.s
	m := &TableMeta{Name: s.attr("name")}
	d.meta, d.announced = m, false
	s.text, s.cellEnds, s.rowEnds = s.text[:0], s.cellEnds[:0], s.rowEnds[:0]
	err := children(s, func() error {
		switch string(s.local()) {
		case "DESCRIPTION":
			text, err := s.textElement()
			m.Description = strings.TrimSpace(text)
			return err
		case "PARAM": // its attributes only: the element is skipped below
			m.Params = append(m.Params, Param{Name: s.attr("name"), Datatype: s.attr("datatype"),
				Value: s.attr("value"), Unit: s.attr("unit"), UCD: s.attr("ucd")})
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
			m.Fields = append(m.Fields, f)
			return err
		case "DATA":
			return d.data()
		}
		return s.skip()
	})
	if err != nil {
		return err
	}
	res := &d.doc.Resources[len(d.doc.Resources)-1]
	res.Tables = append(res.Tables, Table{Name: m.Name, Description: m.Description, Params: m.Params, Fields: m.Fields})
	if d.row != nil {
		return d.announce()
	}
	if d.ragged == nil {
		d.ragged = res.Tables[len(res.Tables)-1].setRows(s.keptRows())
	}
	return nil
}

// data reads the rows of a DATA's TABLEDATAs: without a row hook the
// scanner keeps them all, with one each is handed over as it ends.
//
//nvo:hotpath
func (d *decoder) data() error {
	s := d.s
	for {
		ok, err := s.nextChild("TABLEDATA")
		if !ok || err != nil {
			return err
		}
		for ok {
			if ok, err = s.nextChild("TR"); ok {
				if err = decodeTR(s); err == nil && d.row != nil {
					err = d.handOver()
				}
			}
			if err != nil {
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

// handOver gives the one row the scanner holds to the row hook, after its
// table's announcement, as its own []string of one string's cells padded
// to the fields declared so far (nil if there are none), and empties the
// scanner's buffers. A row wider than those fields fails the decode.
func (d *decoder) handOver() error {
	if err := d.announce(); err != nil {
		return err
	}
	s := d.s
	n, width := len(s.cellEnds), len(d.meta.Fields)
	if n > width {
		return d.hook(overWide(d.meta.Name, n, width))
	}
	var cells []string
	if width > 0 {
		cells = make([]string, width)
		cutCells(cells, string(s.text), 0, s.cellEnds)
	}
	s.text, s.cellEnds, s.rowEnds = s.text[:0], s.cellEnds[:0], s.rowEnds[:0]
	return d.hook(d.row(d.meta, cells))
}

// announce gives the table being read to the start hook, once.
func (d *decoder) announce() error {
	if d.announced {
		return nil
	}
	d.announced = true
	if d.start == nil {
		return nil
	}
	return d.hook(d.start(d.meta))
}

// DecodeRows streams the data rows of every table in a document. Rows are
// normalized against the fields declared so far: short rows are padded with
// empty cells and over-wide rows fail with ErrRaggedRow, exactly as Read
// does. startTable fires once per table before its first row (and at the
// table's end for empty tables); meta accumulates params/fields as they are
// declared. Either callback may be nil; an error either returns ends the
// decode and is returned as it is.
func DecodeRows(r io.Reader, startTable func(meta *TableMeta) error, row func(meta *TableMeta, cells []string) error) error {
	if row == nil {
		row = func(*TableMeta, []string) error { return nil }
	}
	d := decoder{doc: &Document{}, start: startTable, row: row}
	return d.decode(r)
}

// overWide is the error for a row of table with n cells, more than its
// width fields.
func overWide(table string, n, width int) error {
	return fmt.Errorf("%w: table %q row has %d cells for %d fields", ErrRaggedRow, table, n, width)
}
