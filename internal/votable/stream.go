// Streaming VOTable codec: a row-callback decoder and an incremental
// encoder that never hold a full Table in memory. The in-memory Read/Write
// API in votable.go is reimplemented on top of these; the encoder's printer
// reproduces the struct-marshal output byte for byte (same indentation and
// escaping rules as encoding/xml's indented Encode), so survey-scale
// producers can stream hundreds of thousands of rows while every existing
// byte-identity pin stays in force. The decoder walks xml.Decoder tokens for
// the document skeleton and delegates the leaf subtrees it shares with the
// old wire structs to DecodeElement, keeping malformed-input behavior
// aligned with the historical whole-document unmarshal.
package votable

import (
	"bufio"
	"encoding/xml"
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
	e.str(xml.Header)
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

// DecodeDocument streams a VOTable document through h. It consumes exactly
// one top-level element (trailing bytes are left unread, matching the
// in-memory Read), skips unknown elements, and mirrors the old
// struct-unmarshal semantics for every subtree it does understand.
func DecodeDocument(r io.Reader, h *Handler) error {
	dec := xml.NewDecoder(r)
	err := decodeRoot(dec, h)
	if cb, ok := err.(callbackError); ok {
		return cb.err
	}
	if err != nil {
		return parseErr(err)
	}
	return nil
}

func decodeRoot(dec *xml.Decoder, h *Handler) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		if se.Name.Local != "VOTABLE" {
			// Same error type and text the struct decoder produces.
			return xml.UnmarshalError("expected element type <VOTABLE> but have <" + se.Name.Local + ">")
		}
		return decodeVOTable(dec, h)
	}
}

// lastAttr returns the value of the last attribute with the given local
// name, matching the overwrite-on-repeat behavior of struct unmarshal.
func lastAttr(se xml.StartElement, name string) string {
	v := ""
	for _, a := range se.Attr {
		if a.Name.Local == name {
			v = a.Value
		}
	}
	return v
}

// children is the one child-element loop every level of the document runs:
// it hands each start element up to the enclosing end tag to each, which
// consumes the element whole — decodes it, descends into it or skips it.
func children(dec *xml.Decoder, each func(se xml.StartElement) error) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := each(t); err != nil {
				return err
			}
		case xml.EndElement:
			return nil
		}
	}
}

func decodeVOTable(dec *xml.Decoder, h *Handler) error {
	return children(dec, func(se xml.StartElement) error {
		switch se.Name.Local {
		case "DESCRIPTION":
			var s string
			if err := dec.DecodeElement(&s, &se); err != nil {
				return err
			}
			if h.Description != nil {
				return call(h.Description(s))
			}
		case "RESOURCE":
			if h.StartResource != nil {
				if err := call(h.StartResource(lastAttr(se, "name"))); err != nil {
					return err
				}
			}
			if err := decodeResource(dec, h); err != nil {
				return err
			}
			if h.EndResource != nil {
				return call(h.EndResource())
			}
		default:
			return dec.Skip()
		}
		return nil
	})
}

func decodeResource(dec *xml.Decoder, h *Handler) error {
	return children(dec, func(se xml.StartElement) error {
		if se.Name.Local != "TABLE" {
			return dec.Skip()
		}
		if h.StartTable != nil {
			if err := call(h.StartTable(lastAttr(se, "name"))); err != nil {
				return err
			}
		}
		if err := decodeTable(dec, h); err != nil {
			return err
		}
		if h.EndTable != nil {
			return call(h.EndTable())
		}
		return nil
	})
}

func decodeTable(dec *xml.Decoder, h *Handler) error {
	return children(dec, func(se xml.StartElement) error {
		switch se.Name.Local {
		case "DESCRIPTION":
			var s string
			if err := dec.DecodeElement(&s, &se); err != nil {
				return err
			}
			if h.TableDescription != nil {
				return call(h.TableDescription(s))
			}
		case "PARAM":
			var xp xmlParam
			if err := dec.DecodeElement(&xp, &se); err != nil {
				return err
			}
			if h.Param != nil {
				return call(h.Param(Param(xp)))
			}
		case "FIELD":
			var xf xmlField
			if err := dec.DecodeElement(&xf, &se); err != nil {
				return err
			}
			if h.Field != nil {
				return call(h.Field(Field(xf)))
			}
		case "DATA":
			return decodeData(dec, h)
		default:
			return dec.Skip()
		}
		return nil
	})
}

func decodeData(dec *xml.Decoder, h *Handler) error {
	return children(dec, func(se xml.StartElement) error {
		if se.Name.Local != "TABLEDATA" {
			return dec.Skip()
		}
		return decodeTableData(dec, h)
	})
}

func decodeTableData(dec *xml.Decoder, h *Handler) error {
	return children(dec, func(se xml.StartElement) error {
		if se.Name.Local != "TR" {
			return dec.Skip()
		}
		cells, err := decodeTR(dec)
		if err != nil {
			return err
		}
		if h.Row != nil {
			return call(h.Row(cells))
		}
		return nil
	})
}

func decodeTR(dec *xml.Decoder) ([]string, error) {
	var cells []string
	err := children(dec, func(se xml.StartElement) error {
		if se.Name.Local != "TD" {
			return dec.Skip()
		}
		var s string
		if err := dec.DecodeElement(&s, &se); err != nil {
			return err
		}
		cells = append(cells, s)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
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
		return nil, fmt.Errorf("%w: table %q row has %d cells for %d fields",
			ErrRaggedRow, table, len(cells), width)
	}
	return cells, nil
}
