// Package votable implements the VOTable XML format for astronomical tables
// (the International Virtual Observatory interchange format the paper uses to
// move every catalog between portal, data services and compute service), plus
// the generic table manipulations — join on an arbitrary column, column
// merge — that the paper identifies as missing general-purpose NVO services
// (§4.2, §5).
//
// The model is deliberately simple: a document holds named RESOURCE elements,
// each holding TABLEs; a TABLE has typed FIELD declarations and TABLEDATA
// rows of string cells with typed accessors. That matches the 2002-era
// VOTable 1.0 documents the prototype exchanged.
package votable

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Datatype names from the VOTable specification that this package understands.
const (
	TypeBoolean = "boolean"
	TypeInt     = "int"
	TypeFloat   = "float"
	TypeDouble  = "double"
	TypeChar    = "char"
)

// Field describes one column of a table.
type Field struct {
	ID          string
	Name        string
	Datatype    string
	Unit        string
	UCD         string // Unified Content Descriptor, e.g. "pos.eq.ra"
	Description string
}

// Param is a VOTable PARAM: a named scalar attached to a table (the way the
// prototype carried per-table metadata such as the cluster name or the
// search position).
type Param struct {
	Name     string
	Datatype string
	Value    string
	Unit     string
	UCD      string
}

// Table is an in-memory VOTable TABLE: typed field declarations, table-level
// PARAMs, plus rows of string-encoded cells.
type Table struct {
	Name        string
	Description string
	Params      []Param
	Fields      []Field
	Rows        [][]string
}

// SetParam adds or replaces a PARAM by name.
func (t *Table) SetParam(p Param) {
	for i := range t.Params {
		if t.Params[i].Name == p.Name {
			t.Params[i] = p
			return
		}
	}
	t.Params = append(t.Params, p)
}

// Param returns the PARAM with the given name.
func (t *Table) Param(name string) (Param, bool) {
	for _, p := range t.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Document is a whole VOTable file.
type Document struct {
	Description string
	Resources   []Resource
}

// Resource is a VOTable RESOURCE grouping of tables.
type Resource struct {
	Name   string
	Tables []Table
}

// Errors returned by table operations.
var (
	ErrNoSuchColumn = errors.New("votable: no such column")
	ErrNoSuchTable  = errors.New("votable: no such table")
	ErrRaggedRow    = errors.New("votable: row width does not match fields")
	ErrKeyCollision = errors.New("votable: duplicate key")
)

// NewTable returns an empty table with the given name and fields.
func NewTable(name string, fields ...Field) *Table {
	return &Table{Name: name, Fields: fields}
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.Rows) }

// NumCols returns the number of declared fields.
func (t *Table) NumCols() int { return len(t.Fields) }

// ColumnIndex returns the index of the field whose Name or ID equals name
// (case-insensitive), or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, f := range t.Fields {
		if strings.EqualFold(f.Name, name) || (f.ID != "" && strings.EqualFold(f.ID, name)) {
			return i
		}
	}
	return -1
}

// AppendRow adds a row, which must have exactly one cell per field.
func (t *Table) AppendRow(cells ...string) error {
	if len(cells) != len(t.Fields) {
		return fmt.Errorf("%w: got %d cells, want %d", ErrRaggedRow, len(cells), len(t.Fields))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// Cell returns the raw string cell at (row, column name); empty string if out
// of range or unknown column.
func (t *Table) Cell(row int, col string) string {
	c := t.ColumnIndex(col)
	if c < 0 || row < 0 || row >= len(t.Rows) {
		return ""
	}
	return t.Rows[row][c]
}

// SetCell overwrites the cell at (row, column name).
func (t *Table) SetCell(row int, col, value string) error {
	c := t.ColumnIndex(col)
	if c < 0 {
		return fmt.Errorf("%w: %q", ErrNoSuchColumn, col)
	}
	if row < 0 || row >= len(t.Rows) {
		return fmt.Errorf("votable: row %d out of range", row)
	}
	t.Rows[row][c] = value
	return nil
}

// Float returns the cell parsed as float64. NaN-like and empty cells yield
// (0, false).
func (t *Table) Float(row int, col string) (float64, bool) {
	s := strings.TrimSpace(t.Cell(row, col))
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Int returns the cell parsed as int64.
func (t *Table) Int(row int, col string) (int64, bool) {
	s := strings.TrimSpace(t.Cell(row, col))
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Bool returns the cell parsed as a VOTable logical ("T"/"F"/"true"/"false").
func (t *Table) Bool(row int, col string) (bool, bool) {
	switch strings.TrimSpace(strings.ToUpper(t.Cell(row, col))) {
	case "T", "TRUE", "1":
		return true, true
	case "F", "FALSE", "0":
		return false, true
	}
	return false, false
}

// AddColumn appends a field and gives every existing row the value produced
// by fill (which may be nil for empty cells).
func (t *Table) AddColumn(f Field, fill func(row int) string) {
	t.Fields = append(t.Fields, f)
	for i := range t.Rows {
		v := ""
		if fill != nil {
			v = fill(i)
		}
		t.Rows[i] = append(t.Rows[i], v)
	}
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := &Table{Name: t.Name, Description: t.Description}
	out.Fields = append([]Field(nil), t.Fields...)
	out.Rows = make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		out.Rows[i] = append([]string(nil), r...)
	}
	return out
}

// Filter returns a new table containing the rows for which keep returns true.
func (t *Table) Filter(keep func(row int) bool) *Table {
	out := &Table{Name: t.Name, Description: t.Description, Fields: append([]Field(nil), t.Fields...)}
	for i := range t.Rows {
		if keep(i) {
			out.Rows = append(out.Rows, append([]string(nil), t.Rows[i]...))
		}
	}
	return out
}

// SortByFloat sorts rows ascending by the named numeric column; rows whose
// cell does not parse sort last.
func (t *Table) SortByFloat(col string) error {
	c := t.ColumnIndex(col)
	if c < 0 {
		return fmt.Errorf("%w: %q", ErrNoSuchColumn, col)
	}
	sort.SliceStable(t.Rows, func(i, j int) bool {
		vi, erri := strconv.ParseFloat(strings.TrimSpace(t.Rows[i][c]), 64)
		vj, errj := strconv.ParseFloat(strings.TrimSpace(t.Rows[j][c]), 64)
		badI, badJ := erri != nil, errj != nil
		if badI {
			return false
		}
		if badJ {
			return true
		}
		return vi < vj
	})
	return nil
}

// Join performs an inner equi-join of a and b on string equality of the key
// columns keyA and keyB. The result carries all of a's fields followed by all
// of b's fields except its key. This is the "join two VOTables on an
// arbitrary column" general service the paper calls for.
func Join(a, b *Table, keyA, keyB string) (*Table, error) {
	ka := a.ColumnIndex(keyA)
	if ka < 0 {
		return nil, fmt.Errorf("%w: %q in %q", ErrNoSuchColumn, keyA, a.Name)
	}
	kb := b.ColumnIndex(keyB)
	if kb < 0 {
		return nil, fmt.Errorf("%w: %q in %q", ErrNoSuchColumn, keyB, b.Name)
	}

	out := &Table{Name: a.Name + "_join_" + b.Name}
	out.Fields = append(out.Fields, a.Fields...)
	for i, f := range b.Fields {
		if i == kb {
			continue
		}
		// Disambiguate clashing names the way SQL engines do.
		if a.ColumnIndex(f.Name) >= 0 {
			f.Name = b.Name + "_" + f.Name
		}
		out.Fields = append(out.Fields, f)
	}

	// Hash join: index b by key.
	idx := make(map[string][]int, len(b.Rows))
	for i, r := range b.Rows {
		idx[r[kb]] = append(idx[r[kb]], i)
	}
	for _, ra := range a.Rows {
		for _, bi := range idx[ra[ka]] {
			row := make([]string, 0, len(out.Fields))
			row = append(row, ra...)
			for j, cell := range b.Rows[bi] {
				if j == kb {
					continue
				}
				row = append(row, cell)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// LeftJoin is Join but rows of a without a match in b are kept with empty
// cells for b's columns.
func LeftJoin(a, b *Table, keyA, keyB string) (*Table, error) {
	ka := a.ColumnIndex(keyA)
	if ka < 0 {
		return nil, fmt.Errorf("%w: %q in %q", ErrNoSuchColumn, keyA, a.Name)
	}
	kb := b.ColumnIndex(keyB)
	if kb < 0 {
		return nil, fmt.Errorf("%w: %q in %q", ErrNoSuchColumn, keyB, b.Name)
	}
	out := &Table{Name: a.Name + "_join_" + b.Name}
	out.Fields = append(out.Fields, a.Fields...)
	for i, f := range b.Fields {
		if i == kb {
			continue
		}
		if a.ColumnIndex(f.Name) >= 0 {
			f.Name = b.Name + "_" + f.Name
		}
		out.Fields = append(out.Fields, f)
	}
	idx := make(map[string][]int, len(b.Rows))
	for i, r := range b.Rows {
		idx[r[kb]] = append(idx[r[kb]], i)
	}
	nbCols := len(b.Fields) - 1
	for _, ra := range a.Rows {
		matches := idx[ra[ka]]
		if len(matches) == 0 {
			row := make([]string, 0, len(out.Fields))
			row = append(row, ra...)
			for j := 0; j < nbCols; j++ {
				row = append(row, "")
			}
			out.Rows = append(out.Rows, row)
			continue
		}
		for _, bi := range matches {
			row := make([]string, 0, len(out.Fields))
			row = append(row, ra...)
			for j, cell := range b.Rows[bi] {
				if j == kb {
					continue
				}
				row = append(row, cell)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// MergeColumns copies the named columns of src into dst for rows whose key
// column matches, adding the columns to dst if absent. Keys in src must be
// unique. This is the operation the portal performs when it folds the
// computed morphology values back into the galaxy catalog (§4.2).
func MergeColumns(dst, src *Table, keyDst, keySrc string, cols ...string) error {
	kd := dst.ColumnIndex(keyDst)
	if kd < 0 {
		return fmt.Errorf("%w: %q in %q", ErrNoSuchColumn, keyDst, dst.Name)
	}
	ks := src.ColumnIndex(keySrc)
	if ks < 0 {
		return fmt.Errorf("%w: %q in %q", ErrNoSuchColumn, keySrc, src.Name)
	}
	srcIdx := make(map[string]int, len(src.Rows))
	for i, r := range src.Rows {
		if _, dup := srcIdx[r[ks]]; dup {
			return fmt.Errorf("%w: %q", ErrKeyCollision, r[ks])
		}
		srcIdx[r[ks]] = i
	}
	for _, col := range cols {
		sc := src.ColumnIndex(col)
		if sc < 0 {
			return fmt.Errorf("%w: %q in %q", ErrNoSuchColumn, col, src.Name)
		}
		dc := dst.ColumnIndex(col)
		if dc < 0 {
			dst.AddColumn(src.Fields[sc], nil)
			dc = len(dst.Fields) - 1
		}
		for i := range dst.Rows {
			if si, ok := srcIdx[dst.Rows[i][kd]]; ok {
				dst.Rows[i][dc] = src.Rows[si][sc]
			}
		}
	}
	return nil
}

// --- XML wire format -------------------------------------------------------

// xmlParam and xmlField are the element shapes the stream decoder unmarshals
// PARAM and FIELD start tags into.
type xmlParam struct {
	Name     string `xml:"name,attr"`
	Datatype string `xml:"datatype,attr"`
	Value    string `xml:"value,attr"`
	Unit     string `xml:"unit,attr,omitempty"`
	UCD      string `xml:"ucd,attr,omitempty"`
}

type xmlField struct {
	ID          string `xml:"ID,attr,omitempty"`
	Name        string `xml:"name,attr"`
	Datatype    string `xml:"datatype,attr"`
	Unit        string `xml:"unit,attr,omitempty"`
	UCD         string `xml:"ucd,attr,omitempty"`
	Description string `xml:"DESCRIPTION,omitempty"`
}

// Write serializes the document as VOTable XML. It streams through Encoder,
// producing bytes identical to the historical struct-marshal path.
func Write(w io.Writer, doc *Document) error {
	enc := NewEncoder(w)
	if err := enc.BeginDocument(doc.Description); err != nil {
		return err
	}
	for ri := range doc.Resources {
		res := &doc.Resources[ri]
		if err := enc.BeginResource(res.Name); err != nil {
			return err
		}
		for ti := range res.Tables {
			if err := enc.EncodeTable(&res.Tables[ti]); err != nil {
				return err
			}
		}
		if err := enc.EndResource(); err != nil {
			return err
		}
	}
	return enc.End()
}

// WriteTable serializes a single table as a one-resource document.
func WriteTable(w io.Writer, t *Table) error {
	return Write(w, &Document{Resources: []Resource{{Name: t.Name, Tables: []Table{*t}}}})
}

// Read parses a VOTable document. It streams through DecodeDocument; row
// normalization (short rows padded, over-wide rows rejected) happens after
// the parse against each table's final field count, preserving the
// historical struct-decode semantics even for documents that declare fields
// after their data.
func Read(r io.Reader) (*Document, error) {
	doc := &Document{}
	var cur *Table
	h := &Handler{
		Description: func(s string) error {
			doc.Description = strings.TrimSpace(s)
			return nil
		},
		StartResource: func(name string) error {
			doc.Resources = append(doc.Resources, Resource{Name: name})
			return nil
		},
		StartTable: func(name string) error {
			res := &doc.Resources[len(doc.Resources)-1]
			res.Tables = append(res.Tables, Table{Name: name})
			cur = &res.Tables[len(res.Tables)-1]
			return nil
		},
		TableDescription: func(s string) error {
			cur.Description = strings.TrimSpace(s)
			return nil
		},
		Param: func(p Param) error {
			cur.Params = append(cur.Params, p)
			return nil
		},
		Field: func(f Field) error {
			cur.Fields = append(cur.Fields, f)
			return nil
		},
		Row: func(cells []string) error {
			cur.Rows = append(cur.Rows, cells)
			return nil
		},
	}
	if err := DecodeDocument(r, h); err != nil {
		return nil, err
	}
	for ri := range doc.Resources {
		for ti := range doc.Resources[ri].Tables {
			t := &doc.Resources[ri].Tables[ti]
			for i, row := range t.Rows {
				row, err := normalizeRow(t.Name, row, len(t.Fields))
				if err != nil {
					return nil, err
				}
				t.Rows[i] = row
			}
		}
	}
	return doc, nil
}

// ReadTable parses a document and returns its first table.
func ReadTable(r io.Reader) (*Table, error) {
	doc, err := Read(r)
	if err != nil {
		return nil, err
	}
	return doc.FirstTable()
}

// FirstTable returns the first table in the document.
func (d *Document) FirstTable() (*Table, error) {
	for i := range d.Resources {
		if len(d.Resources[i].Tables) > 0 {
			return &d.Resources[i].Tables[0], nil
		}
	}
	return nil, ErrNoSuchTable
}

// FormatFloat renders a float for a table cell with full round-trip
// precision.
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
