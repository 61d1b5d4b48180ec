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
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
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

// MaxAnswerBytes bounds the VOTable document a client reads from a
// service's answer. The largest answer this system is sized for is the
// unpaged /siacut answer for the 200,000-galaxy survey of EXPERIMENTS §P3:
// its rows run 315 bytes each on the 1,000-galaxy SURVEY answer, so about
// 63 MB in all, and 128 MiB is twice that.
const MaxAnswerBytes = 128 << 20

// ReadAnswer reads the first table of the answer body that a service at
// url sent. It reads at most MaxAnswerBytes of it: a longer answer fails
// with an error naming url and the bound.
func ReadAnswer(body io.Reader, url string) (*Table, error) {
	t, err := ReadTable(&answerReader{r: body})
	if errors.Is(err, errAnswerTooLarge) {
		return nil, fmt.Errorf("votable: answer from %s larger than %d bytes", url, MaxAnswerBytes)
	}
	return t, err
}

// errAnswerTooLarge is answerReader's report of a byte past MaxAnswerBytes.
var errAnswerTooLarge = errors.New("answer too large")

// answerReader reads r until a byte past MaxAnswerBytes, which fails.
type answerReader struct {
	r io.Reader
	n int64 // bytes read so far
}

func (a *answerReader) Read(p []byte) (int, error) {
	if left := MaxAnswerBytes + 1 - a.n; int64(len(p)) > left {
		p = p[:left]
	}
	n, err := a.r.Read(p)
	if a.n += int64(n); a.n > MaxAnswerBytes {
		n, err = n-1, errAnswerTooLarge
	}
	return n, err
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
func (t *Table) ColumnIndex(name string) int { return columnIndex(t.Fields, name) }

func columnIndex(fields []Field, name string) int {
	for i, f := range fields {
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
// by fill (which may be nil for empty cells). The rows move to one new
// block, one cell wider each.
func (t *Table) AddColumn(f Field, fill func(row int) string) {
	t.addColumns(f)
	if fill == nil {
		return
	}
	for i, row := range t.Rows {
		row[len(row)-1] = fill(i)
	}
}

// addColumns appends fields, and as many empty cells to every row, moving
// the rows to one new block.
func (t *Table) addColumns(fields ...Field) {
	t.Fields = append(t.Fields, fields...)
	blockRows(t.Rows, t.Rows, len(fields))
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := &Table{Name: t.Name, Description: t.Description, Params: slices.Clone(t.Params)}
	out.Fields = append([]Field(nil), t.Fields...)
	if len(t.Rows) > 0 {
		out.Rows = make([][]string, len(t.Rows))
		blockRows(out.Rows, t.Rows, 0)
	}
	return out
}

// Filter returns a new table, with the same PARAMs, containing the rows for
// which keep returns true.
func (t *Table) Filter(keep func(row int) bool) *Table {
	out := &Table{Name: t.Name, Description: t.Description, Params: slices.Clone(t.Params), Fields: append([]Field(nil), t.Fields...)}
	for i, row := range t.Rows {
		if keep(i) {
			out.Rows = append(out.Rows, row)
		}
	}
	blockRows(out.Rows, out.Rows, 0)
	return out
}

// SortByFloat sorts rows stably, ascending by the named numeric column; rows
// whose cell does not parse or parses as NaN sort last, in their old order.
func (t *Table) SortByFloat(col string) error {
	c := t.ColumnIndex(col)
	if c < 0 {
		return fmt.Errorf("%w: %q", ErrNoSuchColumn, col)
	}
	key := func(row []string) (float64, bool) {
		v, err := strconv.ParseFloat(strings.TrimSpace(row[c]), 64)
		return v, err == nil && !math.IsNaN(v)
	}
	sort.SliceStable(t.Rows, func(i, j int) bool {
		vi, okI := key(t.Rows[i])
		vj, okJ := key(t.Rows[j])
		if !okI {
			return false
		}
		if !okJ {
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
	return join(a, b, keyA, keyB, false)
}

// LeftJoin is Join but rows of a without a match in b are kept with empty
// cells for b's columns.
func LeftJoin(a, b *Table, keyA, keyB string) (*Table, error) {
	return join(a, b, keyA, keyB, true)
}

// join is Join, and LeftJoin when keepUnmatched is set: a hash join that
// indexes b by key and emits, for each row of a in order, one row per match
// in b's order.
func join(a, b *Table, keyA, keyB string, keepUnmatched bool) (*Table, error) {
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

	// first[key] is the first row of b with that key and next[i] the row
	// after i with row i's key, or -1: b's matches in b's order, with no
	// slice per key.
	first := make(map[string]int, len(b.Rows))
	next := make([]int, len(b.Rows))
	for i := len(b.Rows) - 1; i >= 0; i-- {
		key := b.Rows[i][kb]
		next[i] = -1
		if j, ok := first[key]; ok {
			next[i] = j
		}
		first[key] = i
	}
	n := 0
	for _, ra := range a.Rows {
		bi, ok := first[ra[ka]]
		if !ok && keepUnmatched {
			n++
		}
		for ; ok && bi >= 0; bi = next[bi] {
			n++
		}
	}
	out.Rows, _ = newRows(n, len(out.Fields))
	n = 0
	for _, ra := range a.Rows {
		bi, ok := first[ra[ka]]
		if !ok && keepUnmatched {
			copy(out.Rows[n], ra)
			n++
		}
		for ; ok && bi >= 0; bi = next[bi] {
			row, rb := out.Rows[n], b.Rows[bi]
			copy(row, ra)
			copy(row[len(ra):], rb[:kb])
			copy(row[len(ra)+kb:], rb[kb+1:])
			n++
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
	// Add the missing columns in one move of dst's rows.
	var missing []Field
	for _, col := range cols {
		sc := src.ColumnIndex(col)
		if sc < 0 {
			return fmt.Errorf("%w: %q in %q", ErrNoSuchColumn, col, src.Name)
		}
		if dst.ColumnIndex(col) < 0 && columnIndex(missing, col) < 0 {
			missing = append(missing, src.Fields[sc])
		}
	}
	dst.addColumns(missing...)
	for _, col := range cols {
		sc, dc := src.ColumnIndex(col), dst.ColumnIndex(col)
		for i := range dst.Rows {
			if si, ok := srcIdx[dst.Rows[i][kd]]; ok {
				dst.Rows[i][dc] = src.Rows[si][sc]
			}
		}
	}
	return nil
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

// WriteSized writes a document whose length its writer must know first:
// write encodes it twice, the first pass into a counter of its bytes, the
// second into the writer that to(n) returns for that count n. A caller
// declares the length before it sends, or encodes into a buffer of exactly
// that length, without holding the document twice. Both passes go through
// one *bufio.Writer, which an Encoder uses as its own; the encoding must
// not change between them.
func WriteSized(write func(w io.Writer) error, to func(n int) io.Writer) error {
	var n byteCount
	bw := bufio.NewWriter(&n)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	bw.Reset(to(int(n)))
	if err := write(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// byteCount is an io.Writer that only counts the bytes written to it.
type byteCount int

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}

// Read parses a VOTable document. Each table keeps its rows in one block
// (block.go), padded at the table's end to its final field count, which
// keeps the historical struct-decode semantics even for documents that
// declare fields after their data. A row wider than its table fails the
// read, but only once the whole document has parsed, so that a syntax
// error anywhere wins.
func Read(r io.Reader) (*Document, error) {
	d := decoder{doc: &Document{}}
	if err := d.decode(r); err != nil {
		return nil, err
	}
	return d.doc, nil
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
