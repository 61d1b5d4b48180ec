package votable

import (
	"bytes"
	"fmt"
	"strconv"
)

// Block-backed rows. A table that this package makes — Read's tables, the
// RowBuilder's, and the results of Clone, Filter, Join, LeftJoin and
// AddColumn — holds its cells in one []string block, and every row is a
// capped three-index slice of it: writing a cell touches that cell only,
// and an append to a row reallocates that row alone, never the next one.
// Read and the RowBuilder also keep every cell's text in one string, so a
// table costs a few allocations whatever its number of rows and cells.

// newRows returns n rows of width empty cells, cut from one block, and the
// block. A zero-width row is nil, as Read has always given it.
func newRows(n, width int) (rows [][]string, block []string) {
	if n == 0 {
		return nil, nil
	}
	rows = make([][]string, n)
	if width == 0 {
		return rows, nil
	}
	block = make([]string, n*width)
	for i := range rows {
		rows[i] = block[i*width : (i+1)*width : (i+1)*width]
	}
	return rows, block
}

// blockRows copies rows into dst, each into its own capped span of one new
// block with extra empty cells after its own; dst may be rows itself. A
// row that stays empty stays nil.
func blockRows(dst, rows [][]string, extra int) {
	total := 0
	for _, r := range rows {
		total += len(r) + extra
	}
	block := make([]string, total)
	for i, r := range rows {
		if len(r)+extra == 0 {
			dst[i] = nil
			continue
		}
		row := block[: len(r)+extra : len(r)+extra]
		copy(row, r)
		block = block[len(row):]
		dst[i] = row
	}
}

// setRows gives t the rows the scanner kept for it: the cells' text, each
// cell's end offset in it, and each row's end offset in cellEnds. Every
// row is padded to the table's width; a row wider than that is the error
// Read reports once the whole document has parsed.
func (t *Table) setRows(text string, cellEnds, rowEnds []int) error {
	width := len(t.Fields)
	cell := 0
	for _, end := range rowEnds {
		if n := end - cell; n > width {
			return overWide(t.Name, n, width)
		}
		cell = end
	}
	t.Rows, _ = newRows(len(rowEnds), width)
	at := 0
	cell = 0
	for i, end := range rowEnds {
		cutCells(t.Rows[i], text, at, cellEnds[cell:end])
		if end > cell {
			at = cellEnds[end-1]
		}
		cell = end
	}
	return nil
}

// cutCells sets cells[k] to the text from the end of the cell before it
// (at, for the first) to ends[k].
//
//nvo:hotpath
func cutCells(cells []string, text string, at int, ends []int) {
	for k, end := range ends {
		cells[k] = text[at:end]
		at = end
	}
}

// A RowBuilder makes the rows of a table, or the cells of a column, in a
// few allocations whatever their number: each cell's text is appended to
// one buffer (numbers through strconv, with no string of their own), and
// Rows converts that buffer to one string and cuts it into one cell block.
type RowBuilder struct {
	width int
	text  []byte
	ends  []int // end offset in text of each cell
}

// NewRowBuilder returns a builder of rows of width cells (at least one),
// with room for the cell offsets of rows of them; the text grows as it is
// appended.
func NewRowBuilder(width, rows int) *RowBuilder {
	return &RowBuilder{width: width, ends: make([]int, 0, width*rows)}
}

// NumRows returns the number of whole rows appended so far.
func (b *RowBuilder) NumRows() int { return len(b.ends) / b.width }

// Text appends one cell: the concatenation of parts.
//
//nvo:hotpath
func (b *RowBuilder) Text(parts ...string) {
	for _, p := range parts {
		b.text = append(b.text, p...)
	}
	b.ends = append(b.ends, len(b.text))
}

// Float appends one cell holding v as FormatFloat renders it.
//
//nvo:hotpath
func (b *RowBuilder) Float(v float64) {
	b.text = strconv.AppendFloat(b.text, v, 'g', -1, 64)
	b.ends = append(b.ends, len(b.text))
}

// Int appends one cell holding v as strconv.Itoa renders it.
//
//nvo:hotpath
func (b *RowBuilder) Int(v int) {
	b.text = strconv.AppendInt(b.text, int64(v), 10)
	b.ends = append(b.ends, len(b.text))
}

// Fixed appends one cell holding v with prec decimals, as %.{prec}f
// renders it, less the trailing zeros of its fraction and then a bare
// decimal point.
//
//nvo:hotpath
func (b *RowBuilder) Fixed(v float64, prec int) {
	start := len(b.text)
	b.text = strconv.AppendFloat(b.text, v, 'f', prec, 64)
	if bytes.IndexByte(b.text[start:], '.') >= 0 {
		b.text = bytes.TrimRight(b.text, "0")
		if n := len(b.text) - 1; b.text[n] == '.' {
			b.text = b.text[:n]
		}
	}
	b.ends = append(b.ends, len(b.text))
}

// Rows returns the rows appended so far, cut from one string and one cell
// block; nil if there are none. The cells must fill whole rows.
func (b *RowBuilder) Rows() [][]string {
	if len(b.ends)%b.width != 0 {
		panic(fmt.Sprintf("votable: RowBuilder: %d cells do not fill rows of %d", len(b.ends), b.width))
	}
	rows, block := newRows(len(b.ends)/b.width, b.width)
	cutCells(block, string(b.text), 0, b.ends)
	return rows
}
