package votable

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"
)

// copyCells returns a copy of t's rows that shares no cell with them.
func copyCells(t *Table) [][]string {
	out := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		for _, c := range row {
			out[i] = append(out[i], string([]byte(c)))
		}
	}
	return out
}

// TestBlockRowsDoNotAlias writes every cell of a decoded table, and of the
// tables LeftJoin, AddColumn, Clone and Filter make from decoded tables,
// and checks after each table that no other table changed: block-backed
// tables share cell text, never a cell.
func TestBlockRowsDoNotAlias(t *testing.T) {
	raw := allocDoc(t)
	read := func() *Table {
		tab, err := ReadTable(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	a, b, widened := read(), read(), read()
	right := b.Filter(func(i int) bool { return i%2 == 0 }) // half of a's rows go unmatched
	joined, err := LeftJoin(a, right, "c0", "c0")
	if err != nil {
		t.Fatal(err)
	}
	widened.AddColumn(Field{Name: "x"}, func(i int) string { return strconv.Itoa(i) })
	cloned := a.Clone()
	filtered := a.Filter(func(i int) bool { return i%3 != 0 })
	tables := []*Table{a, b, right, joined, widened, cloned, filtered}
	names := []string{"decoded", "second decoded", "Filter", "LeftJoin", "AddColumn", "Clone", "second Filter"}

	want := make([][][]string, len(tables))
	for k, tab := range tables {
		want[k] = copyCells(tab)
	}
	for k, tab := range tables {
		for i, row := range tab.Rows {
			for j := range row {
				row[j] = names[k] + strconv.Itoa(i*len(row)+j)
			}
		}
		want[k] = copyCells(tab)
		for o, other := range tables {
			if !reflect.DeepEqual(other.Rows, want[o]) {
				t.Fatalf("writing every cell of the %s table changed the %s table", names[k], names[o])
			}
		}
	}
}

// TestAddColumnKeepsNeighbours: on a decoded table, AddColumn gives every
// row its old cells and its own new one, and an append to one row, before
// or after, never reaches the next.
func TestAddColumnKeepsNeighbours(t *testing.T) {
	tab, err := ReadTable(bytes.NewReader(allocDoc(t)))
	if err != nil {
		t.Fatal(err)
	}
	before := copyCells(tab)
	_ = append(tab.Rows[0], "spill")
	tab.AddColumn(Field{Name: "x"}, func(i int) string { return "x" + strconv.Itoa(i) })
	_ = append(tab.Rows[0], "spill")
	for i, row := range tab.Rows {
		if want := append(before[i], "x"+strconv.Itoa(i)); !reflect.DeepEqual(row, want) {
			t.Fatalf("row %d after AddColumn = %q, want %q", i, row, want)
		}
	}
}
