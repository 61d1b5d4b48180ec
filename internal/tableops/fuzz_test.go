package tableops

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/votable"
)

// fuzzCells are the cells a fuzz byte below len(fuzzCells) picks: numbers,
// ties, signed zeros and infinities, NaN in two spellings, padding the
// operations trim, and cells that do not parse (out of range, empty, text).
var fuzzCells = []string{"0", "-0", "1", "1.0", "-1", "2.5", " 3 ", "-Inf", "Inf", "NaN", "nan", "1e400", "", "x"}

// fuzzCell is the cell a fuzz byte picks: one of fuzzCells, or a small
// integer so that equal values recur.
func fuzzCell(c byte) string {
	if int(c) < len(fuzzCells) {
		return fuzzCells[c]
	}
	return strconv.Itoa(int(c)%9 - 4)
}

// fuzzTable builds a table of at most 48 rows from data, two bytes a row:
// a key from a four-letter alphabet (so keys repeat) and a value cell. Its
// seq column is the row's index, which the oracles read back after a sort.
func fuzzTable(name string, data []byte) *votable.Table {
	t := votable.NewTable(name,
		votable.Field{Name: "k", Datatype: votable.TypeChar},
		votable.Field{Name: "v", Datatype: votable.TypeDouble},
		votable.Field{Name: "seq", Datatype: votable.TypeInt},
	)
	t.Description = "fuzz table " + name
	t.SetParam(votable.Param{Name: "cluster", Datatype: votable.TypeChar, Value: name})
	t.SetParam(votable.Param{Name: "n_galaxies", Datatype: votable.TypeInt, Value: strconv.Itoa(len(data) / 2)})
	for i := 0; i+1 < len(data) && t.NumRows() < 48; i += 2 {
		_ = t.AppendRow(string(rune('a'+data[i]%4)), fuzzCell(data[i+1]), strconv.Itoa(t.NumRows()))
	}
	return t
}

// sortKey is the oracle's reading of a cell: its value, and whether it sorts
// among the numbers (it parses and is not NaN) rather than after them.
func sortKey(cell string) (float64, bool) {
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	return v, err == nil && !math.IsNaN(v)
}

// nestedLoopJoin is the join oracle: every pair of rows with equal keys, in
// a's order then b's, b's key cell dropped; with left set, a row of a with
// no match is kept with empty cells for b's columns.
func nestedLoopJoin(a, b *votable.Table, ka, kb int, left bool) [][]string {
	var out [][]string
	for _, ra := range a.Rows {
		matched := false
		for _, rb := range b.Rows {
			if ra[ka] != rb[kb] {
				continue
			}
			matched = true
			row := slices.Clone(ra)
			for j, c := range rb {
				if j != kb {
					row = append(row, c)
				}
			}
			out = append(out, row)
		}
		if !matched && left {
			out = append(out, append(slices.Clone(ra), make([]string, len(b.Fields)-1)...))
		}
	}
	return out
}

// FuzzTableOps holds the table operations to their contracts on tables with
// NaN cells, unparseable cells and repeated keys: Sort is a stable
// permutation, ascending over the numeric cells with NaN and unparseable
// cells last; Filter keeps exactly the rows in [lo, hi] and refuses a NaN
// bound; Sort, Filter and Select keep the description and PARAMs and leave
// their input as it was; Join and LeftJoin give the nested-loop oracle's
// rows.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 2, 1, 9, 2, 4, 3, 13, 0, 9, 1, 2}, []byte{0, 5, 0, 6, 2, 10}, -1.0, 2.5)
	f.Add([]byte{0, 7, 1, 8, 2, 11, 3, 12}, []byte{3, 0}, math.Inf(-1), math.Inf(1))
	f.Add([]byte{0, 200, 0, 201, 0, 202, 0, 200}, []byte{}, 0.0, math.NaN())
	f.Fuzz(func(t *testing.T, da, db []byte, lo, hi float64) {
		a, b := fuzzTable("a", da), fuzzTable("b", db)
		orig := a.Clone()
		keep := func(op string, out *votable.Table) {
			t.Helper()
			if out.Description != orig.Description || !slices.Equal(out.Params, orig.Params) {
				t.Errorf("%s dropped the table's description or PARAMs: %q %+v", op, out.Description, out.Params)
			}
		}

		sorted, err := Sort(docOf(a), "v")
		if err != nil {
			t.Fatal(err)
		}
		keep("sort", sorted)
		if sorted.NumRows() != orig.NumRows() {
			t.Fatalf("sort gave %d rows from %d", sorted.NumRows(), orig.NumRows())
		}
		seen := make([]bool, orig.NumRows())
		for i, row := range sorted.Rows {
			seq, err := strconv.Atoi(row[2])
			if err != nil || seq < 0 || seq >= len(seen) || seen[seq] || !slices.Equal(row, orig.Rows[seq]) {
				t.Fatalf("sorted row %d %q is not a row of the input moved once", i, row)
			}
			seen[seq] = true
			if i == 0 {
				continue
			}
			prev := sorted.Rows[i-1]
			pv, pok := sortKey(prev[1])
			v, ok := sortKey(row[1])
			prevSeq, _ := strconv.Atoi(prev[2])
			switch {
			case ok && !pok:
				t.Fatalf("numeric cell %q sorted after %q", row[1], prev[1])
			case ok && v < pv:
				t.Fatalf("sort not ascending: %q after %q", row[1], prev[1])
			case (ok == pok && (!ok || v == pv)) && seq < prevSeq:
				t.Fatalf("sort not stable: row %d after row %d (%q, %q)", seq, prevSeq, prev[1], row[1])
			}
		}

		filtered, err := Filter(docOf(a), "v", lo, hi)
		if math.IsNaN(lo) || math.IsNaN(hi) {
			if !errors.Is(err, ErrBadParams) {
				t.Fatalf("filter with bounds [%v, %v] = %v, want ErrBadParams", lo, hi, err)
			}
		} else {
			if err != nil {
				t.Fatal(err)
			}
			keep("filter", filtered)
			var want [][]string
			for _, row := range orig.Rows {
				s := strings.TrimSpace(row[1])
				if v, err := strconv.ParseFloat(s, 64); err == nil && v >= lo && v <= hi {
					want = append(want, row)
				}
			}
			if !slices.EqualFunc(filtered.Rows, want, slices.Equal) {
				t.Fatalf("filter [%v, %v] kept %q, want %q", lo, hi, filtered.Rows, want)
			}
		}

		proj, err := Select(docOf(a), []string{"seq", "k"})
		if err != nil {
			t.Fatal(err)
		}
		keep("select", proj)
		for i, row := range proj.Rows {
			if !slices.Equal(row, []string{orig.Rows[i][2], orig.Rows[i][0]}) {
				t.Fatalf("select row %d = %q, from %q", i, row, orig.Rows[i])
			}
		}

		if !slices.EqualFunc(a.Rows, orig.Rows, slices.Equal) {
			t.Fatal("an operation changed its input table")
		}

		for _, mode := range []string{"inner", "left"} {
			joined, err := Join(docOf(a, b), "k", "k", mode)
			if err != nil {
				t.Fatal(err)
			}
			want := nestedLoopJoin(a, b, 0, 0, mode == "left")
			if !slices.EqualFunc(joined.Rows, want, slices.Equal) {
				t.Fatalf("%s join = %q, nested loop gives %q", mode, joined.Rows, want)
			}
			if len(joined.Fields) != len(a.Fields)+len(b.Fields)-1 {
				t.Fatalf("%s join has %d fields", mode, len(joined.Fields))
			}
		}
	})
}
