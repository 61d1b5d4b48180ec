package votable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func galaxyTable() *Table {
	t := NewTable("galaxies",
		Field{Name: "id", Datatype: TypeChar, UCD: "meta.id"},
		Field{Name: "ra", Datatype: TypeDouble, Unit: "deg", UCD: "pos.eq.ra"},
		Field{Name: "dec", Datatype: TypeDouble, Unit: "deg", UCD: "pos.eq.dec"},
		Field{Name: "mag", Datatype: TypeFloat, Unit: "mag"},
	)
	_ = t.AppendRow("NGP9_F323-0927589", "194.95", "27.98", "16.2")
	_ = t.AppendRow("NGP9_F323-0927590", "194.97", "27.91", "17.8")
	_ = t.AppendRow("NGP9_F323-0927591", "195.01", "28.02", "15.1")
	return t
}

func TestAppendRowWidth(t *testing.T) {
	tab := galaxyTable()
	if err := tab.AppendRow("only", "three", "cells"); err == nil {
		t.Error("short row must be rejected")
	}
	if err := tab.AppendRow("a", "b", "c", "d", "e"); err == nil {
		t.Error("long row must be rejected")
	}
}

func TestColumnIndexCaseInsensitive(t *testing.T) {
	tab := galaxyTable()
	if tab.ColumnIndex("RA") != 1 || tab.ColumnIndex("Dec") != 2 {
		t.Error("column lookup must be case-insensitive")
	}
	if tab.ColumnIndex("nope") != -1 {
		t.Error("unknown column must return -1")
	}
}

func TestTypedAccessors(t *testing.T) {
	tab := galaxyTable()
	if v, ok := tab.Float(0, "ra"); !ok || v != 194.95 {
		t.Errorf("Float = %v,%v", v, ok)
	}
	if _, ok := tab.Float(0, "id"); ok {
		t.Error("non-numeric cell must not parse as float")
	}
	if _, ok := tab.Float(99, "ra"); ok {
		t.Error("out-of-range row must not parse")
	}
	tab.AddColumn(Field{Name: "n", Datatype: TypeInt}, func(i int) string { return fmt.Sprint(i * 10) })
	if v, ok := tab.Int(2, "n"); !ok || v != 20 {
		t.Errorf("Int = %v,%v", v, ok)
	}
	tab.AddColumn(Field{Name: "valid", Datatype: TypeBoolean}, func(int) string { return "T" })
	if v, ok := tab.Bool(0, "valid"); !ok || !v {
		t.Errorf("Bool = %v,%v", v, ok)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	tab := galaxyTable()
	tab.Description = "cluster members"
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<VOTABLE") || !strings.Contains(buf.String(), "TABLEDATA") {
		t.Fatalf("output does not look like VOTable:\n%s", buf.String())
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "galaxies" || got.Description != "cluster members" {
		t.Errorf("metadata lost: %q %q", got.Name, got.Description)
	}
	if got.NumRows() != 3 || got.NumCols() != 4 {
		t.Fatalf("shape %dx%d", got.NumRows(), got.NumCols())
	}
	for i := range tab.Rows {
		for j := range tab.Rows[i] {
			if tab.Rows[i][j] != got.Rows[i][j] {
				t.Errorf("cell (%d,%d): %q != %q", i, j, tab.Rows[i][j], got.Rows[i][j])
			}
		}
	}
	if got.Fields[1].Unit != "deg" || got.Fields[1].UCD != "pos.eq.ra" {
		t.Errorf("field attrs lost: %+v", got.Fields[1])
	}
}

func TestXMLSpecialCharacters(t *testing.T) {
	tab := NewTable("weird", Field{Name: "s", Datatype: TypeChar})
	_ = tab.AppendRow(`<&>"'`)
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0] != `<&>"'` {
		t.Errorf("special chars mangled: %q", got.Rows[0][0])
	}
}

func TestXMLRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		nc := 1 + rng.Intn(5)
		nr := rng.Intn(20)
		tab := &Table{Name: "t"}
		for c := 0; c < nc; c++ {
			tab.Fields = append(tab.Fields, Field{Name: fmt.Sprintf("c%d", c), Datatype: TypeChar})
		}
		for r := 0; r < nr; r++ {
			row := make([]string, nc)
			for c := range row {
				row[c] = fmt.Sprintf("v%d", rng.Intn(1000))
			}
			tab.Rows = append(tab.Rows, row)
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, tab); err != nil {
			return false
		}
		got, err := ReadTable(&buf)
		if err != nil || got.NumRows() != nr || got.NumCols() != nc {
			return false
		}
		for r := 0; r < nr; r++ {
			for c := 0; c < nc; c++ {
				if got.Rows[r][c] != tab.Rows[r][c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadShortRowsPadded(t *testing.T) {
	xmlDoc := `<?xml version="1.0"?>
<VOTABLE><RESOURCE><TABLE name="t">
<FIELD name="a" datatype="char"/><FIELD name="b" datatype="char"/>
<DATA><TABLEDATA><TR><TD>x</TD></TR></TABLEDATA></DATA>
</TABLE></RESOURCE></VOTABLE>`
	tab, err := ReadTable(strings.NewReader(xmlDoc))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][1] != "" {
		t.Errorf("missing trailing cell should pad empty, got %q", tab.Rows[0][1])
	}
}

func TestReadRejectsWideRows(t *testing.T) {
	xmlDoc := `<?xml version="1.0"?>
<VOTABLE><RESOURCE><TABLE name="t">
<FIELD name="a" datatype="char"/>
<DATA><TABLEDATA><TR><TD>x</TD><TD>y</TD></TR></TABLEDATA></DATA>
</TABLE></RESOURCE></VOTABLE>`
	if _, err := ReadTable(strings.NewReader(xmlDoc)); err == nil {
		t.Error("row wider than fields must fail")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("this is not xml")); err == nil {
		t.Error("garbage must not parse")
	}
	if _, err := ReadTable(strings.NewReader("<VOTABLE></VOTABLE>")); err == nil {
		t.Error("empty document has no first table")
	}
}

func TestJoin(t *testing.T) {
	a := galaxyTable()
	b := NewTable("morph",
		Field{Name: "id", Datatype: TypeChar},
		Field{Name: "asymmetry", Datatype: TypeDouble},
	)
	_ = b.AppendRow("NGP9_F323-0927589", "0.31")
	_ = b.AppendRow("NGP9_F323-0927591", "0.05")
	_ = b.AppendRow("UNMATCHED", "0.99")

	j, err := Join(a, b, "id", "id")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 2 {
		t.Fatalf("inner join rows = %d, want 2", j.NumRows())
	}
	if j.NumCols() != 5 {
		t.Fatalf("join cols = %d, want 5", j.NumCols())
	}
	if v, ok := j.Float(0, "asymmetry"); !ok || v != 0.31 {
		t.Errorf("joined asymmetry = %v,%v", v, ok)
	}
}

func TestJoinNameCollision(t *testing.T) {
	a := galaxyTable()
	b := NewTable("other",
		Field{Name: "id", Datatype: TypeChar},
		Field{Name: "mag", Datatype: TypeFloat}, // collides with a.mag
	)
	_ = b.AppendRow("NGP9_F323-0927589", "99")
	j, err := Join(a, b, "id", "id")
	if err != nil {
		t.Fatal(err)
	}
	if j.ColumnIndex("other_mag") < 0 {
		t.Errorf("colliding column should be renamed; fields: %+v", j.Fields)
	}
}

func TestJoinMissingKey(t *testing.T) {
	a := galaxyTable()
	if _, err := Join(a, a, "nope", "id"); err == nil {
		t.Error("unknown key column must fail")
	}
	if _, err := Join(a, a, "id", "nope"); err == nil {
		t.Error("unknown key column must fail")
	}
}

func TestLeftJoin(t *testing.T) {
	a := galaxyTable()
	b := NewTable("morph",
		Field{Name: "id", Datatype: TypeChar},
		Field{Name: "asym", Datatype: TypeDouble},
	)
	_ = b.AppendRow("NGP9_F323-0927589", "0.31")
	j, err := LeftJoin(a, b, "id", "id")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 3 {
		t.Fatalf("left join rows = %d, want 3", j.NumRows())
	}
	if got := j.Cell(1, "asym"); got != "" {
		t.Errorf("unmatched row asym = %q, want empty", got)
	}
	if got := j.Cell(0, "asym"); got != "0.31" {
		t.Errorf("matched row asym = %q", got)
	}
}

func TestMergeColumns(t *testing.T) {
	cat := galaxyTable()
	res := NewTable("results",
		Field{Name: "id", Datatype: TypeChar},
		Field{Name: "asym", Datatype: TypeDouble},
		Field{Name: "conc", Datatype: TypeDouble},
	)
	_ = res.AppendRow("NGP9_F323-0927590", "0.4", "2.9")
	_ = res.AppendRow("NGP9_F323-0927591", "0.1", "4.1")

	if err := MergeColumns(cat, res, "id", "id", "asym", "conc"); err != nil {
		t.Fatal(err)
	}
	if cat.NumCols() != 6 {
		t.Fatalf("cols after merge = %d", cat.NumCols())
	}
	if got := cat.Cell(0, "asym"); got != "" {
		t.Errorf("row without result should stay empty, got %q", got)
	}
	if got := cat.Cell(1, "asym"); got != "0.4" {
		t.Errorf("merged asym = %q", got)
	}
	if got := cat.Cell(2, "conc"); got != "4.1" {
		t.Errorf("merged conc = %q", got)
	}
	// Merging again overwrites in place without adding columns.
	if err := MergeColumns(cat, res, "id", "id", "asym"); err != nil {
		t.Fatal(err)
	}
	if cat.NumCols() != 6 {
		t.Errorf("re-merge added columns: %d", cat.NumCols())
	}
}

func TestMergeColumnsDuplicateKey(t *testing.T) {
	cat := galaxyTable()
	res := NewTable("results",
		Field{Name: "id", Datatype: TypeChar},
		Field{Name: "asym", Datatype: TypeDouble},
	)
	_ = res.AppendRow("X", "1")
	_ = res.AppendRow("X", "2")
	if err := MergeColumns(cat, res, "id", "id", "asym"); err == nil {
		t.Error("duplicate source keys must fail")
	}
}

func TestFilterAndSort(t *testing.T) {
	tab := galaxyTable()
	tab.SetParam(Param{Name: "cluster", Datatype: TypeChar, Value: "COMA"})
	bright := tab.Filter(func(i int) bool {
		v, _ := tab.Float(i, "mag")
		return v < 17
	})
	if bright.NumRows() != 2 {
		t.Fatalf("filter rows = %d", bright.NumRows())
	}
	if p, ok := bright.Param("cluster"); !ok || p.Value != "COMA" {
		t.Errorf("filter dropped the table's PARAMs: %+v", bright.Params)
	}
	if err := bright.SortByFloat("mag"); err != nil {
		t.Fatal(err)
	}
	if bright.Cell(0, "mag") != "15.1" {
		t.Errorf("sort order wrong: %v", bright.Rows)
	}
	if err := bright.SortByFloat("zz"); err == nil {
		t.Error("sorting unknown column must fail")
	}

	// NaN parses but compares false with everything: it sorts last with the
	// unparseable cells, and those keep their order.
	odd := NewTable("odd", Field{Name: "id"}, Field{Name: "v"})
	for _, r := range [][2]string{{"a", "3"}, {"b", "NaN"}, {"c", "1"}, {"d", "x"}, {"e", "-Inf"}, {"f", " nan "}, {"g", "1"}} {
		_ = odd.AppendRow(r[0], r[1])
	}
	if err := odd.SortByFloat("v"); err != nil {
		t.Fatal(err)
	}
	var ids string
	for i := range odd.Rows {
		ids += odd.Cell(i, "id")
	}
	if ids != "ecgabdf" {
		t.Errorf("sorted ids = %q, want %q", ids, "ecgabdf")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tab := galaxyTable()
	tab.SetParam(Param{Name: "cluster", Datatype: TypeChar, Value: "COMA"})
	c := tab.Clone()
	c.Rows[0][0] = "mutated"
	if tab.Rows[0][0] == "mutated" {
		t.Error("Clone must deep-copy rows")
	}
	if p, ok := c.Param("cluster"); !ok || p.Value != "COMA" {
		t.Fatalf("Clone dropped the table's PARAMs: %+v", c.Params)
	}
	c.Params[0].Value = "mutated"
	if tab.Params[0].Value == "mutated" {
		t.Error("Clone must deep-copy PARAMs")
	}
}

func TestMultiResourceDocument(t *testing.T) {
	doc := &Document{
		Description: "two resources",
		Resources: []Resource{
			{Name: "r1", Tables: []Table{*galaxyTable()}},
			{Name: "r2", Tables: []Table{*NewTable("empty", Field{Name: "x", Datatype: TypeInt})}},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Resources) != 2 || got.Resources[1].Tables[0].Name != "empty" {
		t.Errorf("resources lost: %+v", got.Resources)
	}
	ft, err := got.FirstTable()
	if err != nil || ft.Name != "galaxies" {
		t.Errorf("FirstTable = %v, %v", ft, err)
	}
}

func benchTable(rows int) *Table {
	t := galaxyTable()
	t.Rows = nil
	for i := 0; i < rows; i++ {
		_ = t.AppendRow(fmt.Sprintf("G%06d", i), "194.95", "27.98", "16.2")
	}
	return t
}

func BenchmarkWrite1000Rows(b *testing.B) {
	tab := benchTable(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteTable(&buf, tab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead1000Rows(b *testing.B) {
	tab := benchTable(1000)
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTable(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoin1000x1000(b *testing.B) {
	a := benchTable(1000)
	c := NewTable("m", Field{Name: "id", Datatype: TypeChar}, Field{Name: "v", Datatype: TypeDouble})
	for i := 0; i < 1000; i++ {
		_ = c.AppendRow(fmt.Sprintf("G%06d", i), "0.5")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Join(a, c, "id", "id"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParamsRoundTrip(t *testing.T) {
	tab := galaxyTable()
	tab.SetParam(Param{Name: "cluster", Datatype: TypeChar, Value: "COMA"})
	tab.SetParam(Param{Name: "sr", Datatype: TypeDouble, Value: "0.5", Unit: "deg", UCD: "pos"})
	// Replacement by name.
	tab.SetParam(Param{Name: "cluster", Datatype: TypeChar, Value: "A2256"})
	if len(tab.Params) != 2 {
		t.Fatalf("params = %d", len(tab.Params))
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := got.Param("cluster")
	if !ok || p.Value != "A2256" {
		t.Errorf("cluster param = %+v, %v", p, ok)
	}
	p, ok = got.Param("sr")
	if !ok || p.Unit != "deg" || p.UCD != "pos" {
		t.Errorf("sr param = %+v", p)
	}
	if _, ok := got.Param("ghost"); ok {
		t.Error("missing param must not be found")
	}
}

func TestSetCellAndFormatFloat(t *testing.T) {
	tab := galaxyTable()
	if err := tab.SetCell(1, "mag", "12.3"); err != nil {
		t.Fatal(err)
	}
	if tab.Cell(1, "mag") != "12.3" {
		t.Error("SetCell lost the value")
	}
	if err := tab.SetCell(1, "ghost", "x"); err == nil {
		t.Error("unknown column must fail")
	}
	if err := tab.SetCell(99, "mag", "x"); err == nil {
		t.Error("row out of range must fail")
	}
	if FormatFloat(0.5) != "0.5" || FormatFloat(1e21) != "1e+21" {
		t.Errorf("FormatFloat: %q %q", FormatFloat(0.5), FormatFloat(1e21))
	}
}

func TestBoolParsing(t *testing.T) {
	tab := NewTable("b", Field{Name: "v", Datatype: TypeBoolean})
	for in, want := range map[string]bool{
		"T": true, "true": true, "1": true,
		"F": false, "false": false, "0": false,
	} {
		tab.Rows = [][]string{{in}}
		got, ok := tab.Bool(0, "v")
		if !ok || got != want {
			t.Errorf("Bool(%q) = %v, %v", in, got, ok)
		}
	}
	tab.Rows = [][]string{{"maybe"}}
	if _, ok := tab.Bool(0, "v"); ok {
		t.Error("unparsable logical must not be ok")
	}
}

// TestWriteSized: the writer to returns is asked for once, with the
// document's exact length, and gets the bytes WriteTable writes; a buffer
// made to that length is never regrown. A first pass that fails asks for no
// writer and returns its error.
func TestWriteSized(t *testing.T) {
	tab := galaxyTable()
	for i := 0; i < 500; i++ { // past the bufio.Writer's 4 KB
		if err := tab.AppendRow(fmt.Sprintf("G%03d", i), "150.1", "2.2", "17.5"); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	if err := WriteTable(&want, tab); err != nil {
		t.Fatal(err)
	}
	var got *bytes.Buffer
	asked := 0
	err := WriteSized(func(w io.Writer) error { return WriteTable(w, tab) }, func(n int) io.Writer {
		asked++
		got = bytes.NewBuffer(make([]byte, 0, n))
		return got
	})
	if err != nil {
		t.Fatal(err)
	}
	if asked != 1 || !bytes.Equal(got.Bytes(), want.Bytes()) || got.Cap() != got.Len() {
		t.Fatalf("asked %d times for %d bytes in a buffer of %d; want once, %d bytes, exactly sized",
			asked, got.Len(), got.Cap(), want.Len())
	}

	fail := errors.New("encode failed")
	err = WriteSized(func(io.Writer) error { return fail }, func(int) io.Writer {
		t.Fatal("a failed first pass asked for a writer")
		return nil
	})
	if !errors.Is(err, fail) {
		t.Fatalf("WriteSized = %v, want the first pass's error", err)
	}
}
