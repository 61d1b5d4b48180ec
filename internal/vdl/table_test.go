package vdl

import (
	"errors"
	"slices"
	"strconv"
	"testing"
)

// measureTR is a transformation with scalar, input and output formals.
func measureTR() *Transformation {
	return &Transformation{Name: "measure", Args: []Arg{
		{Name: "z", Dir: In}, {Name: "scale", Dir: In}, {Name: "image", Dir: In}, {Name: "result", Dir: Out},
	}}
}

// measureTable is n measure derivations: z and the files per row, scale held
// once, the columns in an order other than the formals'.
func measureTable(n int) *Table {
	return &Table{TR: "measure", Rows: n, Name: func(i int) string { return "m-" + strconv.Itoa(i) },
		Columns: []Actual{
			{Name: "image", Binding: FileBinding(In, ""), At: func(i int) string { return "g" + strconv.Itoa(i) + ".fit" }},
			{Name: "z", At: func(i int) string { return "0." + strconv.Itoa(i) }},
			{Name: "scale", Binding: ScalarBinding("2.8E-4")},
			{Name: "result", Binding: FileBinding(Out, ""), At: func(i int) string { return "g" + strconv.Itoa(i) + ".txt" }},
		}}
}

// TestTableMatchesDerivations: a table's rows are the derivations
// AddDerivation builds from the same actuals one by one — the same text, the
// same actual for every formal, file lists and producers — and a catalog
// holding them merges into another as any catalog does.
func TestTableMatchesDerivations(t *testing.T) {
	const n = 5
	tab := measureTable(n)
	byTable, byRow := NewCatalogSized(n), NewCatalog()
	for _, c := range []*Catalog{byTable, byRow} {
		if err := c.AddTransformation(measureTR()); err != nil {
			t.Fatal(err)
		}
	}
	if err := byTable.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := byRow.AddDerivation(NewDerivation(tab.Name(i), "measure", tab.Row(i, nil))); err != nil {
			t.Fatal(err)
		}
	}
	if byTable.Format() != byRow.Format() {
		t.Fatalf("table catalog formats as\n%s\nrow-by-row catalog as\n%s", byTable.Format(), byRow.Format())
	}
	merged := NewCatalog()
	if err := merged.Merge(byTable); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Catalog{byTable, merged} {
		if !slices.Equal(c.Derivations(), byRow.Derivations()) {
			t.Fatalf("derivation order %v, want %v", c.Derivations(), byRow.Derivations())
		}
		for i := 0; i < n; i++ {
			got, _ := c.Derivation(tab.Name(i))
			want, _ := byRow.Derivation(tab.Name(i))
			for _, a := range measureTR().Args {
				g, okG := got.Binding(a.Name)
				w, okW := want.Binding(a.Name)
				if !okG || !okW || g != w {
					t.Errorf("%s %s: %+v (%v), want %+v (%v)", got.Name, a.Name, g, okG, w, okW)
				}
			}
			if _, ok := got.Binding("missing"); ok {
				t.Errorf("%s binds a formal its transformation lacks", got.Name)
			}
			if !slices.Equal(got.InputLFNs(), want.InputLFNs()) || !slices.Equal(got.OutputLFNs(), want.OutputLFNs()) {
				t.Errorf("%s: files %v -> %v, want %v -> %v", got.Name, got.InputLFNs(), got.OutputLFNs(), want.InputLFNs(), want.OutputLFNs())
			}
			if p := c.Producers(want.OutputLFNs()[0]); !slices.Equal(p, []string{want.Name}) {
				t.Errorf("producers of %s: %v", want.OutputLFNs()[0], p)
			}
		}
	}
}

// TestTableRefusals: a table's signature is checked once per column, with the
// errors AddDerivation gives its first row; a row whose name is taken is
// refused by name.
func TestTableRefusals(t *testing.T) {
	for name, tc := range map[string]struct {
		edit func(*Table)
		want error
	}{
		"unknown transformation": {func(t *Table) { t.TR = "nope" }, ErrUnknownTR},
		"unknown formal":         {func(t *Table) { t.Columns[2].Name = "nope" }, ErrBadBinding},
		"input bound as output":  {func(t *Table) { t.Columns[0].Dir = Out }, ErrBadBinding},
		"output bound to scalar": {func(t *Table) { t.Columns[3].Binding = ScalarBinding("x") }, ErrBadBinding},
		"formal bound twice":     {func(t *Table) { t.Columns[2].Name = "z" }, ErrBadBinding},
		"formal unbound":         {func(t *Table) { t.Columns = t.Columns[:3] }, ErrUnboundArg},
		"row name repeats":       {func(t *Table) { t.Name = func(int) string { return "same" } }, ErrDuplicate},
		"row without a name":     {func(t *Table) { t.Name = func(int) string { return "" } }, ErrParse},
	} {
		cat := NewCatalog()
		if err := cat.AddTransformation(measureTR()); err != nil {
			t.Fatal(err)
		}
		tab := measureTable(3)
		tc.edit(tab)
		if err := cat.AddTable(tab); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
	empty := NewCatalog()
	if err := empty.AddTable(&Table{TR: "nope"}); err != nil || empty.NumDerivations() != 0 {
		t.Errorf("a table of no rows: err %v, %d derivations", err, empty.NumDerivations())
	}
}

// TestDerivationActualsByPosition: actuals given in any order are placed by
// formal position when added — a formal bound twice or left unbound is
// refused — and read back by name before and after.
func TestDerivationActualsByPosition(t *testing.T) {
	actuals := []Actual{
		{Name: "result", Binding: FileBinding(Out, "g.txt")}, {Name: "z", Binding: ScalarBinding("0.1")},
		{Name: "image", Binding: FileBinding(In, "g.fit")}, {Name: "scale", Binding: ScalarBinding("1")},
	}
	d := NewDerivation("m", "measure", actuals)
	if b, ok := d.Binding("z"); !ok || b.Value != "0.1" {
		t.Fatalf("Binding(z) before add = %+v, %v", b, ok)
	}
	cat := NewCatalog()
	if err := cat.AddTransformation(measureTR()); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDerivation(d); err != nil {
		t.Fatal(err)
	}
	for _, a := range actuals {
		if b, ok := d.Binding(a.Name); !ok || b != a.Binding {
			t.Errorf("Binding(%s) = %+v, %v; want %+v", a.Name, b, ok, a.Binding)
		}
	}
	if got := FormatDerivation(d); got != `DV m->measure( image=@{in:"g.fit"}, result=@{out:"g.txt"}, scale="1", z="0.1" );` {
		t.Errorf("FormatDerivation = %s", got)
	}
	twice := NewDerivation("m2", "measure", append(slices.Clone(actuals), Actual{Name: "z", Binding: ScalarBinding("0.2")}))
	if err := cat.AddDerivation(twice); !errors.Is(err, ErrBadBinding) {
		t.Errorf("a formal bound twice: err = %v, want ErrBadBinding", err)
	}
	unbound := NewDerivation("m3", "measure", actuals[:3])
	if err := cat.AddDerivation(unbound); !errors.Is(err, ErrUnboundArg) {
		t.Errorf("a formal left unbound: err = %v, want ErrUnboundArg", err)
	}
}
