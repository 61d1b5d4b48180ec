package vdl

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// collector builds the concatVOT shape of a request: one transformation with
// n input formals and one output, and the derivation binding all of them.
func collector(n int) (*Transformation, *Derivation) {
	tr := &Transformation{Name: "concatVOT", Args: make([]Arg, 0, n+1)}
	dv := &Derivation{Name: "collect", TR: "concatVOT", Bindings: make(map[string]Binding, n+1)}
	for i := 0; i < n; i++ {
		name := "p" + strconv.Itoa(i)
		tr.Args = append(tr.Args, Arg{Name: name, Dir: In})
		dv.Bindings[name] = FileBinding(In, "g"+strconv.Itoa(i)+".txt")
	}
	tr.Args = append(tr.Args, Arg{Name: "table", Dir: Out})
	dv.Bindings["table"] = FileBinding(Out, "out.vot")
	return tr, dv
}

// collectorSrc is the same request as VDL text.
func collectorSrc(n int) string {
	tr, dv := collector(n)
	return FormatTransformation(tr) + "\n" + FormatDerivation(dv) + "\n"
}

// TestAddDerivationLinearInFormals: validating a derivation looks each binding
// up in an index of its transformation's formals. It used to scan the formals
// once per binding, and the collector binds one formal per galaxy: 50,000
// inputs were 1.25e9 string compares (several seconds); indexed, they are
// 50,000 map lookups (milliseconds). The deadline sits between the two with
// two orders of magnitude to spare on the linear side.
func TestAddDerivationLinearInFormals(t *testing.T) {
	tr, dv := collector(50000)
	cat := NewCatalog()
	if err := cat.AddTransformation(tr); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := cat.AddDerivation(dv); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("AddDerivation of a 50,000-input collector took %v; it must not scan the formals per binding", took)
	}
	if a, ok := tr.Arg("p49999"); !ok || a.Dir != In {
		t.Errorf("indexed Arg lookup = %+v, %v", a, ok)
	}

	// The whole parser on growing collectors, for the record (-v): time per
	// input should stay flat. Best of three, to keep a collection out of it.
	var prev time.Duration
	for _, n := range []int{1000, 4000, 16000} {
		src := collectorSrc(n)
		var took time.Duration
		for try := 0; try < 3; try++ {
			start := time.Now()
			if _, err := Parse(src); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); try == 0 || d < took {
				took = d
			}
		}
		ratio := ""
		if prev > 0 {
			ratio = fmt.Sprintf(", %.1fx the previous size (4x the inputs)", float64(took)/float64(prev))
		}
		t.Logf("Parse of a %5d-input collector: %v%s", n, took, ratio)
		prev = took
	}
}

// TestArgSurvivesStaleIndex: Args is an exported field, so a caller may change
// it after the catalog indexed it; Arg must not answer from the stale index.
func TestArgSurvivesStaleIndex(t *testing.T) {
	tr := &Transformation{Name: "t", Args: []Arg{{Name: "a", Dir: In}, {Name: "b", Dir: Out}}}
	if a, ok := tr.Arg("b"); !ok || a.Dir != Out {
		t.Fatalf("Arg without an index = %+v, %v", a, ok)
	}
	if err := NewCatalog().AddTransformation(tr); err != nil {
		t.Fatal(err)
	}
	tr.Args = []Arg{{Name: "b", Dir: In}}
	if a, ok := tr.Arg("b"); !ok || a.Dir != In {
		t.Errorf("Arg(b) after Args changed = %+v, %v", a, ok)
	}
	if _, ok := tr.Arg("a"); ok {
		t.Error("Arg(a) found a formal that is no longer declared")
	}
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"m-NGP9_F323-0927589": true, "collect-COMA": true, "a.b-c_d": true, "m-x-": true, "_x": true,
		"m-galáxia": true, "m-銀河": true,
		"": false, "9a": false, "-a": false, ".a": false, "a b": false, "a->b": false, "a(": false,
		"a\"": false, "a;": false, "m-\xff": false, "a\n": false,
		`x->galMorph( redshift="9" ); DV m-y`: false,
	} {
		if got := ValidName(name); got != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, got, want)
		}
		// The exported rule is the lexer's: a valid name is one identifier
		// token even with the derivation arrow right behind it.
		tok, err := newLexer(name + "->t").next()
		if lexed := err == nil && tok.kind == tokIdent && tok.text == name; lexed != want {
			t.Errorf("lexer reads %q as one identifier: %v, ValidName says %v", name, lexed, want)
		}
	}
}

// FuzzVDLParse: the parser never panics, what it accepts it can write and read
// back unchanged, and ValidString is exactly the set of values a literal can
// carry through Quote and the lexer.
func FuzzVDLParse(f *testing.F) {
	f.Add(paperVDL)
	f.Add(collectorSrc(3))
	f.Add(buildBigCatalogSrc(2))
	f.Add("TR t( in a, out b ) { if (x) { y(); } }\nDV d-->t( a=\"va\\\"l\\\\ue\\n\\t\", b=@{out:\"f\"} );")
	f.Add("TR t( in a, out b ) {}\nDV d->t( a=\"\x01\", b=@{out:\"f\"} );")
	f.Add("TR t( in a, out b ) {}\nDV d->t( a=\"café\", b=@{out:\"\xff\"} );")
	f.Add("TR TR( in in, out out ) {}\nDV DV->TR( in=\"1\" out=@{out:\"f\"} ); // no commas")
	f.Add("TR t() {}\nDV m-é.x->t();\nDV m-y->t( );")
	f.Fuzz(func(t *testing.T, src string) {
		lit := "TR t( in a ) {}\nDV d->t( a=" + strconv.Quote(src) + " );"
		c, err := Parse(lit)
		carried := false
		if err == nil {
			d, _ := c.Derivation("d")
			carried = d.Bindings["a"].Value == src
		}
		if carried != ValidString(src) {
			t.Fatalf("ValidString(%q) = %v, but Quote and the lexer carry it: %v (%v)", src, ValidString(src), carried, err)
		}

		cat, err := Parse(src)
		if err != nil {
			return
		}
		text := cat.Format()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Format wrote text Parse rejects: %v\nsource %q\nformatted %q", err, src, text)
		}
		if !reflect.DeepEqual(again, cat) {
			t.Fatalf("Parse(Format(c)) != c\nsource %q\nformatted %q", src, text)
		}
	})
}
