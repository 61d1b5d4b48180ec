package tcat

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func sample() *Catalog {
	c := New()
	_ = c.Add(Entry{Transformation: "galMorph", Site: "isi", Path: "/nvo/bin/galMorph",
		Profile: map[string]string{"runtime": "4s"}})
	_ = c.Add(Entry{Transformation: "galMorph", Site: "fnal", Path: "/grid/galMorph"})
	_ = c.Add(Entry{Transformation: "concat", Site: "isi", Path: "/nvo/bin/concat"})
	return c
}

func TestAddLookup(t *testing.T) {
	c := sample()
	es, err := c.Lookup("galMorph")
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 || es[0].Site != "fnal" || es[1].Site != "isi" {
		t.Errorf("entries = %+v", es)
	}
	if es[1].Profile["runtime"] != "4s" {
		t.Errorf("profile lost: %+v", es[1].Profile)
	}
	e, err := c.LookupSite("galMorph", "isi")
	if err != nil || e.Path != "/nvo/bin/galMorph" {
		t.Errorf("LookupSite = %+v, %v", e, err)
	}
	if _, err := c.Lookup("ghost"); err == nil {
		t.Error("unknown transformation must fail")
	}
	if _, err := c.LookupSite("galMorph", "moon"); err == nil {
		t.Error("unknown site must fail")
	}
}

func TestAddValidation(t *testing.T) {
	c := New()
	for _, e := range []Entry{
		{},
		{Transformation: "x", Site: "s"},
		{Transformation: "x", Path: "p"},
		{Site: "s", Path: "p"},
		// Entries Write would spell as lines Read skips or misreads.
		{Transformation: "#x", Site: "s", Path: "p"},
		{Transformation: "galMorph", Site: "isi", Path: "/opt/my tools/galMorph"},
		{Transformation: "gal\tMorph", Site: "s", Path: "p"},
		{Transformation: "x", Site: "is\ni", Path: "p"},
		{Transformation: "x", Site: "s", Path: "p\u00a0q"},
		{Transformation: "x", Site: "s", Path: "p\u0085"},
		{Transformation: "x", Site: "s", Path: "p", Profile: map[string]string{"": "v"}},
		{Transformation: "x", Site: "s", Path: "p", Profile: map[string]string{"a=b": "v"}},
		{Transformation: "x", Site: "s", Path: "p", Profile: map[string]string{"a b": "v"}},
		{Transformation: "x", Site: "s", Path: "p", Profile: map[string]string{"runtime": "4 s"}},
		{Transformation: "x", Site: "s", Path: "p", Profile: map[string]string{"env": "A\rB"}},
	} {
		if err := c.Add(e); !errors.Is(err, ErrBadEntry) {
			t.Errorf("entry %+v: error %v, want ErrBadEntry", e, err)
		}
	}
	if trs := c.Transformations(); len(trs) != 0 {
		t.Errorf("refused entries were added: %v", trs)
	}
}

func TestAddReplaces(t *testing.T) {
	c := sample()
	_ = c.Add(Entry{Transformation: "galMorph", Site: "isi", Path: "/new/path"})
	e, _ := c.LookupSite("galMorph", "isi")
	if e.Path != "/new/path" {
		t.Errorf("replace failed: %q", e.Path)
	}
	es, _ := c.Lookup("galMorph")
	if len(es) != 2 {
		t.Errorf("replace duplicated: %d entries", len(es))
	}
}

func TestSitesTransformationsRemove(t *testing.T) {
	c := sample()
	if s := c.Sites("galMorph"); len(s) != 2 || s[0] != "fnal" {
		t.Errorf("sites = %v", s)
	}
	if trs := c.Transformations(); len(trs) != 2 || trs[0] != "concat" {
		t.Errorf("transformations = %v", trs)
	}
	if err := c.Remove("galMorph", "fnal"); err != nil {
		t.Fatal(err)
	}
	if s := c.Sites("galMorph"); len(s) != 1 {
		t.Errorf("sites after remove = %v", s)
	}
	if err := c.Remove("galMorph", "fnal"); err == nil {
		t.Error("double remove must fail")
	}
	if err := c.Remove("concat", "isi"); err != nil {
		t.Fatal(err)
	}
	if trs := c.Transformations(); len(trs) != 1 {
		t.Errorf("empty transformation must disappear: %v", trs)
	}
}

func TestTextRoundTrip(t *testing.T) {
	c := sample()
	// Tokens the text format must carry unchanged: '=' inside a value, an
	// empty value, '#' past a transformation's first byte, non-space Unicode.
	for _, e := range []Entry{
		{Transformation: "gal#Morph", Site: "isi", Path: "/nvo/bin/gal#Morph", Profile: map[string]string{"env": "A=B", "note": ""}},
		{Transformation: "concat", Site: "fnal", Path: "/grid/末/concat", Profile: map[string]string{"é": "ü"}},
	} {
		if err := c.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range c.Transformations() {
		want, _ := c.Lookup(tr)
		have, err := got.Lookup(tr)
		if err != nil || len(have) != len(want) {
			t.Fatalf("round trip lost %q: %v", tr, err)
		}
		for i := range want {
			if !reflect.DeepEqual(have[i], want[i]) {
				t.Errorf("%q entry %d: %+v != %+v", tr, i, have[i], want[i])
			}
		}
	}
}

func TestReadCommentsAndErrors(t *testing.T) {
	ok := `
# transformation catalog
galMorph isi /bin/gm runtime=4s

concat fnal /bin/cc
`
	c, err := Read(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Transformations()) != 2 {
		t.Errorf("parsed %v", c.Transformations())
	}
	for _, bad := range []string{
		"onlytwo fields",
		"tr site path notakv",
		"tr site path =v",
	} {
		if _, err := Read(strings.NewReader(bad)); err == nil {
			t.Errorf("bad line %q must fail", bad)
		}
	}
}

// FuzzTCatRead: Read never panics on any text, and whatever it accepts is a
// fixed point of the codec: Write then Read gives the same entries, and a
// second Write gives the same bytes.
func FuzzTCatRead(f *testing.F) {
	f.Add("# transformation catalog\ngalMorph isi /bin/gm runtime=4s env=A=B\n\nconcat fnal /bin/cc\n")
	f.Add("tr site path =v")
	f.Add("  a\tb\u0085c k= k=v\r\na b d\n")
	f.Add("a b c\n#a b c x=y\na b c y=\xff")
	f.Fuzz(func(t *testing.T, text string) {
		c, err := Read(strings.NewReader(text))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := c.Write(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read refused what Write wrote: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(again.entries, c.entries) {
			t.Fatalf("entries changed across Write and Read:\n%v\n%v", c.entries, again.entries)
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(second.Bytes(), first.Bytes()) {
			t.Fatalf("second Write differs:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}

func BenchmarkLookup(b *testing.B) {
	c := sample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Lookup("galMorph"); err != nil {
			b.Fatal(err)
		}
	}
}
