package tableops

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/votable"
)

func galaxies() *votable.Table {
	t := votable.NewTable("galaxies",
		votable.Field{Name: "id", Datatype: votable.TypeChar},
		votable.Field{Name: "mag", Datatype: votable.TypeFloat},
	)
	_ = t.AppendRow("G1", "15.2")
	_ = t.AppendRow("G2", "17.9")
	_ = t.AppendRow("G3", "16.1")
	return t
}

func morphs() *votable.Table {
	t := votable.NewTable("morph",
		votable.Field{Name: "id", Datatype: votable.TypeChar},
		votable.Field{Name: "asymmetry", Datatype: votable.TypeDouble},
	)
	_ = t.AppendRow("G1", "0.02")
	_ = t.AppendRow("G3", "0.21")
	return t
}

func docOf(tabs ...*votable.Table) *votable.Document {
	doc := &votable.Document{}
	for _, t := range tabs {
		doc.Resources = append(doc.Resources, votable.Resource{Tables: []votable.Table{*t}})
	}
	return doc
}

func TestJoinModes(t *testing.T) {
	doc := docOf(galaxies(), morphs())
	inner, err := Join(doc, "id", "id", "inner")
	if err != nil {
		t.Fatal(err)
	}
	if inner.NumRows() != 2 {
		t.Errorf("inner rows = %d", inner.NumRows())
	}
	left, err := Join(docOf(galaxies(), morphs()), "id", "id", "left")
	if err != nil {
		t.Fatal(err)
	}
	if left.NumRows() != 3 {
		t.Errorf("left rows = %d", left.NumRows())
	}
	if _, err := Join(doc, "", "id", ""); err == nil {
		t.Error("missing key must fail")
	}
	if _, err := Join(doc, "id", "id", "outer"); err == nil {
		t.Error("unknown mode must fail")
	}
	if _, err := Join(docOf(galaxies()), "id", "id", ""); err == nil {
		t.Error("single-table document must fail")
	}
}

func TestSortFilterSelect(t *testing.T) {
	sorted, err := Sort(docOf(galaxies()), "mag")
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Cell(0, "id") != "G1" || sorted.Cell(2, "id") != "G2" {
		t.Errorf("sort order: %v", sorted.Rows)
	}
	if _, err := Sort(docOf(galaxies()), "nope"); err == nil {
		t.Error("unknown sort column must fail")
	}
	if _, err := Sort(&votable.Document{}, "mag"); err == nil {
		t.Error("empty document must fail")
	}

	bright, err := Filter(docOf(galaxies()), "mag", math.Inf(-1), 16.5)
	if err != nil {
		t.Fatal(err)
	}
	if bright.NumRows() != 2 {
		t.Errorf("filter rows = %d", bright.NumRows())
	}
	if _, err := Filter(docOf(galaxies()), "nope", 0, 1); err == nil {
		t.Error("unknown filter column must fail")
	}

	proj, err := Select(docOf(galaxies()), []string{"mag", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if proj.NumCols() != 2 || proj.Fields[0].Name != "mag" {
		t.Errorf("select fields: %+v", proj.Fields)
	}
	if proj.Cell(0, "id") != "G1" {
		t.Errorf("select row: %v", proj.Rows[0])
	}
	if _, err := Select(docOf(galaxies()), nil); err == nil {
		t.Error("empty cols must fail")
	}
	if _, err := Select(docOf(galaxies()), []string{"zz"}); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestHTTPService(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL}

	joined, err := c.Join(galaxies(), morphs(), "id", "id", "left")
	if err != nil {
		t.Fatal(err)
	}
	if joined.NumRows() != 3 || joined.ColumnIndex("asymmetry") < 0 {
		t.Errorf("joined = %v", joined.Rows)
	}

	sorted, err := c.Sort(galaxies(), "mag")
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Cell(0, "mag") != "15.2" {
		t.Errorf("sorted = %v", sorted.Rows)
	}

	filtered, err := c.Filter(galaxies(), "mag", 16, 18)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.NumRows() != 2 {
		t.Errorf("filtered rows = %d", filtered.NumRows())
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, _ := http.Get(srv.URL + "/join")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET join = %d", resp.StatusCode)
	}
	resp, _ = http.Post(srv.URL+"/join?key_a=id&key_b=id", "text/xml", strings.NewReader("junk"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk body = %d", resp.StatusCode)
	}
	// Valid VOTable, bad params.
	var body strings.Builder
	_ = votable.WriteTable(&body, galaxies())
	resp, _ = http.Post(srv.URL+"/filter?col=mag&min=abc", "text/xml", strings.NewReader(body.String()))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad min = %d", resp.StatusCode)
	}
	body.Reset()
	_ = votable.WriteTable(&body, galaxies())
	resp, _ = http.Post(srv.URL+"/filter?col=mag&max=abc", "text/xml", strings.NewReader(body.String()))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad max = %d", resp.StatusCode)
	}
	// Client surfaces server-side failures.
	c := &Client{Base: srv.URL}
	if _, err := c.Join(galaxies(), morphs(), "ghost", "id", ""); err == nil {
		t.Error("client must surface join errors")
	}
}

// TestBodyCap: a document over maxBody — well-formed, so only its size can
// refuse it — answers 413 on every operation, and the same request under
// the cap answers 200.
func TestBodyCap(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	encode := func(pad bool, tabs ...*votable.Table) string {
		t.Helper()
		if pad {
			if err := tabs[0].SetCell(0, "id", strings.Repeat("x", maxBody)); err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		if err := votable.Write(&b, docOf(tabs...)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, pad := range []bool{true, false} {
		one, two := encode(pad, galaxies()), encode(pad, galaxies(), morphs())
		for _, tc := range []struct{ url, body string }{
			{"/join?key_a=id&key_b=id", two},
			{"/sort?by=mag", one},
			{"/filter?col=mag&min=14&max=18", one},
			{"/select?cols=id,mag", one},
		} {
			resp, err := http.Post(srv.URL+tc.url, "text/xml", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			want := http.StatusOK
			if pad {
				want = http.StatusRequestEntityTooLarge
			}
			if resp.StatusCode != want {
				t.Errorf("POST %s with %d bytes = %d, want %d", tc.url, len(tc.body), resp.StatusCode, want)
			}
		}
	}
}

func BenchmarkServiceJoin(b *testing.B) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	a := galaxies()
	m := morphs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Join(a, m, "id", "id", "left"); err != nil {
			b.Fatal(err)
		}
	}
}
