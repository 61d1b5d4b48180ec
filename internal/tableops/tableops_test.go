package tableops

import (
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
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

// withParams is galaxies() carrying the description and PARAMs the compute
// service's result table has.
func withParams() *votable.Table {
	t := galaxies()
	t.Description = "morphology of COMA"
	t.SetParam(votable.Param{Name: "cluster", Datatype: votable.TypeChar, Value: "COMA"})
	t.SetParam(votable.Param{Name: "n_galaxies", Datatype: votable.TypeInt, Value: "3"})
	return t
}

// keepsParams reports whether out carries withParams()'s description and
// PARAMs.
func keepsParams(out *votable.Table) bool {
	in := withParams()
	return out.Description == in.Description && slices.Equal(out.Params, in.Params)
}

func TestSortFilterSelect(t *testing.T) {
	sorted, err := Sort(docOf(withParams()), "mag")
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Cell(0, "id") != "G1" || sorted.Cell(2, "id") != "G2" {
		t.Errorf("sort order: %v", sorted.Rows)
	}
	if !keepsParams(sorted) {
		t.Errorf("sort dropped the table's PARAMs: %q %+v", sorted.Description, sorted.Params)
	}
	if _, err := Sort(docOf(galaxies()), "nope"); err == nil {
		t.Error("unknown sort column must fail")
	}
	if _, err := Sort(&votable.Document{}, "mag"); err == nil {
		t.Error("empty document must fail")
	}

	bright, err := Filter(docOf(withParams()), "mag", math.Inf(-1), 16.5)
	if err != nil {
		t.Fatal(err)
	}
	if bright.NumRows() != 2 {
		t.Errorf("filter rows = %d", bright.NumRows())
	}
	if !keepsParams(bright) {
		t.Errorf("filter dropped the table's PARAMs: %q %+v", bright.Description, bright.Params)
	}
	if _, err := Filter(docOf(galaxies()), "nope", 0, 1); err == nil {
		t.Error("unknown filter column must fail")
	}

	proj, err := Select(docOf(withParams()), []string{"mag", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if proj.NumCols() != 2 || proj.Fields[0].Name != "mag" {
		t.Errorf("select fields: %+v", proj.Fields)
	}
	if !keepsParams(proj) {
		t.Errorf("select dropped the table's PARAMs: %q %+v", proj.Description, proj.Params)
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

	// A NaN cell sorts last; a NaN bound is refused, while ±Inf, the open
	// bounds, are accepted.
	odd := galaxies()
	_ = odd.SetCell(0, "mag", "NaN")
	if sorted, err := c.Sort(odd, "mag"); err != nil || sorted.Cell(0, "id") != "G3" || sorted.Cell(2, "id") != "G1" {
		t.Errorf("sort with a NaN cell = %v, %v", sorted, err)
	}
	var body strings.Builder
	if err := votable.WriteTable(&body, galaxies()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"min=NaN", http.StatusBadRequest},
		{"max=NaN", http.StatusBadRequest},
		{"min=nan&max=18", http.StatusBadRequest},
		{"min=-Inf&max=Inf", http.StatusOK},
	} {
		resp, err := http.Post(srv.URL+"/filter?col=mag&"+tc.query, "text/xml", strings.NewReader(body.String()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("/filter?%s = %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
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
