package registry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func sample() *Registry {
	r := New()
	_ = r.Register(Entry{ID: "ivo://mast/dss", Type: TypeSIA, Title: "Digitized Sky Survey",
		DataCenter: "MAST", Collection: "DSS", BaseURL: "http://mast.nvo/sia"})
	_ = r.Register(Entry{ID: "ivo://mast/dss-cone", Type: TypeConeSearch, Title: "DSS catalog",
		DataCenter: "MAST", Collection: "DSS", BaseURL: "http://mast.nvo/cone"})
	_ = r.Register(Entry{ID: "ivo://ipac/ned", Type: TypeConeSearch, Title: "NASA Extragalactic Database",
		DataCenter: "IPAC", Collection: "NED", BaseURL: "http://ned.nvo/cone"})
	_ = r.Register(Entry{ID: "ivo://isi/galmorph", Type: TypeCompute, Title: "Galaxy Morphology",
		DataCenter: "ISI", BaseURL: "http://compute.isi"})
	return r
}

func TestRegisterValidation(t *testing.T) {
	r := New()
	for _, e := range []Entry{
		{},
		{ID: "x", Type: TypeSIA},
		{ID: "x", BaseURL: "u"},
		{Type: TypeSIA, BaseURL: "u"},
	} {
		if err := r.Register(e); err == nil {
			t.Errorf("incomplete entry %+v must fail", e)
		}
	}
	e := Entry{ID: "x", Type: TypeSIA, BaseURL: "u"}
	if err := r.Register(e); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(e); err == nil {
		t.Error("duplicate id must fail")
	}
}

func TestQueryByTypeAndKeyword(t *testing.T) {
	r := sample()
	if got := r.Query("", ""); len(got) != 4 {
		t.Errorf("all = %d", len(got))
	}
	cones := r.Query(TypeConeSearch, "")
	if len(cones) != 2 || cones[0].ID != "ivo://ipac/ned" {
		t.Errorf("cones = %+v", cones)
	}
	if got := r.Query("", "extragalactic"); len(got) != 1 || got[0].DataCenter != "IPAC" {
		t.Errorf("keyword = %+v", got)
	}
	if got := r.Query(TypeSIA, "ned"); len(got) != 0 {
		t.Errorf("mismatched filter = %+v", got)
	}
	if got := r.Query("", "DSS"); len(got) != 2 {
		t.Errorf("case-insensitive keyword = %+v", got)
	}
}

func TestGetUnregister(t *testing.T) {
	r := sample()
	e, err := r.Get("ivo://ipac/ned")
	if err != nil || e.BaseURL != "http://ned.nvo/cone" {
		t.Fatalf("Get = %+v, %v", e, err)
	}
	if _, err := r.Get("ghost"); err == nil {
		t.Error("missing id must fail")
	}
	if err := r.Unregister("ivo://ipac/ned"); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d", r.Len())
	}
	if err := r.Unregister("ivo://ipac/ned"); err == nil {
		t.Error("double unregister must fail")
	}
}

func TestToVOTable(t *testing.T) {
	tab := ToVOTable(sample().Query("", ""))
	if tab.NumRows() != 4 || tab.NumCols() != 6 {
		t.Fatalf("shape %dx%d", tab.NumRows(), tab.NumCols())
	}
	if tab.Cell(0, "base_url") == "" {
		t.Error("base_url lost")
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	r := sample()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	c := &Client{Base: srv.URL}

	entries, err := c.Query(TypeConeSearch, "")
	if err != nil || len(entries) != 2 {
		t.Fatalf("Query = %v, %v", entries, err)
	}
	if err := c.Register(Entry{ID: "ivo://new/svc", Type: TypeTableOps, BaseURL: "http://ops"}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 5 {
		t.Errorf("registry did not grow: %d", r.Len())
	}
	// Registering a duplicate through the client surfaces the error.
	if err := c.Register(Entry{ID: "ivo://new/svc", Type: TypeTableOps, BaseURL: "http://ops"}); err == nil {
		t.Error("duplicate register must fail")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(sample()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/query.vot?type=sia")
	if err != nil {
		t.Fatal(err)
	}
	body := read(t, resp)
	if !strings.Contains(body, "<VOTABLE") || !strings.Contains(body, "Digitized Sky Survey") {
		t.Errorf("query.vot body:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "/resource?id=ivo://isi/galmorph")
	if err != nil {
		t.Fatal(err)
	}
	if body := read(t, resp); !strings.Contains(body, "compute.isi") {
		t.Errorf("resource body: %s", body)
	}

	resp, _ = http.Get(srv.URL + "/resource?id=ghost")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing resource = %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/register")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET register = %d", resp.StatusCode)
	}
	resp, _ = http.Post(srv.URL+"/register", "application/json", strings.NewReader("not json"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad register body = %d", resp.StatusCode)
	}
	resp, _ = http.Post(srv.URL+"/unregister?id=ghost", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unregister ghost = %d", resp.StatusCode)
	}
	resp, _ = http.Post(srv.URL+"/unregister?id=ivo://mast/dss", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("unregister = %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/unregister?id=x")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET unregister = %d", resp.StatusCode)
	}
}

// TestRegisterBodyCap: a well-formed /register entry over maxEntryBody
// answers 413 and registers nothing; the same entry just under the cap is
// admitted.
func TestRegisterBodyCap(t *testing.T) {
	for _, tc := range []struct {
		name        string
		size        int // encoded body bytes
		want        int
		wantEntries int
	}{
		{"over cap", maxEntryBody + 1, http.StatusRequestEntityTooLarge, 4},
		{"at cap", maxEntryBody, http.StatusCreated, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := sample()
			srv := httptest.NewServer(Handler(r))
			defer srv.Close()
			e := Entry{ID: "ivo://new/svc", Type: TypeTableOps, BaseURL: "http://ops"}
			empty, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			e.Title = strings.Repeat("x", tc.size-len(empty))
			body, err := json.Marshal(e)
			if err != nil || len(body) != tc.size {
				t.Fatalf("body of %d bytes (%v), want %d", len(body), err, tc.size)
			}
			resp, err := http.Post(srv.URL+"/register", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want || r.Len() != tc.wantEntries {
				t.Errorf("POST /register of %d bytes = %d with %d entries, want %d with %d",
					tc.size, resp.StatusCode, r.Len(), tc.want, tc.wantEntries)
			}
		})
	}
}

func read(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

func BenchmarkQuery(b *testing.B) {
	r := sample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := r.Query(TypeConeSearch, "dss"); len(got) != 1 {
			b.Fatal("bad query")
		}
	}
}

// TestQueryAnswerBound: a query answer one byte over maxQueryBytes fails
// with an error naming the URL and the bound.
func TestQueryAnswerBound(t *testing.T) {
	const value = "[]"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(strings.Repeat(" ", maxQueryBytes+1-len(value)) + value))
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	_, err := c.Query(TypeSIA, "dss")
	if err == nil || !strings.Contains(err.Error(), srv.URL+"/query?type=sia&keyword=dss") ||
		!strings.Contains(err.Error(), strconv.Itoa(maxQueryBytes)) {
		t.Fatalf("err = %v, want one naming the URL and %d", err, maxQueryBytes)
	}
}

// TestClientQueryMatchesLocal: a remote query gives the entries the local
// one does, for keywords holding the characters a query string gives a
// meaning to (a space, &, =, #, % and +) and for every service type.
func TestClientQueryMatchesLocal(t *testing.T) {
	r := sample()
	if err := r.Register(Entry{ID: "ivo://lab/odd", Type: TypeSIA, Title: "R&D C++ survey a=b #1 at 100%",
		DataCenter: "LAB", BaseURL: "http://lab.nvo/sia"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	for _, kw := range []string{"", "dss", "Digitized Sky", "DSS&x", "R&D", "a=b", "b=", "#1", "DSS#x",
		"100%", "%41", "C++", "+", "c  "} {
		for _, typ := range []ServiceType{"", TypeSIA, TypeConeSearch} {
			want := r.Query(typ, kw)
			got, err := c.Query(typ, kw)
			if err != nil {
				t.Errorf("Query(%q, %q): %v", typ, kw, err)
				continue
			}
			if !slices.Equal(got, want) {
				t.Errorf("Query(%q, %q) = %v remotely, %v locally", typ, kw, got, want)
			}
		}
	}
}
