package rls

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
)

func TestRegisterLookup(t *testing.T) {
	r := New()
	if err := r.Register("f.fit", PFN{Site: "isi", URL: "gridftp://isi/f.fit"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("f.fit", PFN{Site: "fnal", URL: "gridftp://fnal/f.fit"}); err != nil {
		t.Fatal(err)
	}
	pfns := r.Lookup("f.fit")
	if len(pfns) != 2 {
		t.Fatalf("replicas = %v", pfns)
	}
	if pfns[0].Site != "fnal" || pfns[1].Site != "isi" {
		t.Errorf("order = %v, want sorted by site", pfns)
	}
	if !r.Exists("f.fit") || r.Exists("ghost") {
		t.Error("Exists wrong")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New()
	if err := r.Register("x", PFN{Site: "", URL: "u"}); err == nil {
		t.Error("empty site must fail")
	}
	if err := r.Register("", PFN{Site: "s", URL: "u"}); err == nil {
		t.Error("empty lfn must fail")
	}
	if err := r.Register("x", PFN{Site: "s", URL: ""}); err == nil {
		t.Error("empty url must fail")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	r := New()
	p := PFN{Site: "isi", URL: "u"}
	_ = r.Register("f", p)
	_ = r.Register("f", p)
	if got := r.Lookup("f"); len(got) != 1 {
		t.Errorf("duplicate registration produced %v", got)
	}
}

func TestUnregister(t *testing.T) {
	r := New()
	p1 := PFN{Site: "isi", URL: "u1"}
	p2 := PFN{Site: "isi", URL: "u2"}
	_ = r.Register("f", p1)
	_ = r.Register("f", p2)
	if err := r.Unregister("f", p1); err != nil {
		t.Fatal(err)
	}
	if got := r.Lookup("f"); len(got) != 1 || got[0].URL != "u2" {
		t.Errorf("after unregister: %v", got)
	}
	if !r.Exists("f") {
		t.Error("f still has a replica")
	}
	if err := r.Unregister("f", p2); err != nil {
		t.Fatal(err)
	}
	if r.Exists("f") {
		t.Error("f must be forgotten after last replica")
	}
	if err := r.Unregister("f", p2); err == nil {
		t.Error("double unregister must fail")
	}
	if err := r.Unregister("f", PFN{Site: "ghost", URL: "u"}); err == nil {
		t.Error("unknown site must fail")
	}
}

// TestUnregisterAt: every replica at the named site goes, spilled or
// inline, the others stay, and the name goes with its last replica.
func TestUnregisterAt(t *testing.T) {
	r := New()
	for _, p := range []PFN{{"a", "u1"}, {"b", "u2"}, {"b", "u3"}, {"c", "u4"}} {
		if err := r.Register("f", p); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Register("g", PFN{"b", "u5"}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		lfn, site string
		left      []string // f's replica URLs after the call
	}{
		{"f", "b", []string{"u1", "u4"}},
		{"f", "b", []string{"u1", "u4"}},
		{"f", "ghost", []string{"u1", "u4"}},
		{"nope", "a", []string{"u1", "u4"}},
		{"f", "c", []string{"u1"}},
		{"f", "a", nil},
		{"g", "b", nil},
	} {
		r.UnregisterAt(c.lfn, c.site)
		var left []string
		for _, p := range r.Lookup("f") {
			left = append(left, p.URL)
		}
		if !slices.Equal(left, c.left) {
			t.Errorf("after UnregisterAt(%s, %s): f at %v, want %v", c.lfn, c.site, left, c.left)
		}
	}
	if r.Exists("f") || r.Exists("g") || r.Len() != 0 {
		t.Errorf("names left after their last replica: %v", r.LFNs())
	}
}

func TestBulkLookup(t *testing.T) {
	r := New()
	for i := 0; i < 10; i++ {
		_ = r.Register(fmt.Sprintf("f%d", i), PFN{Site: "isi", URL: fmt.Sprintf("u%d", i)})
	}
	got := r.BulkLookup([]string{"f1", "f5", "ghost"})
	if len(got) != 2 {
		t.Fatalf("bulk = %v", got)
	}
	if _, ok := got["ghost"]; ok {
		t.Error("missing LFN must be absent from the bulk result")
	}
}

func TestSitesAndLFNs(t *testing.T) {
	r := New()
	_ = r.Register("b", PFN{Site: "wisc", URL: "u1"})
	_ = r.Register("a", PFN{Site: "isi", URL: "u2"})
	if s := r.Sites(); len(s) != 2 || s[0] != "isi" || s[1] != "wisc" {
		t.Errorf("sites = %v", s)
	}
	if l := r.LFNs(); len(l) != 2 || l[0] != "a" || l[1] != "b" {
		t.Errorf("lfns = %v", l)
	}
	lrc := r.Site("isi")
	if lrc.Site() != "isi" || lrc.Len() != 1 {
		t.Errorf("lrc = %v len %d", lrc.Site(), lrc.Len())
	}
	if got := lrc.LFNs(); len(got) != 1 || got[0] != "a" {
		t.Errorf("lrc lfns = %v", got)
	}
}

func TestConcurrentRegisterLookup(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lfn := fmt.Sprintf("f%d", i%50)
				_ = r.Register(lfn, PFN{Site: fmt.Sprintf("s%d", g), URL: fmt.Sprintf("u%d-%d", g, i)})
				r.Lookup(lfn)
				r.Exists(lfn)
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 50 {
		t.Errorf("Len = %d, want 50", r.Len())
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	r := New()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	c := &Client{Base: srv.URL}

	if err := c.Register("f.fit", PFN{Site: "isi", URL: "gridftp://isi/f.fit"}); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Exists("f.fit")
	if err != nil || !ok {
		t.Fatalf("Exists = %v, %v", ok, err)
	}
	ok, err = c.Exists("ghost")
	if err != nil || ok {
		t.Fatalf("Exists(ghost) = %v, %v", ok, err)
	}
	pfns, err := c.Lookup("f.fit")
	if err != nil || len(pfns) != 1 || pfns[0].Site != "isi" {
		t.Fatalf("Lookup = %v, %v", pfns, err)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := httptest.NewServer(Handler(New()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/lookup")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("lookup without lfn: %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/register")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET register: %d", resp.StatusCode)
	}

	resp, err = http.PostForm(srv.URL+"/register", url.Values{"lfn": {"x"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("incomplete register: %d", resp.StatusCode)
	}

	resp, err = http.PostForm(srv.URL+"/unregister",
		url.Values{"lfn": {"x"}, "site": {"s"}, "url": {"u"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unregister missing: %d", resp.StatusCode)
	}
}

// TestFormBodyCap: a /register or /unregister form over maxFormBody —
// well-formed, so only its size can refuse it — answers 413 and leaves the
// catalog as it was.
func TestFormBodyCap(t *testing.T) {
	long := PFN{Site: "isi", URL: "gridftp://isi/" + strings.Repeat("x", maxFormBody)}
	for _, tc := range []struct{ path, lfn string }{
		{"/register", "new.fit"},
		{"/unregister", "kept.fit"},
	} {
		t.Run(tc.path, func(t *testing.T) {
			r := New()
			if err := r.Register("kept.fit", long); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(Handler(r))
			defer srv.Close()
			dump := func() string {
				var b strings.Builder
				if err := WriteReplicas(r, &b); err != nil {
					t.Fatal(err)
				}
				return b.String()
			}
			before := dump()
			resp, err := http.PostForm(srv.URL+tc.path,
				url.Values{"lfn": {tc.lfn}, "site": {long.Site}, "url": {long.URL}})
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("over-cap POST %s = %d, want 413", tc.path, resp.StatusCode)
			}
			if dump() != before {
				t.Errorf("over-cap POST %s changed the catalog", tc.path)
			}
		})
	}
}

func TestHTTPLFNsEndpoint(t *testing.T) {
	r := New()
	_ = r.Register("a", PFN{Site: "s", URL: "u"})
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/lfns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	buf := make([]byte, 256)
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(body.String(), `"a"`) {
		t.Errorf("lfns body = %q", body.String())
	}
}

func BenchmarkRegister(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Register(fmt.Sprintf("f%d", i%1000), PFN{Site: "isi", URL: fmt.Sprintf("u%d", i)})
	}
}

func BenchmarkLookup(b *testing.B) {
	r := New()
	for i := 0; i < 1000; i++ {
		_ = r.Register(fmt.Sprintf("f%d", i), PFN{Site: "isi", URL: fmt.Sprintf("u%d", i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(fmt.Sprintf("f%d", i%1000))
	}
}

func BenchmarkBulkLookup561(b *testing.B) {
	r := New()
	lfns := make([]string, 561)
	for i := range lfns {
		lfns[i] = fmt.Sprintf("f%d", i)
		_ = r.Register(lfns[i], PFN{Site: "isi", URL: fmt.Sprintf("u%d", i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.BulkLookup(lfns)
	}
}

func TestReplicaTextCodec(t *testing.T) {
	r := New()
	_ = r.Register("b.fit", PFN{Site: "isi", URL: "gridftp://isi/b.fit"})
	_ = r.Register("a.fit", PFN{Site: "fnal", URL: "gridftp://fnal/a.fit"})
	_ = r.Register("a.fit", PFN{Site: "isi", URL: "gridftp://isi/a.fit"})

	var buf strings.Builder
	if err := WriteReplicas(r, &buf); err != nil {
		t.Fatal(err)
	}
	r2 := New()
	if err := ReadReplicas(r2, strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if r2.Len() != r.Len() {
		t.Fatalf("round trip lost LFNs: %d vs %d", r2.Len(), r.Len())
	}
	for _, lfn := range r.LFNs() {
		a := r.Lookup(lfn)
		b := r2.Lookup(lfn)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d replicas", lfn, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s replica %d: %v vs %v", lfn, i, a[i], b[i])
			}
		}
	}
}

func TestReadReplicasErrorsAndComments(t *testing.T) {
	r := New()
	ok := "# replica catalog\n\na site url\n"
	if err := ReadReplicas(r, strings.NewReader(ok)); err != nil {
		t.Fatal(err)
	}
	if !r.Exists("a") {
		t.Error("replica not loaded")
	}
	if err := ReadReplicas(New(), strings.NewReader("only two")); err == nil {
		t.Error("short line must fail")
	}
	if err := ReadReplicas(New(), strings.NewReader("a b c d e")); err == nil {
		t.Error("over-long line must fail")
	}
	// Four fields is the checksum-attribute form.
	r4 := New()
	if err := ReadReplicas(r4, strings.NewReader("a site url deadbeef")); err != nil {
		t.Fatalf("checksum line must load: %v", err)
	}
	if sum, ok := r4.Checksum("a"); !ok || sum != "deadbeef" {
		t.Errorf("Checksum = %q, %t", sum, ok)
	}
}

func TestLookupFaultInjection(t *testing.T) {
	r := New()
	if err := r.Register("f.fit", PFN{Site: "isi", URL: "gridftp://isi/f.fit"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("f.fit", PFN{Site: "fnal", URL: "gridftp://fnal/f.fit"}); err != nil {
		t.Fatal(err)
	}
	// While isi's LRC is down its replicas drop out of the answer; the
	// index (Exists) stays faithful.
	r.SetInjector(faults.New(1,
		faults.Rule{Name: OpLookup, Site: "isi", Kind: faults.KindSiteDown, Until: 1},
	))
	pfns := r.Lookup("f.fit")
	if len(pfns) != 1 || pfns[0].Site != "fnal" {
		t.Fatalf("degraded lookup = %v, want fnal only", pfns)
	}
	if !r.Exists("f.fit") {
		t.Error("index must stay faithful while an LRC is down")
	}
	// Window passed: the full replica set returns.
	if pfns := r.Lookup("f.fit"); len(pfns) != 2 {
		t.Fatalf("recovered lookup = %v", pfns)
	}
	r.SetInjector(nil)
	if pfns := r.Lookup("f.fit"); len(pfns) != 2 {
		t.Fatalf("nil-injector lookup = %v", pfns)
	}
}

func TestRegisterFaultInjection(t *testing.T) {
	r := New()
	r.SetInjector(faults.New(1,
		faults.Rule{Name: OpRegister, Site: "isi", Kind: faults.KindTransient, Until: 1},
	))
	err := r.Register("f.fit", PFN{Site: "isi", URL: "gridftp://isi/f.fit"})
	if !faults.Is(err, faults.KindTransient) {
		t.Fatalf("err = %v, want injected transient", err)
	}
	if r.Exists("f.fit") {
		t.Error("failed registration must not reach the index")
	}
	// Retry after the window succeeds.
	if err := r.Register("f.fit", PFN{Site: "isi", URL: "gridftp://isi/f.fit"}); err != nil {
		t.Fatal(err)
	}
	if len(r.Lookup("f.fit")) != 1 {
		t.Error("recovered registration must be visible")
	}
}
