package rls

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestChecksumAttribute(t *testing.T) {
	r := New()
	if _, ok := r.Checksum("g.fit"); ok {
		t.Error("unset checksum must report absent")
	}
	if err := r.SetChecksum("g.fit", "abc123"); err != nil {
		t.Fatal(err)
	}
	if sum, ok := r.Checksum("g.fit"); !ok || sum != "abc123" {
		t.Errorf("Checksum = %q, %t", sum, ok)
	}
	if err := r.SetChecksum("", "x"); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty lfn = %v", err)
	}
	if err := r.SetChecksum("a", ""); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty sum = %v", err)
	}
}

func TestQuarantine(t *testing.T) {
	r := New()
	good := PFN{Site: "fnal", URL: "gridftp://fnal/g.fit"}
	bad := PFN{Site: "isi", URL: "gridftp://isi/g.fit"}
	_ = r.Register("g.fit", good)
	_ = r.Register("g.fit", bad)

	if err := r.Quarantine("g.fit", bad); err != nil {
		t.Fatal(err)
	}
	// The quarantined replica leaves circulation; the healthy one remains.
	pfns := r.Lookup("g.fit")
	if len(pfns) != 1 || pfns[0] != good {
		t.Errorf("Lookup after quarantine = %v", pfns)
	}
	if !r.Exists("g.fit") {
		t.Error("LFN with healthy replicas must still exist")
	}
	q := r.Quarantined("g.fit")
	if len(q) != 1 || q[0] != bad {
		t.Errorf("Quarantined = %v", q)
	}
	if r.QuarantinedCount() != 1 {
		t.Errorf("QuarantinedCount = %d", r.QuarantinedCount())
	}

	// Quarantining the last replica forgets the LFN — until re-derivation
	// re-registers it.
	if err := r.Quarantine("g.fit", good); err != nil {
		t.Fatal(err)
	}
	if r.Exists("g.fit") {
		t.Error("fully-quarantined LFN must not exist")
	}
	if r.QuarantinedCount() != 2 {
		t.Errorf("QuarantinedCount = %d", r.QuarantinedCount())
	}
	_ = r.Register("g.fit", good)
	if !r.Exists("g.fit") {
		t.Error("re-derived LFN must be registered again")
	}

	// Quarantining an unknown replica errors (nothing to pull).
	if err := r.Quarantine("ghost", bad); !errors.Is(err, ErrNotFound) {
		t.Errorf("quarantine unknown = %v", err)
	}
}

func TestBulkLookupHTTP(t *testing.T) {
	r := New()
	_ = r.Register("a.fit", PFN{Site: "isi", URL: "gridftp://isi/a.fit"})
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	c := &Client{Base: srv.URL}

	got, err := c.BulkLookup([]string{"a.fit", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got["a.fit"]) != 1 {
		t.Errorf("BulkLookup = %v", got)
	}
}

func TestBulkEndpointsRejectGarbageWith400(t *testing.T) {
	srv := httptest.NewServer(Handler(New()))
	defer srv.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for name, body := range map[string]string{
		"not json":        "lfn1 lfn2",
		"json object":     `{"lfn":"x"}`,
		"number array":    `[1,2,3]`,
		"trailing data":   `["a"] ["b"]`,
		"empty lfn":       `["a",""]`,
		"truncated array": `["a",`,
	} {
		if code := post("/bulklookup", body); code != http.StatusBadRequest {
			t.Errorf("bulklookup %s: status %d, want 400", name, code)
		}
	}

	for name, body := range map[string]string{
		"two fields":       "lfn site",
		"five fields":      "a b c d e",
		"huge line":        strings.Repeat("x", 2<<20),
		"bad second line":  "a site url\nbroken",
		"checksum missing": "a site url \nb site",
	} {
		if code := post("/bulkregister", body); code != http.StatusBadRequest {
			t.Errorf("bulkregister %s: status %d, want 400", name, code)
		}
	}

	// A malformed body must register nothing (atomic reject).
	if code := post("/bulkregister", "good site url\nbroken line"); code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	resp, err := http.Get(srv.URL + "/exists?lfn=good")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [8]byte
	n, _ := resp.Body.Read(buf[:])
	if strings.TrimSpace(string(buf[:n])) != "false" {
		t.Error("rejected bulk body partially registered")
	}
}

func TestBulkRegisterHTTPRoundTrip(t *testing.T) {
	r := New()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/bulkregister", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	body := "a.fit isi gridftp://isi/a.fit deadbeef\nb.fit fnal gridftp://fnal/b.fit\n"
	if code := post(body); code != http.StatusCreated {
		t.Fatalf("bulkregister status %d, want 201", code)
	}
	if !r.Exists("a.fit") || !r.Exists("b.fit") {
		t.Error("bulk registration lost replicas")
	}
	if sum, ok := r.Checksum("a.fit"); !ok || sum != "deadbeef" {
		t.Errorf("checksum attribute = %q, %t", sum, ok)
	}
	if _, ok := r.Checksum("b.fit"); ok {
		t.Error("b.fit has no checksum attribute")
	}
	if code := post("garbage"); code != http.StatusBadRequest {
		t.Errorf("malformed bulk body: status %d, want 400", code)
	}
}

// FuzzReadReplicas drives the text codec with arbitrary bodies: it must
// never panic, every rejection must classify as ErrBadInput (the HTTP 400
// class) or a catalog error, and every accepted body must round-trip
// Write→Read losslessly.
func FuzzReadReplicas(f *testing.F) {
	f.Add("a site url\n")
	f.Add("a site url deadbeef\n")
	f.Add("# comment\n\na site url\n")
	f.Add("only two\n")
	f.Add("a b c d e\n")
	f.Add(strings.Repeat("x", 100))
	f.Add("a site url\x00\n")
	f.Add("\xff\xfe junk")
	f.Fuzz(func(t *testing.T, body string) {
		r := New()
		if err := ReadReplicas(r, strings.NewReader(body)); err != nil {
			if !errors.Is(err, ErrBadInput) {
				t.Errorf("rejection must be a client error, got %v", err)
			}
			return
		}
		// Accepted: dumping and reloading must reproduce the catalog.
		var buf strings.Builder
		if err := WriteReplicas(r, &buf); err != nil {
			t.Fatalf("write after accept: %v", err)
		}
		r2 := New()
		if err := ReadReplicas(r2, strings.NewReader(buf.String())); err != nil {
			t.Fatalf("reload of own dump: %v", err)
		}
		if r2.Len() != r.Len() {
			t.Fatalf("round trip lost LFNs: %d vs %d", r2.Len(), r.Len())
		}
		for _, lfn := range r.LFNs() {
			a, b := r.Lookup(lfn), r2.Lookup(lfn)
			if len(a) != len(b) {
				t.Fatalf("%s: %d vs %d replicas", lfn, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s replica %d: %v vs %v", lfn, i, a[i], b[i])
				}
			}
			sa, oka := r.Checksum(lfn)
			sb, okb := r2.Checksum(lfn)
			if oka != okb || sa != sb {
				t.Fatalf("%s checksum: %q,%t vs %q,%t", lfn, sa, oka, sb, okb)
			}
		}
	})
}
