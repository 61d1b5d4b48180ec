package webservice

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gridftp"
	"repro/internal/rls"
	"repro/internal/vdcache"
)

// TestStagedReplicasShareBytes pins the zero-copy data plane end to end:
// after one staged request every galaxy's stage-in replica at its execution
// site is the cache replica's own backing array, not a copy — and every file
// in every store still verifies, which a consumer that wrote into the bytes
// it was handed would break.
func TestStagedReplicasShareBytes(t *testing.T) {
	h := newHarness(t, 12, func(c *Config) { c.Workers = 4 })
	tab := h.inputTable(t)
	if _, _, err := h.svc.Compute(tab, "COMA"); err != nil {
		t.Fatal(err)
	}
	for _, m := range requestRefs(t, tab) {
		lfn := m.id + ".fit"
		cached, err := h.ftp.Store("isi").Get(lfn)
		if err != nil {
			t.Fatal(err)
		}
		staged := 0
		for _, site := range h.ftp.Sites() {
			if site == "isi" || !h.ftp.Store(site).Exists(lfn) {
				continue
			}
			staged++
			if data, _ := h.ftp.Store(site).Get(lfn); &data[0] != &cached[0] {
				t.Errorf("%s at %s is a copy of the cache replica, want the shared bytes", lfn, site)
			}
		}
		if staged == 0 {
			t.Errorf("%s was staged to no execution site", lfn)
		}
	}
	for _, site := range h.ftp.Sites() {
		for _, path := range h.ftp.Store(site).List() {
			if err := h.ftp.Store(site).Verify(path); err != nil {
				t.Errorf("after the request: %v", err)
			}
		}
	}
}

// TestMemoKeysOnImageContent holds the virtual-data memo to its contract now
// that it is keyed on the verified digest instead of a fresh hash of the
// pixels: two galaxies with identical pixels still share one entry.
func TestMemoKeysOnImageContent(t *testing.T) {
	h := newHarness(t, 6, nil) // one worker: the twin's lookup follows the original's Put
	tab := h.inputTable(t)
	refs := requestRefs(t, tab)
	if err := h.leg().cacheImageRefs(refs[:1]); err != nil {
		t.Fatal(err)
	}
	pixels, err := h.ftp.Store("isi").Get(refs[0].id + ".fit")
	if err != nil {
		t.Fatal(err)
	}
	// Galaxy 1 gets galaxy 0's image, registered so staging takes it for
	// already fetched. The redshift is part of the key, so give both the same.
	twin := refs[1].id + ".fit"
	if err := h.ftp.Store("isi").Put(twin, pixels); err != nil {
		t.Fatal(err)
	}
	if err := h.r.Register(twin, rls.PFN{Site: "isi", URL: gridftp.URL("isi", twin)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.SetCell(1, "z", tab.Cell(0, "z")); err != nil {
		t.Fatal(err)
	}
	_, stats, err := h.svc.Compute(tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	n := len(refs)
	if stats.MemoHits != 1 || stats.MemoMisses != n-1 || h.svc.memo.Len() != n-1 {
		t.Errorf("memo hits/misses/entries = %d/%d/%d, want 1/%d/%d (identical pixels share one entry)",
			stats.MemoHits, stats.MemoMisses, h.svc.memo.Len(), n-1, n-1)
	}
}

// TestVerifiedGetRepairedDigest drives verifiedGet's slow path: a stage-in
// copy damaged at rest is repaired from the cache replica, and the digest
// handed to the memo key is the repaired content's — the same key the intact
// file would have produced, never the damaged bytes'.
func TestVerifiedGetRepairedDigest(t *testing.T) {
	h := newHarness(t, 1, nil)
	l := h.leg()
	refs := requestRefs(t, h.inputTable(t))
	if err := l.cacheImageRefs(refs); err != nil {
		t.Fatal(err)
	}
	lfn := refs[0].id + ".fit"
	if _, err := h.ftp.Transfer(gridftp.URL("isi", lfn), gridftp.URL("usc", lfn)); err != nil {
		t.Fatal(err)
	}
	usc := h.ftp.Store("usc")
	intact, wantDigest, err := l.verifiedGet(usc, lfn)
	if err != nil {
		t.Fatal(err)
	}
	if wantDigest.String() != gridftp.Checksum(intact) {
		t.Fatalf("fast-path digest %s is not the content's checksum", wantDigest)
	}
	if !usc.Corrupt(lfn) {
		t.Fatal("could not corrupt the stage-in copy")
	}
	repaired, digest, err := l.verifiedGet(usc, lfn)
	if err != nil {
		t.Fatalf("verifiedGet over a damaged stage-in copy: %v", err)
	}
	if !bytes.Equal(repaired, intact) || digest != wantDigest {
		t.Errorf("repaired read returned digest %.12s over %d bytes, want the intact content's %.12s",
			digest, len(repaired), wantDigest)
	}
	fp := []byte("fingerprint")
	if vdcache.Key([]byte(digest.String()), fp) != vdcache.Key([]byte(gridftp.Checksum(intact)), fp) {
		t.Error("memo key of the repaired input differs from the intact input's")
	}
	if stats := l.r.status().Stats; stats.ChecksumFailures != 1 || stats.Quarantined != 0 || stats.Failovers != 1 {
		t.Errorf("stats = %+v, want one checksum failure recovered by one failover", stats)
	}
	if err := usc.Verify(lfn); err != nil {
		t.Errorf("the damaged copy was not healed in place: %v", err)
	}
}

// bodyTransport answers every request with a fixed body and a declared
// Content-Length (-1: unknown, as a chunked reply).
type bodyTransport struct {
	body     string
	declared int64
}

func (b bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Request: req,
		Body: io.NopCloser(strings.NewReader(b.body)), ContentLength: b.declared,
	}, nil
}

// TestFetchURLRefusesOversizedStream: a chunked response with no
// Content-Length is read only up to maxPresizedBody; one byte more is an
// error naming the URL, not an unbounded buffer.
func TestFetchURLRefusesOversizedStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		chunk := make([]byte, 1<<20)
		for left := maxPresizedBody + 1; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
				return
			}
			w.(http.Flusher).Flush()
		}
	}))
	t.Cleanup(srv.Close)
	h := newHarness(t, 1, func(c *Config) { c.HTTPClient = srv.Client() })
	u := srv.URL + "/cutout?id=g"
	data, err := h.svc.fetchURL(u)
	if !errors.Is(err, errBodyTooLarge) || !strings.Contains(err.Error(), u) {
		t.Fatalf("fetch of %d streamed bytes = %d bytes, %v; want an error naming %s", maxPresizedBody+1, len(data), err, u)
	}
}

// handOverTransport answers every request with a body over buf, declared
// at the given length, that offers its buffer as the router's body does.
type handOverTransport struct {
	buf      []byte
	declared int64
}

func (b handOverTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Request: req,
		Body: &handOverReader{buf: b.buf}, ContentLength: b.declared,
	}, nil
}

// handOverReader is a test body with the hand-over of handOverBody: all of
// buf, unread, when it is exactly n bytes long and exactly sized.
type handOverReader struct {
	buf []byte
	off int
}

func (r *handOverReader) HandOver(n int64) []byte {
	if r.off != 0 || int64(len(r.buf)) != n || cap(r.buf) != len(r.buf) {
		return nil
	}
	b := r.buf
	r.buf = nil
	return b
}

func (r *handOverReader) Read(p []byte) (int, error) {
	if r.off >= len(r.buf) {
		return 0, io.EOF
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

func (r *handOverReader) Close() error { return nil }

// TestFetchURLSizesReadFromContentLength covers the ingest edge: a declared
// length yields one exactly-sized buffer, an unknown one falls back to
// io.ReadAll, and a reply shorter than it declared is an error, not a
// zero-padded image. A body that hands its buffer over gives that buffer
// itself when it is exactly the declared length; any other is read as
// before, so a short hand-over is an error too, and a declaration past
// maxPresizedBody is refused before the body is asked.
func TestFetchURLSizesReadFromContentLength(t *testing.T) {
	body := strings.Repeat("x", 5000)
	for _, tc := range []struct {
		name     string
		declared int64
		exact    bool
		fails    bool
	}{
		{"declared", 5000, true, false},
		{"unknown", -1, false, false},
		{"short body", 6000, false, true},
	} {
		h := newHarness(t, 1, func(c *Config) {
			c.HTTPClient = &http.Client{Transport: bodyTransport{body: body, declared: tc.declared}}
		})
		data, err := h.svc.fetchURL("http://archive/cutout?id=g")
		if tc.fails {
			if err == nil {
				t.Errorf("%s: fetch succeeded with %d bytes", tc.name, len(data))
			}
			continue
		}
		if err != nil || string(data) != body {
			t.Fatalf("%s: fetch = %d bytes, %v", tc.name, len(data), err)
		}
		if tc.exact && cap(data) != len(data) {
			t.Errorf("%s: buffer cap %d for %d bytes, want exactly sized", tc.name, cap(data), len(data))
		}
	}

	exact := func(s string) []byte { // []byte(s) may round its capacity up
		b := make([]byte, len(s))
		copy(b, s)
		return b
	}
	for _, tc := range []struct {
		name     string
		buf      []byte
		declared int64
		adopted  bool  // the fetch returns buf itself
		fails    error // the fetch fails, with this error where non-nil
	}{
		{name: "handed over", buf: exact(body), declared: 5000, adopted: true},
		{name: "spare capacity", buf: append(make([]byte, 0, 6000), body...), declared: 5000},
		{name: "short hand-over", buf: exact(body[:4000]), declared: 5000, fails: io.ErrUnexpectedEOF},
		{name: "declared past the bound", buf: exact(body), declared: maxPresizedBody + 1, fails: errBodyTooLarge},
	} {
		h := newHarness(t, 1, func(c *Config) {
			c.HTTPClient = &http.Client{Transport: handOverTransport{buf: tc.buf, declared: tc.declared}}
		})
		data, err := h.svc.fetchURL("http://archive/cutout?id=g")
		if tc.fails != nil {
			if !errors.Is(err, tc.fails) {
				t.Errorf("%s: fetch = %d bytes, %v; want %v", tc.name, len(data), err, tc.fails)
			}
			continue
		}
		if err != nil || string(data) != body || cap(data) != len(data) {
			t.Fatalf("%s: fetch = %d bytes (cap %d), %v; want the %d bytes, exactly sized", tc.name, len(data), cap(data), err, len(body))
		}
		if aliased := &data[0] == &tc.buf[0]; aliased != tc.adopted {
			t.Errorf("%s: fetched buffer is the body's own: %t, want %t", tc.name, aliased, tc.adopted)
		}
	}
}
