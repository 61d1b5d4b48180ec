package webservice

import (
	"bytes"
	"io"
	"net/http"
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

// TestFetchURLSizesReadFromContentLength covers the ingest edge: a declared
// length yields one exactly-sized buffer, an unknown one falls back to
// io.ReadAll, and a reply shorter than it declared is an error, not a
// zero-padded image.
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
}
