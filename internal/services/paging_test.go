package services

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/votable"
	"repro/internal/wcs"
)

// tableBytes renders a table exactly as the HTTP layer would.
func tableBytes(t *testing.T, tab *votable.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := votable.WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConeSearchPagedByteIdentical checks that the paged client's merged
// table renders byte-identically to the unpaged protocol for every page
// size, including pages larger than the result set.
func TestConeSearchPagedByteIdentical(t *testing.T) {
	a := testArchive(t)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	hc := srv.Client()
	pos := wcs.New(195, 28)

	want, err := ConeSearch(hc, srv.URL+"/cone", pos, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() < 10 {
		t.Fatalf("fixture too small: %d rows", want.NumRows())
	}
	wantBytes := tableBytes(t, want)

	for _, pageSize := range []int{1, 3, 7, want.NumRows(), want.NumRows() + 50} {
		got, err := ConeSearch(hc, srv.URL+"/cone", pos, 1, pageSize)
		if err != nil {
			t.Fatalf("page size %d: %v", pageSize, err)
		}
		if !bytes.Equal(tableBytes(t, got), wantBytes) {
			t.Fatalf("page size %d: merged table diverges from unpaged response", pageSize)
		}
	}
	// pageSize <= 0 is the classic protocol.
	got, err := ConeSearch(hc, srv.URL+"/cone", pos, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tableBytes(t, got), wantBytes) {
		t.Fatal("pageSize 0 must be the unpaged protocol")
	}
}

// TestConeSearchPageBounded checks that a paged response really is bounded
// by MAXREC server-side.
func TestConeSearchPageBounded(t *testing.T) {
	a := testArchive(t)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	hc := srv.Client()

	page, err := getVOTable(hc, srv.URL+"/cone?RA=195&DEC=28&SR=1&MAXREC=5&OFFSET=0")
	if err != nil {
		t.Fatal(err)
	}
	if page.NumRows() != 5 {
		t.Fatalf("MAXREC=5 returned %d rows", page.NumRows())
	}
	// OFFSET without MAXREC streams from the offset to the end.
	full := a.ConeSearch(wcs.New(195, 28), 1)
	tail, err := getVOTable(hc, srv.URL+"/cone?RA=195&DEC=28&SR=1&OFFSET=2")
	if err != nil {
		t.Fatal(err)
	}
	if tail.NumRows() != full.NumRows()-2 {
		t.Fatalf("OFFSET=2 returned %d rows, want %d", tail.NumRows(), full.NumRows()-2)
	}
	if !reflect.DeepEqual(tail.Rows, full.Rows[2:]) {
		t.Fatal("OFFSET tail diverges from the unpaged row order")
	}
}

// TestSIAQueryPagedMatchesUnpaged covers both SIA endpoints: the cutout
// service (one row per galaxy — the big one) and the field-image listing.
func TestSIAQueryPagedMatchesUnpaged(t *testing.T) {
	a := testArchive(t)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	hc := srv.Client()
	pos := wcs.New(195, 28)

	for _, ep := range []struct {
		path string
		size float64
	}{{"/siacut", 1}, {"/sia", 0.5}} {
		want, err := SIAQuery(hc, srv.URL+ep.path, pos, ep.size, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: empty fixture", ep.path)
		}
		for _, pageSize := range []int{1, 3, len(want), len(want) + 5} {
			got, err := SIAQuery(hc, srv.URL+ep.path, pos, ep.size, pageSize)
			if err != nil {
				t.Fatalf("%s page size %d: %v", ep.path, pageSize, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s page size %d: paged records diverge", ep.path, pageSize)
			}
		}
	}
}

// TestSIAQueryCutoutsPageReassembles pins the archive-level paging: pages
// concatenate into the unpaged table, and only the final page comes short.
func TestSIAQueryCutoutsPageReassembles(t *testing.T) {
	a := testArchive(t)
	pos := wcs.New(195, 28)
	want := a.SIAQueryCutoutsPage(pos, 2, 0, -1)
	for _, pageSize := range []int{1, 4, want.NumRows(), want.NumRows() + 3} {
		merged := votable.NewTable(want.Name, want.Fields...)
		for offset := 0; ; offset += pageSize {
			page := a.SIAQueryCutoutsPage(pos, 2, offset, pageSize)
			if page.NumRows() > pageSize {
				t.Fatalf("page size %d: page holds %d rows", pageSize, page.NumRows())
			}
			merged.Rows = append(merged.Rows, page.Rows...)
			if page.NumRows() < pageSize {
				break
			}
		}
		if !bytes.Equal(tableBytes(t, merged), tableBytes(t, want)) {
			t.Fatalf("page size %d: reassembled cutout pages diverge", pageSize)
		}
	}
	if n := a.SIAQueryCutoutsPage(pos, 2, 0, 0).NumRows(); n != 0 {
		t.Errorf("maxrec 0 returned %d rows", n)
	}
	if n := a.SIAQueryCutoutsPage(pos, 2, want.NumRows()+10, 5).NumRows(); n != 0 {
		t.Errorf("past-the-end page returned %d rows", n)
	}
}

// TestPagedClientRefusesArchiveIgnoringPaging serves the same full page
// whatever the OFFSET: the client must stop with an error once the merged
// rows pass maxPagedRows, not page forever. A page longer than MAXREC is
// refused at once.
func TestPagedClientRefusesArchiveIgnoringPaging(t *testing.T) {
	page := func(rows int) []byte {
		tab := votable.NewTable("stuck", votable.Field{Name: "id", Datatype: votable.TypeChar})
		for i := 0; i < rows; i++ {
			if err := tab.AppendRow(strconv.Itoa(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tableBytes(t, tab)
	}
	for _, c := range []struct {
		name          string
		pageSize      int
		body          []byte
		wantRequests  int64
		wantErrSubstr string
	}{
		{"ignores OFFSET", 4096, page(4096), maxPagedRows/4096 + 1, "ignores OFFSET"},
		{"ignores MAXREC", 2, page(3), 1, "3 rows for MAXREC=2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var requests atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				requests.Add(1)
				_, _ = w.Write(c.body)
			}))
			defer srv.Close()
			_, err := ConeSearch(srv.Client(), srv.URL+"/cone", wcs.New(195, 28), 1, c.pageSize)
			if err == nil || !strings.Contains(err.Error(), c.wantErrSubstr) {
				t.Fatalf("err = %v, want one naming %q", err, c.wantErrSubstr)
			}
			if got := requests.Load(); got != c.wantRequests {
				t.Errorf("client made %d requests, want %d", got, c.wantRequests)
			}
		})
	}
}

// TestPagingBadParams checks that malformed MAXREC/OFFSET answer 400.
func TestPagingBadParams(t *testing.T) {
	a := testArchive(t)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	for _, path := range []string{
		"/cone?RA=195&DEC=28&SR=1&MAXREC=x",
		"/cone?RA=195&DEC=28&SR=1&MAXREC=-1",
		"/cone?RA=195&DEC=28&SR=1&OFFSET=-3",
		"/siacut?POS=195,28&SIZE=1&MAXREC=1.5",
		"/sia?POS=195,28&SIZE=1&OFFSET=nope",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 128)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", path, resp.StatusCode)
		}
		if !strings.Contains(string(body[:n]), "bad query") {
			t.Errorf("%s body %q lacks bad-query marker", path, body[:n])
		}
	}
}
