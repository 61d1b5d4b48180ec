package services

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/skysim"
	"repro/internal/votable"
)

// discardWriter is an http.ResponseWriter that drops its body and counts
// its bytes.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// surveyAnswers are the whole SURVEY /cone and /siacut answers: each
// request's path and the table the handler encodes for it.
func surveyAnswers(a *Archive, c *skysim.Cluster) []struct {
	path  string
	table func() *votable.Table
} {
	radius := 8*c.CoreRadiusDeg + 0.01
	ra, dec := votable.FormatFloat(c.Center.RA), votable.FormatFloat(c.Center.Dec)
	return []struct {
		path  string
		table func() *votable.Table
	}{
		{fmt.Sprintf("/cone?RA=%s&DEC=%s&SR=%s", ra, dec, votable.FormatFloat(radius)),
			func() *votable.Table { return a.ConeSearchPage(c.Center, radius, 0, -1) }},
		{fmt.Sprintf("/siacut?POS=%s,%s&SIZE=%s", ra, dec, votable.FormatFloat(2*radius)),
			func() *votable.Table { return a.SIAQueryCutoutsPage(c.Center, 2*radius, 0, -1) }},
	}
}

// TestAnswerHandlerBytes: serving an answer through Archive.Handler()
// allocates what building its table and encoding it to io.Discard do, plus
// at most 0.1 bytes per byte of the answer: the answer is counted, declared
// and streamed into the ResponseWriter, and the handler keeps no copy of
// it. While it was encoded into a bytes.Buffer grown from empty, the
// doubling cost 3.3–3.9 bytes per byte. The bytes are the fewest of five
// rounds of ten, and are not checked under -race, which allocates for its
// own bookkeeping. A corrupt answer declares and sends the first half.
func TestAnswerHandlerBytes(t *testing.T) {
	c := skysim.Generate(surveySpec())
	a := NewArchive("budget", c)
	h := a.Handler()
	const runs = 10
	bytesPerRun := func(run func()) uint64 {
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least
	}
	for _, q := range surveyAnswers(a, c) {
		var want bytes.Buffer
		if err := votable.WriteTable(&want, q.table()); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, q.path, nil)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("GET %s: status %d, %d bytes; want the %d bytes of WriteTable", q.path, rec.Code, rec.Body.Len(), want.Len())
		}

		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
			t.Fatalf("GET %s: Content-Length %q, want %d", q.path, got, want.Len())
		}
		cut := httptest.NewRecorder()
		writeVOTable(cut, q.table(), true)
		if half := want.Bytes()[:want.Len()/2]; !bytes.Equal(cut.Body.Bytes(), half) ||
			cut.Header().Get("Content-Length") != strconv.Itoa(len(half)) {
			t.Fatalf("GET %s corrupt: %d bytes declared %q; want the first %d", q.path, cut.Body.Len(), cut.Header().Get("Content-Length"), len(half))
		}

		w := &discardWriter{header: http.Header{}}
		served := bytesPerRun(func() {
			w.n = 0
			h.ServeHTTP(w, req)
		})
		built := bytesPerRun(func() {
			if err := votable.WriteTable(io.Discard, q.table()); err != nil {
				t.Fatal(err)
			}
		})
		if w.n != want.Len() {
			t.Fatalf("GET %s wrote %d bytes, want %d", q.path, w.n, want.Len())
		}
		allowed := built + uint64(0.1*float64(want.Len()))
		t.Logf("GET %s: %d bytes answered, %d allocated (table + encode %d, allowed %d): %.3f bytes per answer byte over them",
			q.path, want.Len(), served, built, allowed, (float64(served)-float64(built))/float64(want.Len()))
		if !raceEnabled && served > allowed {
			t.Errorf("GET %s: %d bytes allocated for a %d-byte answer, allowed %d", q.path, served, want.Len(), allowed)
		}
	}
}
