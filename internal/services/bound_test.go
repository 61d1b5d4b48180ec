package services

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/votable"
	"repro/internal/wcs"
)

// writePaddedAnswer writes a well-formed one-row VOTable document of
// exactly n bytes, padded by elements the decoder skips, so that it reads
// every byte of it. The padding is long runs of text, which the decoder
// copies a run at a time.
func writePaddedAnswer(w io.Writer, n int) {
	const head = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<VOTABLE>"
	const tail = "<RESOURCE><TABLE><FIELD name=\"id\" datatype=\"char\"/>" +
		"<DATA><TABLEDATA><TR><TD>x</TD></TR></TABLEDATA></DATA></TABLE></RESOURCE></VOTABLE>"
	pad := []byte("<p>" + strings.Repeat("x", 64<<10) + "</p>")
	_, _ = io.WriteString(w, head)
	left := n - len(head) - len(tail)
	for ; left >= len(pad); left -= len(pad) {
		_, _ = w.Write(pad)
	}
	_, _ = io.WriteString(w, strings.Repeat(" ", left))
	_, _ = io.WriteString(w, tail)
}

// TestAnswerBound: a Cone Search answer of votable.MaxAnswerBytes decodes,
// and one a byte longer fails with an error naming the URL and the bound.
func TestAnswerBound(t *testing.T) {
	size := votable.MaxAnswerBytes
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writePaddedAnswer(w, size)
	}))
	defer srv.Close()
	if _, err := ConeSearch(srv.Client(), srv.URL+"/cone", wcs.New(150, 2), 0.1, 0); err != nil {
		t.Fatalf("answer of exactly the bound: %v", err)
	}
	size++
	_, err := ConeSearch(srv.Client(), srv.URL+"/cone", wcs.New(150, 2), 0.1, 0)
	if err == nil || !strings.Contains(err.Error(), srv.URL+"/cone?") ||
		!strings.Contains(err.Error(), strconv.Itoa(votable.MaxAnswerBytes)) {
		t.Fatalf("err = %v, want one naming the URL and %d", err, votable.MaxAnswerBytes)
	}
}
