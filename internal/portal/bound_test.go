package portal

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/votable"
)

// writePaddedAnswer is a copy of the one in internal/services/bound_test.go,
// which says what it writes; keep the copies alike.
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

// TestResultAnswerBound: a result answer one byte over
// votable.MaxAnswerBytes fails the computation with an error naming the URL
// and the bound.
func TestResultAnswerBound(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writePaddedAnswer(w, votable.MaxAnswerBytes+1)
	}))
	defer srv.Close()
	p := &Portal{cfg: Config{HTTPClient: srv.Client()}}
	_, err := p.fetchResult(srv.URL + "/result?id=req-000001")
	if !errors.Is(err, ErrComputeFailed) || !strings.Contains(err.Error(), srv.URL+"/result?id=req-000001") ||
		!strings.Contains(err.Error(), strconv.Itoa(votable.MaxAnswerBytes)) {
		t.Fatalf("err = %v, want ErrComputeFailed naming the URL and %d", err, votable.MaxAnswerBytes)
	}
}

// writeBoundPlusOne writes value after as many spaces as make the answer
// one byte longer than maxStatusBytes: whole, it is a valid answer.
func writeBoundPlusOne(w io.Writer, value string) {
	_, _ = io.WriteString(w, strings.Repeat(" ", maxStatusBytes+1-len(value))+value)
}

// TestSubmitAnswerBound: a submission answer one byte over maxStatusBytes
// fails the computation with an error naming the submit URL and the bound.
func TestSubmitAnswerBound(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/status" {
			_, _ = io.WriteString(w, `{"State":"failed","Message":"unbounded submit answer read"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		writeBoundPlusOne(w, "/status?id=req-000001")
	}))
	defer srv.Close()
	p := &Portal{cfg: Config{HTTPClient: srv.Client(), ComputeService: srv.URL, Now: time.Now}}
	tab := votable.NewTable("t", votable.Field{Name: "id", Datatype: votable.TypeChar})
	_, err := p.compute(tab, "COMA", 0, nil)
	if !errors.Is(err, ErrComputeFailed) || !strings.Contains(err.Error(), srv.URL+"/galmorph?cluster=COMA") ||
		!strings.Contains(err.Error(), strconv.Itoa(maxStatusBytes)) {
		t.Fatalf("err = %v, want ErrComputeFailed naming the URL and %d", err, maxStatusBytes)
	}
}

// TestStatusAnswerBound: a status answer one byte over maxStatusBytes fails
// the poll with an error naming the status URL and the bound.
func TestStatusAnswerBound(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeBoundPlusOne(w, `{"State":"completed","ResultURL":"/result?lfn=COMA.vot"}`)
	}))
	defer srv.Close()
	p := &Portal{cfg: Config{HTTPClient: srv.Client()}}
	_, err := p.pollOnce(srv.URL + "/status?id=req-000001")
	if !errors.Is(err, ErrComputeFailed) || !strings.Contains(err.Error(), srv.URL+"/status?id=req-000001") ||
		!strings.Contains(err.Error(), strconv.Itoa(maxStatusBytes)) {
		t.Fatalf("err = %v, want ErrComputeFailed naming the URL and %d", err, maxStatusBytes)
	}
}
