package webservice

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/votable"
)

// FuzzServiceHandler: every request to the compute service's handler — any
// method, endpoint, query string and body — is answered without a panic and
// without a 5xx, except a shed 503 that carries Retry-After. The fabric is
// held with one queue slot fleet-wide, so admitted submissions queue and
// never run, and the rest shed; cleanup cancels them all.
func FuzzServiceHandler(f *testing.F) {
	h := newHarness(f, 3, func(c *Config) {
		fab, err := fabric.New(fabric.Config{Pools: gridPools(), MaxQueuedWorkflows: 1})
		if err != nil {
			f.Fatal(err)
		}
		fab.Hold()
		c.Fabric = fab
	})
	f.Cleanup(func() {
		h.svc.mu.Lock()
		var ids []string
		for id := range h.svc.requests {
			ids = append(ids, id)
		}
		h.svc.mu.Unlock()
		slices.Sort(ids)
		for _, id := range ids {
			_ = h.svc.Cancel(id)
			if _, err := pollTerminal(h.svc, id); err != nil {
				f.Error(err)
			}
		}
	})
	var vot bytes.Buffer
	if err := votable.WriteTable(&vot, h.inputTable(f)); err != nil {
		f.Fatal(err)
	}
	f.Add("POST", "/galmorph", "cluster=COMA", vot.String())
	f.Add("POST", "/galmorph", "cluster=COMA&tenant=bob&priority=3", vot.String())
	f.Add("POST", "/galmorph", "cluster=COMA&priority=x", "<VOTABLE>")
	f.Add("PUT", "/galmorph", "cluster=%zz", "")
	f.Add("GET", "/status", "id=req-000001", "")
	f.Add("GET", "/status", "id=req-000001&wait=running", "")
	f.Add("POST", "/cancel", "id=req-000001", "")
	f.Add("POST", "/requeue", "id=req-000001", "")
	f.Add("GET", "/result", "lfn=COMA.vot", "")
	f.Add("GET", "/stats", "", "")
	f.Add("GET", "/debug/pprof/", "", "")
	handler := h.svc.Handler()
	f.Fuzz(func(t *testing.T, method, endpoint, query, body string) {
		req := &http.Request{Method: method, URL: &url.URL{Path: endpoint, RawQuery: query},
			Header: http.Header{}, Body: io.NopCloser(strings.NewReader(body))}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code >= 500 && (rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "") {
			t.Fatalf("%s %s?%s answered %d: %s", method, endpoint, query, rec.Code, rec.Body)
		}
	})
}
