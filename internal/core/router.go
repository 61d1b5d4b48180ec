// Package core assembles the paper's complete end-to-end system — simulated
// archives, replica and transformation catalogs, GridFTP fabric, Condor
// pools, the Pegasus compute web service and the user portal — into a single
// Testbed, and provides the science analysis (the Dressler
// morphology–density relation of Figure 7) on the resulting tables.
package core

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
)

// hostRouter routes HTTP requests to in-process handlers by virtual host
// name, so the portal, archives and compute service talk real HTTP semantics
// without opening sockets. This mirrors the paper's deployment (portal at
// STScI, compute at ISI, archives everywhere) inside one process.
type hostRouter map[string]http.Handler

// RoundTrip implements http.RoundTripper.
func (r hostRouter) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := r[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("core: no service at host %q", req.URL.Host)
	}
	rw := &memResponse{header: http.Header{}, code: http.StatusOK}
	h.ServeHTTP(rw, req)
	if req.Body != nil {
		_ = req.Body.Close()
	}
	return &http.Response{
		Status:     http.StatusText(rw.code),
		StatusCode: rw.code,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     rw.header,
		Body:       io.NopCloser(bytes.NewReader(rw.buf.Bytes())),
		// A real server declares the length of a fully buffered reply;
		// clients size their read from it.
		ContentLength: int64(rw.buf.Len()),
		Request:       req,
	}, nil
}

// memResponse is the in-memory http.ResponseWriter behind hostRouter.
type memResponse struct {
	header http.Header
	buf    bytes.Buffer
	code   int
	wrote  bool
}

func (m *memResponse) Header() http.Header { return m.header }

func (m *memResponse) WriteHeader(code int) {
	if !m.wrote {
		m.code = code
		m.wrote = true
	}
}

func (m *memResponse) Write(p []byte) (int, error) {
	m.wrote = true
	return m.buf.Write(p)
}
