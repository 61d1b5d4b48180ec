// Package core assembles the paper's complete end-to-end system — simulated
// archives, replica and transformation catalogs, GridFTP fabric, Condor
// pools, the Pegasus compute web service and the user portal — into a single
// Testbed, and provides the science analysis (the Dressler
// morphology–density relation of Figure 7) on the resulting tables.
package core

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// hostRouter routes HTTP requests to in-process handlers by virtual host
// name, so the portal, archives and compute service talk real HTTP semantics
// without opening sockets. This mirrors the paper's deployment (portal at
// STScI, compute at ISI, archives everywhere) inside one process.
type hostRouter map[string]http.Handler

// RoundTrip implements http.RoundTripper. The response body is the
// memResponse the handler wrote into, read in place or handed over whole.
// The response and its body are one allocation, and the header map another.
func (r hostRouter) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := r[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("core: no service at host %q", req.URL.Host)
	}
	x := &exchange{body: memResponse{header: http.Header{}, code: http.StatusOK}}
	rw := &x.body
	h.ServeHTTP(rw, req)
	if req.Body != nil {
		_ = req.Body.Close()
	}
	x.resp = http.Response{
		Status:     http.StatusText(rw.code),
		StatusCode: rw.code,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     rw.header,
		Body:       rw,
		// A real server declares the length of a fully buffered reply;
		// clients size their read from it.
		ContentLength: int64(len(rw.buf)),
		Request:       req,
	}
	return &x.resp, nil
}

// exchange is one round trip's response and the body it answers with,
// allocated together.
type exchange struct {
	resp http.Response
	body memResponse
}

// maxPresizedBody bounds the buffer a declared Content-Length sizes up
// front, at the bound the compute service's fetchURL puts on a fetched
// body: a handler that declares more gets a buffer grown by its writes, so
// a wrong or hostile declaration cannot make the router allocate it.
const maxPresizedBody = 64 << 20

// memResponse is the in-memory http.ResponseWriter behind hostRouter, and
// then the response's body: an io.ReadCloser over the bytes written, whose
// buffer a client may take instead of reading it (HandOver).
type memResponse struct {
	header http.Header
	buf    []byte
	off    int // bytes of buf already read
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

// Write appends p to the body. The first Write sizes the buffer from the
// declared Content-Length, when there is one within maxPresizedBody, so a
// body written as declared lands in one buffer of exactly its length;
// later bytes, or an undeclared body, grow it as append does.
//
//nvo:hotpath
func (m *memResponse) Write(p []byte) (int, error) {
	m.wrote = true
	if m.buf == nil {
		m.buf = bodyBuffer(m.header.Get("Content-Length"))
	}
	m.buf = append(m.buf, p...)
	return len(p), nil
}

// bodyBuffer is an empty buffer with room for the declared length, or nil
// when none is declared or it is not a length from 1 to maxPresizedBody.
func bodyBuffer(declared string) []byte {
	if declared == "" {
		return nil
	}
	n, err := strconv.ParseInt(declared, 10, 64)
	if err != nil || n <= 0 || n > maxPresizedBody {
		return nil
	}
	return make([]byte, 0, n)
}

// Read reads the body written, as a bytes.Reader over it would.
//
//nvo:hotpath
func (m *memResponse) Read(p []byte) (int, error) {
	if m.off >= len(m.buf) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[m.off:])
	m.off += n
	return n, nil
}

// HandOver gives the caller the body's buffer and forgets it, so a client
// that would copy the body into a buffer of its own takes this one
// instead; Read then reports io.EOF. It hands over only a body of exactly n
// bytes, none of them read yet, in a buffer of exactly their length, and
// otherwise returns nil and leaves the body to be read as it was.
func (m *memResponse) HandOver(n int64) []byte {
	if m.off != 0 || int64(len(m.buf)) != n || cap(m.buf) != len(m.buf) {
		return nil
	}
	b := m.buf
	m.buf = nil
	return b
}

// Close implements io.Closer; the body holds nothing to release.
func (m *memResponse) Close() error { return nil }
