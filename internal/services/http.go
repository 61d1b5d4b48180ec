package services

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faults"
	"repro/internal/skysim"
	"repro/internal/votable"
	"repro/internal/wcs"
)

// faultGate consults the injector for one request. Corruption faults let the
// request proceed but mark the response for damage (a truncated payload the
// client's VOTable/FITS parser rejects); every other fault kind answers 503,
// the face an unreachable or overloaded archive shows a portal.
func (a *Archive) faultGate(w http.ResponseWriter, op faults.Op) (corrupt, proceed bool) {
	err := a.injector().Check(op)
	if err == nil {
		return false, true
	}
	if faults.Is(err, faults.KindCorruption) {
		return true, true
	}
	http.Error(w, err.Error(), http.StatusServiceUnavailable)
	return false, false
}

// fitsType is the Content-Type header value of every FITS answer. Every
// answer's header shares it, so no handler or client may write to it.
var fitsType = []string{"application/fits"}

// writeBody sends a FITS payload in one Write, truncating it when a
// corruption fault is in effect so the damage is detectable downstream. It
// declares the length it sends, so a client (and the testbed's in-process
// router) can size its copy of the body once.
func writeBody(w http.ResponseWriter, data []byte, corrupt bool) {
	data = data[:sentLen(len(data), corrupt)]
	h := w.Header()
	h["Content-Type"] = fitsType
	h.Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// sentLen is how much of an n-byte body is sent: all of it, or the first
// half when a corruption fault is in effect.
func sentLen(n int, corrupt bool) int {
	if corrupt && n > 1 {
		return n / 2
	}
	return n
}

// encodePool recycles the buffers /cutout encodes into. A buffer goes back
// as soon as its one Write returns: an http.ResponseWriter does not keep
// the slice it is given (a server copies it into its connection's buffer,
// the testbed's router into the response's), so the next request may
// overwrite it.
var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// serveCutout answers GET /cutout?id=<galaxy> with the galaxy's FITS
// cutout, rendered into a pooled frame and encoded into a pooled buffer.
func (a *Archive) serveCutout(w http.ResponseWriter, req *http.Request) {
	id := queryValue(req.URL.RawQuery, "id")
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	corrupt, proceed := a.faultGate(w, faults.Op{Name: OpCutout, Site: a.name, Key: id})
	if !proceed {
		return
	}
	g, ok := a.Galaxy(id)
	if !ok {
		http.Error(w, unknownGalaxy(id).Error(), http.StatusNotFound)
		return
	}
	if err := writeCutout(w, &g, corrupt); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
	}
}

// queryValue is url.ParseQuery(rawQuery).Get(key) without building the
// map: the first value of key among the query's &-separated pairs,
// unescaped. A pair ParseQuery refuses (one holding a semicolon, or a bad
// escape) is skipped, as ParseQuery skips it.
func queryValue(rawQuery, key string) string {
	for q := rawQuery; q != ""; {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// writeCutout encodes g's cutout into a pooled buffer, writes it as the
// response body and returns the buffer, grown to the largest cutout it has
// held, to the pool.
//
//nvo:hotpath
func writeCutout(w http.ResponseWriter, g *skysim.Galaxy, corrupt bool) error {
	buf := encodePool.Get().(*[]byte)
	defer encodePool.Put(buf)
	data, err := appendCutout((*buf)[:0], g)
	if err != nil {
		return err
	}
	*buf = data[:0]
	writeBody(w, data, corrupt)
	return nil
}

// Handler exposes the archive over HTTP with the NVO protocol endpoints:
//
//	GET /cone?RA=&DEC=&SR=            Cone Search        -> VOTable
//	GET /sia?POS=ra,dec&SIZE=deg      large-scale images -> VOTable of acrefs
//	GET /siacut?POS=ra,dec&SIZE=deg   cutout service     -> VOTable of acrefs
//	GET /cutout?id=<galaxy>           cutout image       -> FITS
//	GET /image?cluster=&band=         large-scale image  -> FITS
func (a *Archive) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/cone", a.tableQuery(faults.Op{Name: OpCone, Site: a.name}, parseRADecSR, a.ConeSearchPage))
	mux.HandleFunc("/sia", a.tableQuery(faults.Op{Name: OpSIA, Site: a.name, Key: "sia"}, parsePosSize,
		func(pos wcs.SkyCoord, size float64, offset, maxrec int) *votable.Table {
			return pageOf(a.SIAQueryFields(pos, size), offset, maxrec)
		}))
	mux.HandleFunc("/siacut", a.tableQuery(faults.Op{Name: OpSIA, Site: a.name, Key: "siacut"}, parsePosSize, a.SIAQueryCutoutsPage))

	mux.HandleFunc("/cutout", a.serveCutout)

	mux.HandleFunc("/cutoutbatch", func(w http.ResponseWriter, req *http.Request) {
		idsParam := req.URL.Query().Get("ids")
		if idsParam == "" {
			http.Error(w, "missing ids", http.StatusBadRequest)
			return
		}
		corrupt, proceed := a.faultGate(w, faults.Op{Name: OpCutout, Site: a.name, Key: idsParam})
		if !proceed {
			return
		}
		data, err := a.CutoutBatchFITS(strings.Split(idsParam, ","))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeBody(w, data, corrupt)
	})

	mux.HandleFunc("/image", func(w http.ResponseWriter, req *http.Request) {
		cluster := req.URL.Query().Get("cluster")
		band := Band(req.URL.Query().Get("band"))
		if cluster == "" || band == "" {
			http.Error(w, "missing cluster or band", http.StatusBadRequest)
			return
		}
		corrupt, proceed := a.faultGate(w, faults.Op{Name: OpCutout, Site: a.name, Key: cluster + "/" + string(band)})
		if !proceed {
			return
		}
		data, err := a.FieldFITS(cluster, band)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeBody(w, data, corrupt)
	})

	return mux
}

// tableQuery is the one body of the positional VOTable endpoints: parse the
// position and extent, then the MAXREC/OFFSET window, consult the fault gate
// (only well-formed requests draw), and write that window of the table.
func (a *Archive) tableQuery(op faults.Op, parse func(*http.Request) (wcs.SkyCoord, float64, error),
	window func(pos wcs.SkyCoord, extent float64, offset, maxrec int) *votable.Table) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		pos, extent, err := parse(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		offset, maxrec, err := parsePage(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		corrupt, proceed := a.faultGate(w, op)
		if !proceed {
			return
		}
		writeVOTable(w, window(pos, extent, offset, maxrec), corrupt)
	}
}

func parseRADecSR(req *http.Request) (wcs.SkyCoord, float64, error) {
	q := req.URL.Query()
	ra, err1 := strconv.ParseFloat(q.Get("RA"), 64)
	dec, err2 := strconv.ParseFloat(q.Get("DEC"), 64)
	sr, err3 := strconv.ParseFloat(q.Get("SR"), 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return wcs.SkyCoord{}, 0, fmt.Errorf("%w: need numeric RA, DEC, SR", ErrBadQuery)
	}
	if !inRange(ra, dec, sr) {
		return wcs.SkyCoord{}, 0, fmt.Errorf("%w: out-of-range RA/DEC/SR", ErrBadQuery)
	}
	return wcs.New(ra, dec), sr, nil
}

func parsePosSize(req *http.Request) (wcs.SkyCoord, float64, error) {
	q := req.URL.Query()
	parts := strings.Split(q.Get("POS"), ",")
	if len(parts) != 2 {
		return wcs.SkyCoord{}, 0, fmt.Errorf("%w: POS must be ra,dec", ErrBadQuery)
	}
	ra, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	dec, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	size, err3 := strconv.ParseFloat(q.Get("SIZE"), 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return wcs.SkyCoord{}, 0, fmt.Errorf("%w: need numeric POS and SIZE", ErrBadQuery)
	}
	if !inRange(ra, dec, size) {
		return wcs.SkyCoord{}, 0, fmt.Errorf("%w: out-of-range POS/SIZE", ErrBadQuery)
	}
	return wcs.New(ra, dec), size, nil
}

// inRange admits a query position and extent: a finite RA, a Dec in
// [-90, 90] and a finite extent of at least zero. NaN fails every comparison,
// so each bound is written as the test a NaN must fail.
func inRange(ra, dec, extent float64) bool {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	return finite(ra) && dec >= -90 && dec <= 90 && finite(extent) && extent >= 0
}

// parsePage reads the optional MAXREC/OFFSET paging window of a request.
// With neither parameter present the window is (0, -1): the whole table, so
// clients that never page keep seeing byte-identical responses. maxrec -1
// means unbounded (no MAXREC).
func parsePage(req *http.Request) (offset, maxrec int, err error) {
	q := req.URL.Query()
	maxrec = -1
	if mr := q.Get("MAXREC"); mr != "" {
		if maxrec, err = strconv.Atoi(mr); err != nil || maxrec < 0 {
			return 0, 0, fmt.Errorf("%w: MAXREC must be a non-negative integer", ErrBadQuery)
		}
	}
	if off := q.Get("OFFSET"); off != "" {
		if offset, err = strconv.Atoi(off); err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("%w: OFFSET must be a non-negative integer", ErrBadQuery)
		}
	}
	return offset, maxrec, nil
}

// pageOf returns a shallow copy of t restricted to the [offset,
// offset+maxrec) rows; a negative maxrec means "to the end". It serves the
// endpoints whose tables are already bounded (per-cluster field listings)
// and only need protocol-level paging, not a bounded-memory build.
func pageOf(t *votable.Table, offset, maxrec int) *votable.Table {
	page := *t
	if offset < 0 {
		offset = 0
	}
	if offset > len(t.Rows) {
		offset = len(t.Rows)
	}
	end := len(t.Rows)
	if maxrec >= 0 && offset+maxrec < end {
		end = offset + maxrec
	}
	page.Rows = t.Rows[offset:end]
	return &page
}

// writeVOTable writes t as the answer, declared at its length. A first pass
// through the encoder counts the answer's bytes, so the header can declare
// them before the second pass streams the answer into w: a client that
// sizes its read from Content-Length, as the testbed's router does, holds
// the answer's one copy, and the handler holds none. A corrupt answer
// declares and sends the first half, as writeBody cuts it.
func writeVOTable(w http.ResponseWriter, t *votable.Table, corrupt bool) {
	_ = votable.WriteSized(func(bw io.Writer) error { return votable.WriteTable(bw, t) }, func(n int) io.Writer {
		size := sentLen(n, corrupt)
		h := w.Header()
		h.Set("Content-Type", "text/xml")
		h.Set("Content-Length", strconv.Itoa(size))
		return &cutWriter{w: w, left: size}
	})
}

// cutWriter passes the first left bytes written to it on to w and drops the
// rest, so a body never runs past the length its header declared.
type cutWriter struct {
	w    io.Writer
	left int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if k := min(len(p), c.left); k > 0 {
		if _, err := c.w.Write(p[:k]); err != nil {
			return 0, err
		}
		c.left -= k
	}
	return len(p), nil
}

// --- protocol clients -------------------------------------------------------

// ConeSearch performs a Cone Search against base (e.g.
// "http://ned.example/cone") and returns the VOTable of hits. pageSize > 0
// fetches it in pages of that many rows (MAXREC/OFFSET): the server slices
// one globally sorted hit list, so the merged table is byte-identical to the
// single response while each HTTP response — and the server-side table
// build — stays bounded by pageSize. pageSize <= 0 is one request without
// the paging parameters.
func ConeSearch(hc *http.Client, base string, pos wcs.SkyCoord, sr float64, pageSize int) (*votable.Table, error) {
	query := fmt.Sprintf("RA=%s&DEC=%s&SR=%s",
		url.QueryEscape(votable.FormatFloat(pos.RA)),
		url.QueryEscape(votable.FormatFloat(pos.Dec)),
		url.QueryEscape(votable.FormatFloat(sr)))
	return getPaged(hc, base+"?"+query, pageSize)
}

// maxPagedRows caps the rows getPaged merges from one paged answer. The
// largest request this system is sized for is the 200,000-galaxy survey of
// EXPERIMENTS §P3, whose cone or SIA answer holds one row per galaxy; 2^18 =
// 262,144 rows leaves a third of headroom above it. An archive that ignores
// OFFSET answers every page in full, and without the cap the loop would ask
// for pages, and grow the merged table, forever.
const maxPagedRows = 1 << 18

// getPaged fetches the VOTable at u in pages of pageSize rows, stopping
// after the first page that comes up short, and returns the pages merged
// into one table. pageSize <= 0 fetches u as it stands, in one request. A
// page holding more than pageSize rows, or a merged table past maxPagedRows,
// is an archive that does not honour MAXREC/OFFSET, and fails the query.
func getPaged(hc *http.Client, u string, pageSize int) (*votable.Table, error) {
	var merged *votable.Table
	for offset := 0; ; offset += pageSize {
		pageURL := u
		if pageSize > 0 {
			pageURL = fmt.Sprintf("%s&MAXREC=%d&OFFSET=%d", u, pageSize, offset)
		}
		page, err := getVOTable(hc, pageURL)
		if err != nil {
			return nil, err
		}
		if pageSize <= 0 {
			return page, nil
		}
		if page.NumRows() > pageSize {
			return nil, fmt.Errorf("services: %s returned %d rows for MAXREC=%d", pageURL, page.NumRows(), pageSize)
		}
		if merged == nil {
			merged = page
		} else {
			merged.Rows = append(merged.Rows, page.Rows...)
		}
		if merged.NumRows() > maxPagedRows {
			return nil, fmt.Errorf("services: %s: more than %d rows after %d pages; the archive ignores OFFSET",
				u, maxPagedRows, offset/pageSize+1)
		}
		if page.NumRows() < pageSize {
			return merged, nil
		}
	}
}

// SIARecord is one parsed row of an SIA response.
type SIARecord struct {
	Title  string
	Pos    wcs.SkyCoord
	Naxis1 int
	Naxis2 int
	Format string
	AcRef  string
}

// SIAQuery performs an SIA request against base (".../sia" or ".../siacut")
// and parses the image references. pageSize pages the request exactly as in
// ConeSearch; the record list is the same either way.
func SIAQuery(hc *http.Client, base string, pos wcs.SkyCoord, sizeDeg float64, pageSize int) ([]SIARecord, error) {
	query := fmt.Sprintf("POS=%s,%s&SIZE=%s",
		url.QueryEscape(votable.FormatFloat(pos.RA)),
		url.QueryEscape(votable.FormatFloat(pos.Dec)),
		url.QueryEscape(votable.FormatFloat(sizeDeg)))
	t, err := getPaged(hc, base+"?"+query, pageSize)
	if err != nil {
		return nil, err
	}
	return siaRecords(t), nil
}

// siaRecords parses t's rows as SIA records.
func siaRecords(t *votable.Table) []SIARecord {
	out := make([]SIARecord, 0, t.NumRows())
	for i := 0; i < t.NumRows(); i++ {
		ra, _ := t.Float(i, "ra")
		dec, _ := t.Float(i, "dec")
		n1, _ := t.Int(i, "naxis1")
		n2, _ := t.Int(i, "naxis2")
		out = append(out, SIARecord{
			Title:  t.Cell(i, "title"),
			Pos:    wcs.New(ra, dec),
			Naxis1: int(n1),
			Naxis2: int(n2),
			Format: t.Cell(i, "format"),
			AcRef:  t.Cell(i, "acref"),
		})
	}
	return out
}

func getVOTable(hc *http.Client, u string) (*votable.Table, error) {
	resp, err := hc.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("services: GET %s: status %d: %s", u, resp.StatusCode, body)
	}
	return votable.ReadAnswer(resp.Body, u)
}
