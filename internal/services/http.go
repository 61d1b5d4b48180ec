package services

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/fits"
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

// writeBody sends a response payload, truncating it when a corruption fault
// is in effect so the damage is detectable downstream.
func writeBody(w http.ResponseWriter, ctype string, data []byte, corrupt bool) {
	if corrupt && len(data) > 1 {
		data = data[:len(data)/2]
	}
	w.Header().Set("Content-Type", ctype)
	_, _ = w.Write(data)
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

	mux.HandleFunc("/cone", func(w http.ResponseWriter, req *http.Request) {
		pos, err := parseRADecSR(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		page, err := parsePage(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		corrupt, proceed := a.faultGate(w, faults.Op{Name: OpCone, Site: a.name})
		if !proceed {
			return
		}
		if page.active {
			writeVOTable(w, a.ConeSearchPage(pos.center, pos.radius, page.offset, page.maxrec), corrupt)
			return
		}
		writeVOTable(w, a.ConeSearch(pos.center, pos.radius), corrupt)
	})

	mux.HandleFunc("/sia", func(w http.ResponseWriter, req *http.Request) {
		pos, size, err := parsePosSize(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		page, err := parsePage(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		corrupt, proceed := a.faultGate(w, faults.Op{Name: OpSIA, Site: a.name, Key: "sia"})
		if !proceed {
			return
		}
		t := a.SIAQueryFields(pos, size)
		if page.active {
			t = pageOf(t, page.offset, page.maxrec)
		}
		writeVOTable(w, t, corrupt)
	})

	mux.HandleFunc("/siacut", func(w http.ResponseWriter, req *http.Request) {
		pos, size, err := parsePosSize(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		page, err := parsePage(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		corrupt, proceed := a.faultGate(w, faults.Op{Name: OpSIA, Site: a.name, Key: "siacut"})
		if !proceed {
			return
		}
		if page.active {
			writeVOTable(w, a.SIAQueryCutoutsPage(pos, size, page.offset, page.maxrec), corrupt)
			return
		}
		writeVOTable(w, a.SIAQueryCutouts(pos, size), corrupt)
	})

	mux.HandleFunc("/cutout", func(w http.ResponseWriter, req *http.Request) {
		id := req.URL.Query().Get("id")
		if id == "" {
			http.Error(w, "missing id", http.StatusBadRequest)
			return
		}
		corrupt, proceed := a.faultGate(w, faults.Op{Name: OpCutout, Site: a.name, Key: id})
		if !proceed {
			return
		}
		_, data, err := a.CutoutFITS(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeBody(w, "application/fits", data, corrupt)
	})

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
		writeBody(w, "application/fits", data, corrupt)
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
		writeBody(w, "application/fits", data, corrupt)
	})

	return mux
}

type coneParams struct {
	center wcs.SkyCoord
	radius float64
}

func parseRADecSR(req *http.Request) (coneParams, error) {
	q := req.URL.Query()
	ra, err1 := strconv.ParseFloat(q.Get("RA"), 64)
	dec, err2 := strconv.ParseFloat(q.Get("DEC"), 64)
	sr, err3 := strconv.ParseFloat(q.Get("SR"), 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return coneParams{}, fmt.Errorf("%w: need numeric RA, DEC, SR", ErrBadQuery)
	}
	if sr < 0 || dec < -90 || dec > 90 {
		return coneParams{}, fmt.Errorf("%w: out-of-range RA/DEC/SR", ErrBadQuery)
	}
	return coneParams{center: wcs.New(ra, dec), radius: sr}, nil
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
	if size < 0 || dec < -90 || dec > 90 {
		return wcs.SkyCoord{}, 0, fmt.Errorf("%w: out-of-range POS/SIZE", ErrBadQuery)
	}
	return wcs.New(ra, dec), size, nil
}

// pageParams carries the optional MAXREC/OFFSET paging window of a request.
// active is false when neither parameter is present, in which case the
// handler answers the classic unpaged table so existing clients keep seeing
// byte-identical responses.
type pageParams struct {
	offset int
	maxrec int // -1: unbounded (OFFSET without MAXREC)
	active bool
}

func parsePage(req *http.Request) (pageParams, error) {
	q := req.URL.Query()
	mr, off := q.Get("MAXREC"), q.Get("OFFSET")
	if mr == "" && off == "" {
		return pageParams{}, nil
	}
	p := pageParams{maxrec: -1, active: true}
	var err error
	if mr != "" {
		if p.maxrec, err = strconv.Atoi(mr); err != nil || p.maxrec < 0 {
			return pageParams{}, fmt.Errorf("%w: MAXREC must be a non-negative integer", ErrBadQuery)
		}
	}
	if off != "" {
		if p.offset, err = strconv.Atoi(off); err != nil || p.offset < 0 {
			return pageParams{}, fmt.Errorf("%w: OFFSET must be a non-negative integer", ErrBadQuery)
		}
	}
	return p, nil
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

func writeVOTable(w http.ResponseWriter, t *votable.Table, corrupt bool) {
	var buf bytes.Buffer
	_ = votable.WriteTable(&buf, t)
	writeBody(w, "text/xml", buf.Bytes(), corrupt)
}

// --- protocol clients -------------------------------------------------------

// ConeSearch performs a Cone Search request against base (e.g.
// "http://ned.example/cone") and parses the VOTable response.
func ConeSearch(hc *http.Client, base string, pos wcs.SkyCoord, sr float64) (*votable.Table, error) {
	u := fmt.Sprintf("%s?RA=%s&DEC=%s&SR=%s", base,
		url.QueryEscape(votable.FormatFloat(pos.RA)),
		url.QueryEscape(votable.FormatFloat(pos.Dec)),
		url.QueryEscape(votable.FormatFloat(sr)))
	return getVOTable(hc, u)
}

// ConeSearchPaged performs a Cone Search in pages of pageSize rows
// (MAXREC/OFFSET) and returns the merged table. The server slices one
// globally sorted hit list, so the merged table is byte-identical to an
// unpaged ConeSearch while each HTTP response — and the server-side table
// build — stays bounded by pageSize. pageSize <= 0 falls back to the
// unpaged protocol.
func ConeSearchPaged(hc *http.Client, base string, pos wcs.SkyCoord, sr float64, pageSize int) (*votable.Table, error) {
	if pageSize <= 0 {
		return ConeSearch(hc, base, pos, sr)
	}
	var merged *votable.Table
	for offset := 0; ; offset += pageSize {
		page, err := getVOTable(hc, conePageURL(base, pos, sr, offset, pageSize))
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = page
		} else {
			merged.Rows = append(merged.Rows, page.Rows...)
		}
		if page.NumRows() < pageSize {
			return merged, nil
		}
	}
}

// ConeSearchRows streams a paged Cone Search row by row: fn sees the table
// metadata plus each row's cells, in the same global order ConeSearch
// returns, without the client ever holding a page table in memory. cells is
// only valid for the duration of the call. pageSize <= 0 streams one
// unpaged response.
func ConeSearchRows(hc *http.Client, base string, pos wcs.SkyCoord, sr float64, pageSize int, fn func(meta *votable.TableMeta, cells []string) error) error {
	if pageSize <= 0 {
		u := fmt.Sprintf("%s?RA=%s&DEC=%s&SR=%s", base,
			url.QueryEscape(votable.FormatFloat(pos.RA)),
			url.QueryEscape(votable.FormatFloat(pos.Dec)),
			url.QueryEscape(votable.FormatFloat(sr)))
		_, err := getVOTableRows(hc, u, fn)
		return err
	}
	for offset := 0; ; offset += pageSize {
		n, err := getVOTableRows(hc, conePageURL(base, pos, sr, offset, pageSize), fn)
		if err != nil {
			return err
		}
		if n < pageSize {
			return nil
		}
	}
}

func conePageURL(base string, pos wcs.SkyCoord, sr float64, offset, maxrec int) string {
	return fmt.Sprintf("%s?RA=%s&DEC=%s&SR=%s&MAXREC=%d&OFFSET=%d", base,
		url.QueryEscape(votable.FormatFloat(pos.RA)),
		url.QueryEscape(votable.FormatFloat(pos.Dec)),
		url.QueryEscape(votable.FormatFloat(sr)),
		maxrec, offset)
}

// getVOTableRows fetches u and decodes the response incrementally through
// votable.DecodeRows, returning the number of rows seen.
func getVOTableRows(hc *http.Client, u string, fn func(meta *votable.TableMeta, cells []string) error) (int, error) {
	resp, err := hc.Get(u)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, fmt.Errorf("services: GET %s: status %d: %s", u, resp.StatusCode, body)
	}
	n := 0
	err = votable.DecodeRows(resp.Body, nil, func(meta *votable.TableMeta, cells []string) error {
		n++
		return fn(meta, cells)
	})
	return n, err
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
// and parses the image references.
func SIAQuery(hc *http.Client, base string, pos wcs.SkyCoord, sizeDeg float64) ([]SIARecord, error) {
	u := fmt.Sprintf("%s?POS=%s,%s&SIZE=%s", base,
		url.QueryEscape(votable.FormatFloat(pos.RA)),
		url.QueryEscape(votable.FormatFloat(pos.Dec)),
		url.QueryEscape(votable.FormatFloat(sizeDeg)))
	t, err := getVOTable(hc, u)
	if err != nil {
		return nil, err
	}
	return siaRecords(nil, t), nil
}

// SIAQueryPaged performs an SIA request in pages of pageSize rows
// (MAXREC/OFFSET) and returns the merged record list, identical to an
// unpaged SIAQuery while each response stays bounded by pageSize.
// pageSize <= 0 falls back to the unpaged protocol.
func SIAQueryPaged(hc *http.Client, base string, pos wcs.SkyCoord, sizeDeg float64, pageSize int) ([]SIARecord, error) {
	if pageSize <= 0 {
		return SIAQuery(hc, base, pos, sizeDeg)
	}
	var out []SIARecord
	for offset := 0; ; offset += pageSize {
		u := fmt.Sprintf("%s?POS=%s,%s&SIZE=%s&MAXREC=%d&OFFSET=%d", base,
			url.QueryEscape(votable.FormatFloat(pos.RA)),
			url.QueryEscape(votable.FormatFloat(pos.Dec)),
			url.QueryEscape(votable.FormatFloat(sizeDeg)),
			pageSize, offset)
		t, err := getVOTable(hc, u)
		if err != nil {
			return nil, err
		}
		out = siaRecords(out, t)
		if t.NumRows() < pageSize {
			return out, nil
		}
	}
}

// siaRecords appends t's rows to dst as parsed SIA records.
func siaRecords(dst []SIARecord, t *votable.Table) []SIARecord {
	for i := 0; i < t.NumRows(); i++ {
		ra, _ := t.Float(i, "ra")
		dec, _ := t.Float(i, "dec")
		n1, _ := t.Int(i, "naxis1")
		n2, _ := t.Int(i, "naxis2")
		dst = append(dst, SIARecord{
			Title:  t.Cell(i, "title"),
			Pos:    wcs.New(ra, dec),
			Naxis1: int(n1),
			Naxis2: int(n2),
			Format: t.Cell(i, "format"),
			AcRef:  t.Cell(i, "acref"),
		})
	}
	return dst
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
	return votable.ReadTable(resp.Body)
}

// FetchFITS downloads and decodes a FITS image (an SIA acref dereference).
func FetchFITS(hc *http.Client, u string) (*fits.Image, error) {
	resp, err := hc.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("services: GET %s: status %d: %s", u, resp.StatusCode, body)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return fits.Decode(bytes.NewReader(data))
}
