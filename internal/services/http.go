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

	mux.HandleFunc("/cone", a.tableQuery(faults.Op{Name: OpCone, Site: a.name}, parseRADecSR, a.ConeSearchPage))
	mux.HandleFunc("/sia", a.tableQuery(faults.Op{Name: OpSIA, Site: a.name, Key: "sia"}, parsePosSize,
		func(pos wcs.SkyCoord, size float64, offset, maxrec int) *votable.Table {
			return pageOf(a.SIAQueryFields(pos, size), offset, maxrec)
		}))
	mux.HandleFunc("/siacut", a.tableQuery(faults.Op{Name: OpSIA, Site: a.name, Key: "siacut"}, parsePosSize, a.SIAQueryCutoutsPage))

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
	if sr < 0 || dec < -90 || dec > 90 {
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
	if size < 0 || dec < -90 || dec > 90 {
		return wcs.SkyCoord{}, 0, fmt.Errorf("%w: out-of-range POS/SIZE", ErrBadQuery)
	}
	return wcs.New(ra, dec), size, nil
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

func writeVOTable(w http.ResponseWriter, t *votable.Table, corrupt bool) {
	var buf bytes.Buffer
	_ = votable.WriteTable(&buf, t)
	writeBody(w, "text/xml", buf.Bytes(), corrupt)
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

// getPaged fetches the VOTable at u in pages of pageSize rows, stopping
// after the first page that comes up short, and returns the pages merged
// into one table. pageSize <= 0 fetches u as it stands, in one request.
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
		if merged == nil {
			merged = page
		} else {
			merged.Rows = append(merged.Rows, page.Rows...)
		}
		if pageSize <= 0 || page.NumRows() < pageSize {
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
	var out []SIARecord
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
