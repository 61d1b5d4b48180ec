// Package tableops implements the general-purpose VOTable manipulation
// service the paper identifies as missing NVO infrastructure: "Joining is
// one of a few general-purpose VOTable manipulations that should be
// implemented as a generic, external service that could be used by a number
// of different NVO applications" (§4.2), and "a service that could join two
// VOTables on an arbitrary column or manipulate tables in other ways" (§5).
//
// The service accepts VOTable documents over HTTP and returns VOTable
// results:
//
//	POST /join?key_a=id&key_b=id[&mode=left]   body: document with two TABLEs
//	POST /sort?by=col                          body: document with one TABLE
//	POST /filter?col=mag&min=14&max=18         body: document with one TABLE
//	POST /select?cols=id,ra,dec                body: document with one TABLE
package tableops

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"repro/internal/httpclient"
	"repro/internal/votable"
)

// Errors returned by the operations.
var (
	ErrNeedTwoTables = errors.New("tableops: join needs a document with two tables")
	ErrNeedOneTable  = errors.New("tableops: need a document with one table")
	ErrBadParams     = errors.New("tableops: bad parameters")
)

// firstTwoTables extracts the first two tables of a document.
func firstTwoTables(doc *votable.Document) (*votable.Table, *votable.Table, error) {
	var tabs []*votable.Table
	for ri := range doc.Resources {
		for ti := range doc.Resources[ri].Tables {
			tabs = append(tabs, &doc.Resources[ri].Tables[ti])
			if len(tabs) == 2 {
				return tabs[0], tabs[1], nil
			}
		}
	}
	return nil, nil, ErrNeedTwoTables
}

// Join performs the service's join operation on a parsed document.
func Join(doc *votable.Document, keyA, keyB, mode string) (*votable.Table, error) {
	if keyA == "" || keyB == "" {
		return nil, fmt.Errorf("%w: key_a and key_b required", ErrBadParams)
	}
	a, b, err := firstTwoTables(doc)
	if err != nil {
		return nil, err
	}
	switch mode {
	case "", "inner":
		return votable.Join(a, b, keyA, keyB)
	case "left":
		return votable.LeftJoin(a, b, keyA, keyB)
	default:
		return nil, fmt.Errorf("%w: mode %q", ErrBadParams, mode)
	}
}

// Sort sorts the document's table stably, ascending by a numeric column, with
// NaN and unparseable cells last.
func Sort(doc *votable.Document, by string) (*votable.Table, error) {
	t, err := doc.FirstTable()
	if err != nil {
		return nil, ErrNeedOneTable
	}
	out := t.Clone()
	if err := out.SortByFloat(by); err != nil {
		return nil, err
	}
	return out, nil
}

// Filter keeps rows whose numeric column value lies in [min, max]. A NaN
// bound is refused, since every comparison with it is false; the open bounds
// are ±Inf.
func Filter(doc *votable.Document, col string, min, max float64) (*votable.Table, error) {
	t, err := doc.FirstTable()
	if err != nil {
		return nil, ErrNeedOneTable
	}
	if math.IsNaN(min) || math.IsNaN(max) {
		return nil, fmt.Errorf("%w: NaN bound", ErrBadParams)
	}
	if t.ColumnIndex(col) < 0 {
		return nil, fmt.Errorf("%w: no column %q", ErrBadParams, col)
	}
	return t.Filter(func(i int) bool {
		v, ok := t.Float(i, col)
		return ok && v >= min && v <= max
	}), nil
}

// Select projects the table onto the named columns, in the given order,
// keeping its description and PARAMs.
func Select(doc *votable.Document, cols []string) (*votable.Table, error) {
	t, err := doc.FirstTable()
	if err != nil {
		return nil, ErrNeedOneTable
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: cols required", ErrBadParams)
	}
	idx := make([]int, len(cols))
	out := &votable.Table{Name: t.Name, Description: t.Description, Params: slices.Clone(t.Params)}
	for i, c := range cols {
		j := t.ColumnIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("%w: no column %q", ErrBadParams, c)
		}
		idx[i] = j
		out.Fields = append(out.Fields, t.Fields[j])
	}
	for _, row := range t.Rows {
		newRow := make([]string, len(idx))
		for i, j := range idx {
			newRow[i] = row[j]
		}
		out.Rows = append(out.Rows, newRow)
	}
	return out, nil
}

// maxBody caps a request document, as the compute service caps its uploads:
// the 1,000-galaxy survey catalog is about 0.5 MB as a VOTable.
const maxBody = 8 << 20

// Handler exposes the operations over HTTP. A document over maxBody answers
// 413; one that does not parse, 400.
func Handler() http.Handler {
	mux := http.NewServeMux()

	handle := func(path string, op func(*votable.Document, url.Values) (*votable.Table, error)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, req *http.Request) {
			if req.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			doc, err := votable.Read(http.MaxBytesReader(w, req.Body, maxBody))
			if err != nil {
				var tooLarge *http.MaxBytesError
				if errors.As(err, &tooLarge) {
					http.Error(w, fmt.Sprintf("VOTable exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
					return
				}
				http.Error(w, "bad VOTable: "+err.Error(), http.StatusBadRequest)
				return
			}
			out, err := op(doc, req.URL.Query())
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "text/xml")
			_ = votable.WriteTable(w, out)
		})
	}

	handle("/join", func(doc *votable.Document, q url.Values) (*votable.Table, error) {
		return Join(doc, q.Get("key_a"), q.Get("key_b"), q.Get("mode"))
	})
	handle("/sort", func(doc *votable.Document, q url.Values) (*votable.Table, error) {
		return Sort(doc, q.Get("by"))
	})
	handle("/filter", func(doc *votable.Document, q url.Values) (*votable.Table, error) {
		min, max := math.Inf(-1), math.Inf(1)
		if s := q.Get("min"); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: min %q", ErrBadParams, s)
			}
			min = v
		}
		if s := q.Get("max"); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: max %q", ErrBadParams, s)
			}
			max = v
		}
		return Filter(doc, q.Get("col"), min, max)
	})
	handle("/select", func(doc *votable.Document, q url.Values) (*votable.Table, error) {
		var cols []string
		if s := q.Get("cols"); s != "" {
			cols = strings.Split(s, ",")
		}
		return Select(doc, cols)
	})

	return mux
}

// Client invokes a remote tableops service.
type Client struct {
	Base string
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return httpclient.Shared()
}

// Join sends two tables for a server-side join.
func (c *Client) Join(a, b *votable.Table, keyA, keyB, mode string) (*votable.Table, error) {
	doc := &votable.Document{Resources: []votable.Resource{
		{Name: "a", Tables: []votable.Table{*a}},
		{Name: "b", Tables: []votable.Table{*b}},
	}}
	u := fmt.Sprintf("%s/join?key_a=%s&key_b=%s&mode=%s",
		c.Base, url.QueryEscape(keyA), url.QueryEscape(keyB), url.QueryEscape(mode))
	return c.post(u, doc)
}

// Sort sends one table for server-side sorting.
func (c *Client) Sort(t *votable.Table, by string) (*votable.Table, error) {
	return c.postOne(fmt.Sprintf("%s/sort?by=%s", c.Base, url.QueryEscape(by)), t)
}

// Filter sends one table for server-side numeric filtering.
func (c *Client) Filter(t *votable.Table, col string, min, max float64) (*votable.Table, error) {
	return c.postOne(fmt.Sprintf("%s/filter?col=%s&min=%v&max=%v",
		c.Base, url.QueryEscape(col), min, max), t)
}

func (c *Client) postOne(u string, t *votable.Table) (*votable.Table, error) {
	doc := &votable.Document{Resources: []votable.Resource{{Tables: []votable.Table{*t}}}}
	return c.post(u, doc)
}

func (c *Client) post(u string, doc *votable.Document) (*votable.Table, error) {
	var body strings.Builder
	if err := votable.Write(&body, doc); err != nil {
		return nil, err
	}
	resp, err := c.http().Post(u, "text/xml", strings.NewReader(body.String()))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := make([]byte, 256)
		n, _ := resp.Body.Read(msg)
		return nil, fmt.Errorf("tableops: status %d: %s", resp.StatusCode, msg[:n])
	}
	return votable.ReadAnswer(resp.Body, u)
}
