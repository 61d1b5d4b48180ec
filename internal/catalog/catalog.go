// Package catalog implements an in-memory astronomical source catalog that
// can be searched by sky cone, the query model of the NVO Cone Search
// protocol. It backs the simulated archives (NED, CNOC, DSS catalogs of the
// paper's Table 1) that the data services in internal/services expose over
// HTTP.
//
// Records carry a stable identifier, a sky position, and an ordered set of
// named properties (magnitudes, redshifts, colors...). A declination-band
// index keeps cone searches sublinear for the catalog sizes the prototype
// handles (10^4–10^6 sources).
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/votable"
	"repro/internal/wcs"
)

// Record is one catalog source.
type Record struct {
	ID    string
	Pos   wcs.SkyCoord
	Props map[string]string
}

// Prop returns a property value or "".
func (r Record) Prop(name string) string { return r.Props[name] }

// Catalog is a cone-searchable collection of records. It is safe for
// concurrent use.
type Catalog struct {
	name  string
	cols  []string // property column order for table export
	mu    sync.RWMutex
	byID  map[string]int
	recs  []Record
	bands [][]int // record indices per declination band
}

// bandWidthDeg is the declination band granularity of the spatial index.
const bandWidthDeg = 1.0

// numBands covers declinations [-90, +90].
const numBands = int(180/bandWidthDeg) + 1

// ErrDuplicateID reports insertion of an already-present identifier.
var ErrDuplicateID = errors.New("catalog: duplicate record ID")

// New returns an empty catalog. cols fixes the property column order used
// when exporting to VOTable; properties not listed are not exported.
func New(name string, cols ...string) *Catalog {
	return &Catalog{
		name:  name,
		cols:  cols,
		byID:  make(map[string]int),
		bands: make([][]int, numBands),
	}
}

// Name returns the catalog name.
func (c *Catalog) Name() string { return c.name }

// Columns returns the exported property column names.
func (c *Catalog) Columns() []string { return append([]string(nil), c.cols...) }

// Len returns the number of records.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.recs)
}

func bandOf(dec float64) int {
	b := int((dec + 90) / bandWidthDeg)
	if b < 0 {
		b = 0
	}
	if b >= numBands {
		b = numBands - 1
	}
	return b
}

// Add inserts a record. IDs must be unique.
func (c *Catalog) Add(r Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byID[r.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateID, r.ID)
	}
	if r.Props == nil {
		r.Props = map[string]string{}
	}
	idx := len(c.recs)
	c.recs = append(c.recs, r)
	c.byID[r.ID] = idx
	b := bandOf(r.Pos.Dec)
	c.bands[b] = append(c.bands[b], idx)
	return nil
}

// Get returns the record with the given ID.
func (c *Catalog) Get(id string) (Record, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.byID[id]
	if !ok {
		return Record{}, false
	}
	return c.recs[i], true
}

// hit is an index into recs plus its angular separation from a search
// center — the unit the cone-search index works in so sorting and paging
// never copy Records around.
type hit struct {
	idx int
	sep float64
}

// coneHits returns the sorted hit list for a cone. Callers must hold at
// least a read lock.
func (c *Catalog) coneHits(center wcs.SkyCoord, radiusDeg float64) []hit {
	if radiusDeg < 0 {
		return nil
	}
	loBand := bandOf(center.Dec - radiusDeg)
	hiBand := bandOf(center.Dec + radiusDeg)

	var hits []hit
	for b := loBand; b <= hiBand; b++ {
		for _, i := range c.bands[b] {
			if sep := center.Separation(c.recs[i].Pos); sep <= radiusDeg {
				hits = append(hits, hit{i, sep})
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].sep != hits[j].sep {
			return hits[i].sep < hits[j].sep
		}
		return c.recs[hits[i].idx].ID < c.recs[hits[j].idx].ID
	})
	return hits
}

// ConeSearch returns all records within radiusDeg of center, sorted by
// increasing angular separation (ties broken by ID for determinism).
func (c *Catalog) ConeSearch(center wcs.SkyCoord, radiusDeg float64) []Record {
	recs, _ := c.ConeSearchPage(center, radiusDeg, 0, -1)
	return recs
}

// ConeSearchVisit streams the cone-search hits in the same deterministic
// (separation, ID) order as ConeSearch without materializing the record
// slice; iteration stops early when fn returns false. fn must not mutate
// the catalog (the read lock is held across calls).
func (c *Catalog) ConeSearchVisit(center wcs.SkyCoord, radiusDeg float64, fn func(rec Record, sepDeg float64) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, h := range c.coneHits(center, radiusDeg) {
		if !fn(c.recs[h.idx], h.sep) {
			return
		}
	}
}

// ConeSearchPage returns the [offset, offset+limit) slice of the full
// sorted cone-search hit list plus the total hit count, so paged services
// can bound each response while keeping the global deterministic order. A
// negative limit means "to the end".
func (c *Catalog) ConeSearchPage(center wcs.SkyCoord, radiusDeg float64, offset, limit int) ([]Record, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	hits := c.coneHits(center, radiusDeg)
	total := len(hits)
	if offset < 0 {
		offset = 0
	}
	if offset >= total {
		return nil, total
	}
	end := total
	if limit >= 0 && offset+limit < end {
		end = offset + limit
	}
	out := make([]Record, 0, end-offset)
	for _, h := range hits[offset:end] {
		out = append(out, c.recs[h.idx])
	}
	return out, total
}

// All returns every record in insertion order.
func (c *Catalog) All() []Record {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]Record(nil), c.recs...)
}

// Visit calls fn for every record in insertion order, stopping early when
// fn returns false. It is the copy-free alternative to All; fn must not
// mutate the catalog (the read lock is held across calls).
func (c *Catalog) Visit(fn func(Record) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, r := range c.recs {
		if !fn(r) {
			return
		}
	}
}

// standard field declarations for exported tables.
var baseFields = []votable.Field{
	{Name: "id", Datatype: votable.TypeChar, UCD: "meta.id;meta.main"},
	{Name: "ra", Datatype: votable.TypeDouble, Unit: "deg", UCD: "pos.eq.ra"},
	{Name: "dec", Datatype: votable.TypeDouble, Unit: "deg", UCD: "pos.eq.dec"},
}

// TableMeta returns the VOTable metadata ToVOTable would emit — the field
// declarations a streaming producer hands to a votable.Encoder before
// streaming rows built with AppendRowCells.
func (c *Catalog) TableMeta() votable.TableMeta {
	fields := append([]votable.Field(nil), baseFields...)
	for _, col := range c.cols {
		fields = append(fields, votable.Field{Name: col, Datatype: votable.TypeChar})
	}
	return votable.TableMeta{Name: c.name, Fields: fields}
}

// AppendRowCells appends rec's exported cells (id, ra, dec, then the
// property columns) to dst and returns the extended slice, so streaming
// producers can reuse one scratch row across a whole survey.
func (c *Catalog) AppendRowCells(dst []string, r Record) []string {
	dst = append(dst, r.ID, formatDeg(r.Pos.RA), formatDeg(r.Pos.Dec))
	for _, col := range c.cols {
		dst = append(dst, r.Props[col])
	}
	return dst
}

// ToVOTable renders records as a VOTable with columns id, ra, dec followed by
// the catalog's property columns, its rows made by one votable.RowBuilder.
func (c *Catalog) ToVOTable(recs []Record) *votable.Table {
	meta := c.TableMeta()
	t := votable.NewTable(c.name, meta.Fields...)
	b := votable.NewRowBuilder(len(meta.Fields), len(recs))
	for _, r := range recs {
		c.appendRow(b, r)
	}
	t.Rows = b.Rows()
	return t
}

// appendRow appends rec's cells to b: the cells AppendRowCells gives, with
// no string of their own.
//
//nvo:hotpath
func (c *Catalog) appendRow(b *votable.RowBuilder, r Record) {
	b.Text(r.ID)
	b.Fixed(r.Pos.RA, degDecimals)
	b.Fixed(r.Pos.Dec, degDecimals)
	for _, col := range c.cols {
		b.Text(r.Props[col])
	}
}

// FromVOTable loads records from a table with id/ra/dec columns; every other
// column becomes a property. It is the inverse of ToVOTable.
func FromVOTable(name string, t *votable.Table) (*Catalog, error) {
	idCol := t.ColumnIndex("id")
	raCol := t.ColumnIndex("ra")
	decCol := t.ColumnIndex("dec")
	if idCol < 0 || raCol < 0 || decCol < 0 {
		return nil, errors.New("catalog: table must have id, ra and dec columns")
	}
	var props []string
	for i, f := range t.Fields {
		if i != idCol && i != raCol && i != decCol {
			props = append(props, f.Name)
		}
	}
	c := New(name, props...)
	for i := range t.Rows {
		ra, okRA := t.Float(i, "ra")
		dec, okDec := t.Float(i, "dec")
		if !okRA || !okDec {
			return nil, fmt.Errorf("catalog: row %d has unparsable position", i)
		}
		rec := Record{ID: t.Rows[i][idCol], Pos: wcs.New(ra, dec), Props: map[string]string{}}
		for j, f := range t.Fields {
			if j == idCol || j == raCol || j == decCol {
				continue
			}
			rec.Props[f.Name] = t.Rows[i][j]
		}
		if err := c.Add(rec); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// degDecimals is the precision of an exported position, formatDeg's.
const degDecimals = 7

func formatDeg(v float64) string {
	// 7 decimals ≈ 0.4 milliarcsec: far below any pixel scale in play.
	return trimZeros(fmt.Sprintf("%.7f", v))
}

func trimZeros(s string) string {
	i := len(s)
	for i > 0 && s[i-1] == '0' {
		i--
	}
	if i > 0 && s[i-1] == '.' {
		i--
	}
	if i == 0 {
		return "0"
	}
	return s[:i]
}
