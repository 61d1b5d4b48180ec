// Package services implements the NVO data-access services of the paper's
// §3.1 over HTTP: the Cone Search protocol for catalog queries and the
// Simple Image Access (SIA) protocol for both large-scale survey images and
// per-galaxy cutouts. An Archive bundles simulated clusters (internal/skysim)
// behind these interfaces, playing the role of the five data centers in the
// paper's Table 1.
//
// Both protocols follow the 2002-era NVO definitions: HTTP GET with
// positional parameters (RA, DEC, SR for cone search; POS, SIZE for SIA),
// responses as VOTable documents, image references delivered as access URLs
// ("acref") the client dereferences to fetch FITS data.
package services

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/faults"
	"repro/internal/fits"
	"repro/internal/skysim"
	"repro/internal/votable"
	"repro/internal/wcs"
)

// Fault-point names checked by the HTTP handler, one per NVO protocol
// surface. Rules select requests by archive name (Site); cutout rules can
// additionally match the galaxy id (Key).
const (
	OpCone   = "archive.cone"
	OpSIA    = "archive.sia"
	OpCutout = "archive.cutout"
)

// Band identifies the wavelength regime of an image collection.
type Band string

// Bands served by the simulated archives.
const (
	BandOptical Band = "optical"
	BandXRay    Band = "xray"
)

// Archive is one simulated data center: a set of clusters exposed through
// Cone Search and SIA.
type Archive struct {
	name     string
	clusters map[string]*skysim.Cluster
	cats     map[string]*catalog.Catalog
	merged   *catalog.Catalog

	mu         sync.Mutex
	fieldCache map[string][]byte // rendered large-scale FITS, keyed name/band
	inj        *faults.Injector
}

// NewArchive bundles clusters into an archive named name.
func NewArchive(name string, clusters ...*skysim.Cluster) *Archive {
	a := &Archive{
		name:       name,
		clusters:   map[string]*skysim.Cluster{},
		cats:       map[string]*catalog.Catalog{},
		merged:     catalog.New(name, "mag", "z", "ew_halpha", "true_type", "cluster"),
		fieldCache: map[string][]byte{},
	}
	for _, c := range clusters {
		a.clusters[c.Name] = c
		a.cats[c.Name] = c.Catalog()
		for _, g := range c.Galaxies {
			// Unique by construction across clusters (IDs embed the name).
			_ = a.merged.Add(catalog.Record{
				ID:  g.ID,
				Pos: g.Pos,
				Props: map[string]string{
					"mag":       fmt.Sprintf("%.2f", g.Mag),
					"z":         fmt.Sprintf("%.5f", g.Redshift),
					"ew_halpha": fmt.Sprintf("%.2f", g.EWHalpha),
					"true_type": g.Type.String(),
					"cluster":   c.Name,
				},
			})
		}
	}
	return a
}

// Name returns the archive name.
func (a *Archive) Name() string { return a.name }

// SetInjector installs (or removes, with nil) the fault injector consulted
// by the HTTP handler's endpoints.
func (a *Archive) SetInjector(in *faults.Injector) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inj = in
}

// injector returns the current injector under the lock.
func (a *Archive) injector() *faults.Injector {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inj
}

// Clusters returns the hosted cluster names, sorted.
func (a *Archive) Clusters() []string {
	out := make([]string, 0, len(a.clusters))
	for n := range a.clusters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Cluster returns a hosted cluster.
func (a *Archive) Cluster(name string) (*skysim.Cluster, bool) {
	c, ok := a.clusters[name]
	return c, ok
}

// Catalog returns the merged catalog across all hosted clusters.
func (a *Archive) Catalog() *catalog.Catalog { return a.merged }

// ConeSearch returns the VOTable of sources within sr degrees of pos —
// the Cone Search protocol's data operation.
func (a *Archive) ConeSearch(pos wcs.SkyCoord, sr float64) *votable.Table {
	return a.ConeSearchPage(pos, sr, 0, -1)
}

// ConeSearchPage is ConeSearch restricted to the [offset, offset+maxrec)
// window of the globally sorted hit list, so survey-scale responses stay
// bounded by the page size. The order is the same deterministic
// (separation, ID) order as ConeSearch: concatenating consecutive pages
// reproduces the unpaged table row for row. A negative maxrec means "to the
// end".
func (a *Archive) ConeSearchPage(pos wcs.SkyCoord, sr float64, offset, maxrec int) *votable.Table {
	recs, _ := a.merged.ConeSearchPage(pos, sr, offset, maxrec)
	return a.merged.ToVOTable(recs)
}

// Galaxy resolves a galaxy ID to its simulation record.
func (a *Archive) Galaxy(id string) (skysim.Galaxy, bool) {
	dash := strings.LastIndexByte(id, '-')
	if dash <= 0 {
		return skysim.Galaxy{}, false
	}
	c, ok := a.clusters[id[:dash]]
	if !ok {
		return skysim.Galaxy{}, false
	}
	return c.Galaxy(id)
}

// errors returned by image operations.
var (
	ErrUnknownGalaxy  = errors.New("services: unknown galaxy")
	ErrUnknownCluster = errors.New("services: unknown cluster")
	ErrBadQuery       = errors.New("services: bad query")
)

// seedFor derives a deterministic noise seed from a galaxy ID so repeated
// cutout requests return bit-identical FITS files (required for caching).
func seedFor(id string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int64(h.Sum64())
}

// framePool recycles the float64 frames cutouts are rendered into. A frame
// is taken for one render and encode (one cutout, or every cutout of a
// batch in turn) and goes back once its bytes are encoded: nothing keeps a
// reference to its pixels or cards past that.
var framePool = sync.Pool{New: func() any { return &fits.Image{} }}

// appendCutout renders g's cutout into a pooled frame and appends its FITS
// encoding to dst.
//
//nvo:hotpath
func appendCutout(dst []byte, g *skysim.Galaxy) ([]byte, error) {
	im := framePool.Get().(*fits.Image)
	defer framePool.Put(im)
	skysim.RenderGalaxyInto(im, g, 0, seedFor(g.ID))
	return im.AppendEncode(dst)
}

// CutoutFITS renders the FITS cutout for one galaxy, encoded into one
// buffer of exactly its length that the caller owns.
//
//nvo:hotpath
func (a *Archive) CutoutFITS(galaxyID string) (*skysim.Galaxy, []byte, error) {
	g, ok := a.Galaxy(galaxyID)
	if !ok {
		return nil, nil, unknownGalaxy(galaxyID)
	}
	data, err := appendCutout(nil, &g)
	if err != nil {
		return nil, nil, err
	}
	return &g, data, nil
}

// unknownGalaxy is the error for a galaxy ID the archive does not hold.
func unknownGalaxy(id string) error {
	return fmt.Errorf("%w: %q", ErrUnknownGalaxy, id)
}

// CutoutBatchFITS renders many cutouts as one concatenated FITS stream —
// the batched interface the paper says would "[speed] up tremendously" the
// one-request-per-galaxy SIA bottleneck (§4.2). FITS files are
// self-delimiting (2880-byte records), so clients decode the stream
// sequentially. Every cutout is rendered into one pooled frame and encoded
// straight into one output buffer, sized before the first encode: all
// cutouts carry the same header cards, so the first one's card count gives
// every cutout's length.
func (a *Archive) CutoutBatchFITS(ids []string) ([]byte, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: empty id list", ErrBadQuery)
	}
	gals := make([]skysim.Galaxy, len(ids))
	for i, id := range ids {
		g, ok := a.Galaxy(id)
		if !ok {
			return nil, unknownGalaxy(id)
		}
		gals[i] = g
	}
	im := framePool.Get().(*fits.Image)
	defer framePool.Put(im)
	var out []byte
	for i := range gals {
		g := &gals[i]
		skysim.RenderGalaxyInto(im, g, 0, seedFor(g.ID))
		if i == 0 {
			total := 0
			for _, other := range gals {
				size := skysim.CutoutSizePx(other)
				total += fits.EncodedLen(im.Header.Len(), size, size, im.Bitpix)
			}
			out = make([]byte, 0, total)
		}
		var err error
		if out, err = im.AppendEncode(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FieldFITS renders (and caches) the large-scale image of a cluster in the
// given band: the optical survey plate or the X-ray surface-brightness map.
func (a *Archive) FieldFITS(cluster string, band Band) ([]byte, error) {
	c, ok := a.clusters[cluster]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCluster, cluster)
	}
	key := cluster + "/" + string(band)
	a.mu.Lock()
	if data, hit := a.fieldCache[key]; hit {
		a.mu.Unlock()
		return data, nil
	}
	a.mu.Unlock()

	const npix = 512
	scale := 2 * 8 * c.CoreRadiusDeg / npix
	var im *fits.Image
	switch band {
	case BandOptical:
		im = skysim.RenderField(c, npix, npix, scale, seedFor(key))
	case BandXRay:
		im = skysim.RenderXRay(c, npix, npix, scale, seedFor(key))
	default:
		return nil, fmt.Errorf("%w: band %q", ErrBadQuery, band)
	}
	data, err := im.AppendEncode(nil)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.fieldCache[key] = data
	a.mu.Unlock()
	return data, nil
}

// SIAFields is the column set of SIA responses.
var SIAFields = []votable.Field{
	{Name: "title", Datatype: votable.TypeChar, UCD: "meta.title"},
	{Name: "ra", Datatype: votable.TypeDouble, Unit: "deg", UCD: "pos.eq.ra"},
	{Name: "dec", Datatype: votable.TypeDouble, Unit: "deg", UCD: "pos.eq.dec"},
	{Name: "naxis1", Datatype: votable.TypeInt},
	{Name: "naxis2", Datatype: votable.TypeInt},
	{Name: "scale", Datatype: votable.TypeDouble, Unit: "deg/pix"},
	{Name: "format", Datatype: votable.TypeChar},
	{Name: "acref", Datatype: votable.TypeChar, UCD: "VOX:Image_AccessReference"},
}

// SIAQueryFields queries the archive for large-scale images overlapping the
// POS/SIZE region and returns one VOTable row per available image. acref
// values are relative URLs under the archive's HTTP root.
func (a *Archive) SIAQueryFields(pos wcs.SkyCoord, sizeDeg float64) *votable.Table {
	t := votable.NewTable(a.name+"_sia", SIAFields...)
	b := votable.NewRowBuilder(len(SIAFields), 2*len(a.clusters))
	for _, name := range a.Clusters() {
		c := a.clusters[name]
		reach := sizeDeg/2 + 8*c.CoreRadiusDeg
		if pos.Separation(c.Center) > reach {
			continue
		}
		const npix = 512
		scale := 2 * 8 * c.CoreRadiusDeg / npix
		for _, band := range []Band{BandOptical, BandXRay} {
			b.Text(name, " ", string(band), " image")
			b.Float(c.Center.RA)
			b.Float(c.Center.Dec)
			b.Int(npix)
			b.Int(npix)
			b.Float(scale)
			b.Text("image/fits")
			b.Text("/image?cluster=", name, "&band=", string(band))
		}
	}
	t.Rows = b.Rows()
	return t
}

// SIAQueryCutoutsPage queries the archive's cutout service: one row per
// galaxy within the POS/SIZE region, each with an acref generating that
// galaxy's cutout on demand — the interface whose one-request-per-galaxy
// cost the paper identifies as the application's bottleneck (§4.2). It
// returns the [offset, offset+maxrec) window of the response rows. Paging
// is applied after the unresolvable-galaxy filter, so consecutive pages
// concatenate into exactly the unpaged table and only the final page comes
// up short. The scan streams over the cone hits and stops as soon as the
// page is full, so a page response never materializes the full survey. A
// negative maxrec means "to the end".
func (a *Archive) SIAQueryCutoutsPage(pos wcs.SkyCoord, sizeDeg float64, offset, maxrec int) *votable.Table {
	t := votable.NewTable(a.name+"_cutouts", SIAFields...)
	if maxrec == 0 {
		return t
	}
	if offset < 0 {
		offset = 0
	}
	// The cone's hits are not known before the scan, so the builder grows
	// with the answer, not with the archive.
	b := votable.NewRowBuilder(len(SIAFields), 0)
	scale := votable.FormatFloat(skysim.PixScaleArcsec / 3600)
	matched := 0
	a.merged.ConeSearchVisit(pos, sizeDeg/2, func(rec catalog.Record, _ float64) bool {
		g, ok := a.Galaxy(rec.ID)
		if !ok {
			return true
		}
		idx := matched
		matched++
		if idx < offset {
			return true
		}
		appendCutoutRow(b, &g, scale)
		return maxrec < 0 || b.NumRows() < maxrec
	})
	t.Rows = b.Rows()
	return t
}

// appendCutoutRow appends g's row of a cutout SIA answer to b; scale is the
// pixel scale cell, the same on every row.
//
//nvo:hotpath
func appendCutoutRow(b *votable.RowBuilder, g *skysim.Galaxy, scale string) {
	size := skysim.CutoutSizePx(*g)
	b.Text(g.ID)
	b.Float(g.Pos.RA)
	b.Float(g.Pos.Dec)
	b.Int(size)
	b.Int(size)
	b.Text(scale)
	b.Text("image/fits")
	b.Text("/cutout?id=", g.ID)
}
