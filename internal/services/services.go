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
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/faults"
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

// CutoutFITS renders the FITS cutout for one galaxy.
func (a *Archive) CutoutFITS(galaxyID string) (*skysim.Galaxy, []byte, error) {
	g, ok := a.Galaxy(galaxyID)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownGalaxy, galaxyID)
	}
	im := skysim.RenderGalaxy(g, 0, seedFor(g.ID))
	bw := &byteWriter{}
	if err := im.Encode(bw); err != nil {
		return nil, nil, err
	}
	return &g, bw.data, nil
}

// byteWriter is a minimal io.Writer accumulating bytes.
type byteWriter struct{ data []byte }

func (w *byteWriter) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

// CutoutBatchFITS renders many cutouts as one concatenated FITS stream —
// the batched interface the paper says would "[speed] up tremendously" the
// one-request-per-galaxy SIA bottleneck (§4.2). FITS files are
// self-delimiting (2880-byte records), so clients decode the stream
// sequentially.
func (a *Archive) CutoutBatchFITS(ids []string) ([]byte, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: empty id list", ErrBadQuery)
	}
	var out []byte
	for _, id := range ids {
		_, data, err := a.CutoutFITS(id)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
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
	bw := &byteWriter{}
	switch band {
	case BandOptical:
		if err := skysim.RenderField(c, npix, npix, scale, seedFor(key)).Encode(bw); err != nil {
			return nil, err
		}
	case BandXRay:
		if err := skysim.RenderXRay(c, npix, npix, scale, seedFor(key)).Encode(bw); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: band %q", ErrBadQuery, band)
	}
	a.mu.Lock()
	a.fieldCache[key] = bw.data
	a.mu.Unlock()
	return bw.data, nil
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
	for _, name := range a.Clusters() {
		c := a.clusters[name]
		reach := sizeDeg/2 + 8*c.CoreRadiusDeg
		if pos.Separation(c.Center) > reach {
			continue
		}
		const npix = 512
		scale := 2 * 8 * c.CoreRadiusDeg / npix
		for _, band := range []Band{BandOptical, BandXRay} {
			_ = t.AppendRow(
				fmt.Sprintf("%s %s image", name, band),
				votable.FormatFloat(c.Center.RA),
				votable.FormatFloat(c.Center.Dec),
				strconv.Itoa(npix), strconv.Itoa(npix),
				votable.FormatFloat(scale),
				"image/fits",
				fmt.Sprintf("/image?cluster=%s&band=%s", name, band),
			)
		}
	}
	return t
}

// SIAQueryCutouts queries the archive's cutout service: one row per galaxy
// within the POS/SIZE region, each with an acref generating that galaxy's
// cutout on demand. This is the interface whose one-request-per-galaxy cost
// the paper identifies as the application's bottleneck (§4.2).
func (a *Archive) SIAQueryCutouts(pos wcs.SkyCoord, sizeDeg float64) *votable.Table {
	return a.SIAQueryCutoutsPage(pos, sizeDeg, 0, -1)
}

// SIAQueryCutoutsPage is SIAQueryCutouts restricted to the
// [offset, offset+maxrec) window of the response rows. Paging is applied
// after the unresolvable-galaxy filter, so consecutive pages concatenate
// into exactly the unpaged table and only the final page comes up short.
// The scan streams over the cone hits and stops as soon as the page is
// full, so a page response never materializes the full survey. A negative
// maxrec means "to the end".
func (a *Archive) SIAQueryCutoutsPage(pos wcs.SkyCoord, sizeDeg float64, offset, maxrec int) *votable.Table {
	t := votable.NewTable(a.name+"_cutouts", SIAFields...)
	if maxrec == 0 {
		return t
	}
	if offset < 0 {
		offset = 0
	}
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
		size := skysim.CutoutSizePx(g)
		_ = t.AppendRow(
			g.ID,
			votable.FormatFloat(g.Pos.RA),
			votable.FormatFloat(g.Pos.Dec),
			strconv.Itoa(size), strconv.Itoa(size),
			votable.FormatFloat(skysim.PixScaleArcsec/3600),
			"image/fits",
			"/cutout?id="+g.ID,
		)
		return maxrec < 0 || t.NumRows() < maxrec
	})
	return t
}
