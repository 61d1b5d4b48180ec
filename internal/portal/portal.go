// Package portal implements the user-facing web portal of the paper's §4.2
// (Figure 5), the piece STScI hosted: the user picks a galaxy cluster from
// an internal list; the portal looks up the cluster's position, searches the
// optical and X-ray image archives through SIA for large-scale images,
// builds the galaxy catalog by querying Cone Search services and merging
// their tables, attaches cutout references from the image cutout service,
// ships the combined VOTable to the Grid compute service, polls the returned
// status URL until "job completed", and merges the computed morphology
// columns back into the catalog.
//
// The portal operates synchronously toward its user ("waiting until all
// processing is done before returning the results page"), with the cached
// image-search option the paper describes.
package portal

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/httpclient"
	"sort"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/services"
	"repro/internal/votable"
	"repro/internal/wcs"
	"repro/internal/workpool"
)

// ClusterEntry is one row of the portal's internal cluster catalog.
type ClusterEntry struct {
	Name     string
	Center   wcs.SkyCoord
	Redshift float64
	// SearchRadiusDeg bounds the catalog cone search (default 0.5).
	SearchRadiusDeg float64
}

// Config wires the portal to the NVO services.
type Config struct {
	// Clusters is the internal catalog the user selects from.
	Clusters []ClusterEntry
	// ConeServices are Cone Search endpoints (e.g. NED, CNOC); the first
	// is the primary catalog, later ones contribute extra columns via a
	// left join on the id column.
	ConeServices []string
	// SIAServices are large-scale image endpoints (DSS, ROSAT, Chandra).
	SIAServices []string
	// CutoutService is the SIA cutout endpoint supplying per-galaxy acrefs.
	CutoutService string
	// ComputeService is the morphology web service base URL.
	ComputeService string

	HTTPClient *http.Client
	// PollInterval is the status-URL polling period (default 10ms; the
	// real portal used seconds, but model time is decoupled from wall
	// time here).
	PollInterval time.Duration
	// PollTimeout bounds how long Analyze waits (default 60s).
	PollTimeout time.Duration
	// CacheImageSearch enables the cached image-search results option.
	CacheImageSearch bool
	// Retry is applied to every archive call (cone, SIA, cutout). The zero
	// value means up to 3 attempts with default backoff; set MaxAttempts: 1
	// for the classic fail-fast portal.
	Retry resilience.Policy
	// Breakers, when set, short-circuits calls to archives whose
	// (endpoint, operation) circuit is open and records every outcome; nil
	// disables circuit breaking.
	Breakers *resilience.Registry
	// PageSize, when positive, fetches every cone and SIA response in pages
	// of at most PageSize rows (the MAXREC/OFFSET paging protocol), keeping
	// each archive response — and the archives' own table builds — bounded
	// at survey scale. Pages are merged client-side in the services' global
	// result order, so catalogs, reports and science output stay
	// byte-identical to the unpaged path. Zero keeps the classic
	// one-response-per-query protocol.
	PageSize int
	// Priority is the fabric scheduling class the portal stamps on every
	// compute submission (higher classes run first and, on a
	// preemption-enabled fabric, may checkpoint-preempt lower ones). Zero is
	// the default class. The HTML UI accepts a per-request ?priority=
	// override on /analyze and /start.
	Priority int
	// MaxParallelQueries bounds how many archive calls (cone searches, SIA
	// image searches, the cutout query) one portal operation issues
	// concurrently. The archives are independent services, so the fan-out
	// hides their latencies behind each other; results are always merged in
	// configuration order, so tables, degradation records and science output
	// are identical to a serial build. Default 4; 1 restores the fully
	// sequential portal.
	MaxParallelQueries int
	// Now is the clock behind the phase timings and the poll deadline.
	// The default is the wall clock — the portal is the human-facing
	// client, so real elapsed time is its observable — but tests and
	// replay harnesses inject a fake to make timing-dependent behaviour
	// (poll timeouts) deterministic.
	Now func() time.Time
	// Sleep paces status polling; default time.Sleep, injectable for the
	// same reason as Now.
	Sleep func(time.Duration)
}

// Degradation records one archive the portal proceeded without: a secondary
// catalog or image service that stayed down through the retry policy, whose
// columns or images are simply missing from the results page.
type Degradation struct {
	Service string // endpoint URL
	Op      string // "cone" or "sia"
	Err     string
}

// ErrCircuitOpen marks calls refused because the endpoint's circuit is open.
var ErrCircuitOpen = errors.New("portal: circuit open")

// callService runs one archive call under the retry policy and the circuit
// breaker for (endpoint, op).
func (p *Portal) callService(endpoint, op string, fn func() error) error {
	if !p.cfg.Breakers.Allow(endpoint, op) {
		return fmt.Errorf("%w: %s %s", ErrCircuitOpen, op, endpoint)
	}
	res := resilience.Retry(p.cfg.Retry, func() error {
		err := fn()
		p.cfg.Breakers.Record(endpoint, op, err)
		return err
	})
	return res.Err
}

// Portal is the application portal.
type Portal struct {
	cfg Config

	mu         sync.Mutex
	imageCache map[string][]services.SIARecord
	jobs       map[string]*jobRecord
	nextJob    int
}

// Errors returned by portal operations.
var (
	ErrUnknownCluster = errors.New("portal: unknown cluster")
	ErrNoCatalog      = errors.New("portal: catalog services returned no galaxies")
	ErrComputeFailed  = errors.New("portal: compute service failed")
	ErrTimeout        = errors.New("portal: compute service timed out")
)

// New builds a portal.
func New(cfg Config) (*Portal, error) {
	if len(cfg.Clusters) == 0 {
		return nil, errors.New("portal: need at least one cluster")
	}
	if len(cfg.ConeServices) == 0 || cfg.CutoutService == "" || cfg.ComputeService == "" {
		return nil, errors.New("portal: cone, cutout and compute services are required")
	}
	if cfg.HTTPClient == nil {
		// All archive traffic shares one pooled client, so sequential cone,
		// SIA and cutout calls to the same host reuse keep-alive connections.
		cfg.HTTPClient = httpclient.Shared()
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = 60 * time.Second
	}
	if cfg.MaxParallelQueries <= 0 {
		cfg.MaxParallelQueries = 4
	}
	if cfg.Now == nil {
		//nvolint:ignore noclock the portal is the wall-clock boundary: it reports real elapsed time to a human and is never replayed
		cfg.Now = time.Now
	}
	if cfg.Sleep == nil {
		//nvolint:ignore noclock default poll pacing for the live portal; tests inject a no-op Sleep
		cfg.Sleep = time.Sleep
	}
	return &Portal{cfg: cfg, imageCache: map[string][]services.SIARecord{}}, nil
}

// Clusters lists the selectable clusters, sorted by name.
func (p *Portal) Clusters() []ClusterEntry {
	out := append([]ClusterEntry(nil), p.cfg.Clusters...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Cluster resolves a cluster by name.
func (p *Portal) Cluster(name string) (ClusterEntry, error) {
	for _, c := range p.cfg.Clusters {
		if c.Name == name {
			if c.SearchRadiusDeg <= 0 {
				c.SearchRadiusDeg = 0.5
			}
			return c, nil
		}
	}
	return ClusterEntry{}, fmt.Errorf("%w: %q", ErrUnknownCluster, name)
}

// FindImages queries every SIA service for large-scale images of the
// cluster and returns the combined references ("links to these images are
// returned to the user"). With CacheImageSearch set, repeated searches for
// the same cluster are served from memory. Image services that stay down
// through the retry policy degrade silently; use FindImagesReport to see
// which were skipped.
func (p *Portal) FindImages(cluster string) ([]services.SIARecord, error) {
	recs, _, err := p.FindImagesReport(cluster)
	return recs, err
}

// FindImagesReport is FindImages plus the list of image services the search
// proceeded without. Partial results are cached only when no service
// degraded, so a recovered archive's images reappear on the next search.
func (p *Portal) FindImagesReport(cluster string) ([]services.SIARecord, []Degradation, error) {
	entry, err := p.Cluster(cluster)
	if err != nil {
		return nil, nil, err
	}
	if p.cfg.CacheImageSearch {
		p.mu.Lock()
		cached, hit := p.imageCache[cluster]
		p.mu.Unlock()
		if hit {
			return append([]services.SIARecord(nil), cached...), nil, nil
		}
	}
	// Query every image archive concurrently (they are independent
	// services), then merge in configuration order so the combined record
	// list and the degradation report are identical to a serial search.
	results := make([][]services.SIARecord, len(p.cfg.SIAServices))
	errs := make([]error, len(p.cfg.SIAServices))
	workpool.Run(p.cfg.MaxParallelQueries, len(p.cfg.SIAServices), func(i int) {
		base := p.cfg.SIAServices[i]
		errs[i] = p.callService(base, "sia", func() error {
			var e error
			results[i], e = services.SIAQuery(p.cfg.HTTPClient, base, entry.Center, 2*entry.SearchRadiusDeg, p.cfg.PageSize)
			return e
		})
	})
	var all []services.SIARecord
	var degraded []Degradation
	for i, base := range p.cfg.SIAServices {
		if errs[i] != nil {
			degraded = append(degraded, Degradation{Service: base, Op: "sia", Err: errs[i].Error()})
			continue
		}
		all = append(all, results[i]...)
	}
	if p.cfg.CacheImageSearch && len(degraded) == 0 {
		p.mu.Lock()
		p.imageCache[cluster] = append([]services.SIARecord(nil), all...)
		p.mu.Unlock()
	}
	return all, degraded, nil
}

// BuildCatalog constructs the cluster's galaxy catalog: the primary cone
// search supplies the base table; additional cone services contribute
// columns via a left join on id; the cutout service's references are merged
// in as the acref column. Secondary catalogs that stay down degrade
// silently; use BuildCatalogReport to see which were skipped.
func (p *Portal) BuildCatalog(cluster string) (*votable.Table, error) {
	tab, _, err := p.BuildCatalogReport(cluster)
	return tab, err
}

// BuildCatalogReport is BuildCatalog plus the list of secondary catalog
// services the build proceeded without. The primary cone search and the
// cutout service are load-bearing — without the base table or the image
// references there is nothing to compute — so their failure (after the
// retry policy) fails the build; secondary cone services only narrow the
// joined columns.
func (p *Portal) BuildCatalogReport(cluster string) (*votable.Table, []Degradation, error) {
	entry, err := p.Cluster(cluster)
	if err != nil {
		return nil, nil, err
	}
	// Every archive query of the build — the primary cone search, the
	// secondary cone searches, and the cutout SIA query — targets an
	// independent service, so all of them fan out together; the joins below
	// run in configuration order, which keeps the catalog columns and the
	// degradation report byte-identical to a serial build.
	nCone := len(p.cfg.ConeServices)
	tables := make([]*votable.Table, nCone)
	errs := make([]error, nCone+1)
	var cuts []services.SIARecord
	workpool.Run(p.cfg.MaxParallelQueries, nCone+1, func(i int) {
		if i < nCone {
			svc := p.cfg.ConeServices[i]
			errs[i] = p.callService(svc, "cone", func() error {
				var e error
				tables[i], e = services.ConeSearch(p.cfg.HTTPClient, svc, entry.Center, entry.SearchRadiusDeg, p.cfg.PageSize)
				return e
			})
			return
		}
		errs[nCone] = p.callService(p.cfg.CutoutService, "sia", func() error {
			var e error
			cuts, e = services.SIAQuery(p.cfg.HTTPClient, p.cfg.CutoutService, entry.Center, 2*entry.SearchRadiusDeg, p.cfg.PageSize)
			return e
		})
	})

	// The primary cone search is load-bearing; its failure fails the build.
	primary := p.cfg.ConeServices[0]
	if errs[0] != nil {
		return nil, nil, fmt.Errorf("portal: cone %s: %w", primary, errs[0])
	}
	base := tables[0]
	if base.NumRows() == 0 {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoCatalog, cluster)
	}
	base.Name = cluster

	// Fold in additional catalogs (the "integrating heterogeneous tabular
	// data" requirement): left join keeps galaxies missing from the
	// secondary catalogs.
	var degraded []Degradation
	for i, svc := range p.cfg.ConeServices[1:] {
		if err := errs[i+1]; err != nil {
			degraded = append(degraded, Degradation{Service: svc, Op: "cone", Err: err.Error()})
			continue
		}
		joined, err := votable.LeftJoin(base, tables[i+1], "id", "id")
		if err != nil {
			return nil, nil, err
		}
		joined.Name = cluster
		base = joined
	}

	// Attach cutout references. The SIA cutout protocol returns one row
	// per galaxy; merge its acref by galaxy id (the title column carries
	// the id in our cutout service). Like the primary cone, the cutout
	// service is load-bearing.
	if err := errs[nCone]; err != nil {
		return nil, nil, fmt.Errorf("portal: cutout SIA: %w", err)
	}
	acrefOf := make(map[string]string, len(cuts))
	for _, c := range cuts {
		acrefOf[c.Title] = c.AcRef
	}
	base.AddColumn(votable.Field{Name: "acref", Datatype: votable.TypeChar,
		UCD: "VOX:Image_AccessReference"}, func(i int) string {
		return p.absoluteCutoutURL(acrefOf[base.Cell(i, "id")])
	})
	return base, degraded, nil
}

// absoluteCutoutURL resolves a relative acref against the cutout service.
func (p *Portal) absoluteCutoutURL(acref string) string {
	if acref == "" {
		return ""
	}
	if len(acref) > 0 && acref[0] == '/' {
		// Strip the /siacut path to the service root.
		base := p.cfg.CutoutService
		for i := len(base) - 1; i >= 0; i-- {
			if base[i] == '/' {
				return base[:i] + acref
			}
		}
	}
	return acref
}
