package core

import (
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"time"

	"repro/internal/condor"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gridftp"
	"repro/internal/httpclient"
	"repro/internal/myproxy"
	"repro/internal/portal"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/rls"
	"repro/internal/services"
	"repro/internal/skysim"
	"repro/internal/tableops"
	"repro/internal/tcat"
	"repro/internal/webservice"
)

// Virtual host names of the testbed's services, mirroring the institutions
// of the paper's deployment.
const (
	HostMAST     = "mast.nvo"     // DSS images + cutouts + cone search (STScI)
	HostNED      = "ned.nvo"      // secondary catalog (IPAC)
	HostHEASARC  = "heasarc.nvo"  // X-ray images (ROSAT/Chandra stand-in)
	HostCompute  = "compute.isi"  // Pegasus web service (ISI)
	HostRLS      = "rls.isi"      // replica location service front-end
	HostRegistry = "registry.nvo" // resource registry (§5 future work)
	HostTableOps = "tableops.nvo" // generic VOTable operations (§5 future work)
)

// Config parameterizes a testbed. The compute service and the portal are
// configured through their own Config types, carried as overlays: NewTestbed
// starts from Compute and Portal and fills in only what the testbed owns —
// the Grid substrate it builds (RLS, transformation catalog, GridFTP, the
// image cache site, the in-process HTTP client),
// the portal's service endpoints and cluster list, the seed, and the
// breakers, retry policy and proxy that Resilience and RequireProxy select.
// An overlay that sets one of those fields is refused with its name.
type Config struct {
	// ClusterSpecs generate the sky. Defaults to skysim.StandardClusters()
	// truncated to the first two (keep the default light).
	ClusterSpecs []skysim.Spec
	// Seed drives all randomness.
	Seed int64
	// Faults, when set, is installed on every fault point of the testbed:
	// GridFTP transfers, both archives' HTTP endpoints, RLS lookups and
	// registrations, and — unless Compute.FaultsFor supplies per-workflow
	// injectors — Condor job execution inside the compute service. Nil runs
	// fault-free at zero cost.
	Faults *faults.Injector
	// Resilience enables the retry/backoff/circuit-breaker stack: the
	// portal retries archive calls and degrades gracefully, the compute
	// service fails transfers over to other RLS replicas (set
	// Compute.MirrorSite to give every cached image a second replica). The
	// shared breaker registry is exposed as Testbed.Breakers.
	Resilience bool
	// RequireProxy gates the compute service behind a MyProxy credential
	// (§4.3.1 item 5); the testbed delegates one for user "nvoportal".
	RequireProxy bool
	// UseRegistryDiscovery makes the portal discover its services from the
	// resource registry instead of hard-coded endpoints (§5 future work).
	UseRegistryDiscovery bool

	// Compute overlays the compute service's configuration. Fabric
	// defaults to a permissive fabric over DefaultPools(); the testbed
	// registers the fabric's pools as transformation-catalog sites.
	// MaxRetries is taken as given: zero runs every DAGMan job once.
	Compute webservice.Config
	// Portal overlays the portal's configuration.
	Portal portal.Config

	// Workers, WaveSize, JournalDir and PageSize are shorthands for
	// Compute.Workers, Compute.WaveSize, Compute.JournalDir and
	// Portal.PageSize; setting a shorthand and its overlay field both is an
	// error. They remain because the benchmark harness sets them; once it
	// moves onto the overlays (ROADMAP item 1) they can be deleted.
	Workers    int
	WaveSize   int
	JournalDir string
	PageSize   int
}

// Testbed is the fully wired end-to-end system.
type Testbed struct {
	Clusters []*skysim.Cluster
	MAST     *services.Archive
	NED      *services.Archive

	RLS *rls.RLS
	TC  *tcat.Catalog
	FTP *gridftp.Service

	Registry *registry.Registry
	MyProxy  *myproxy.Repository

	Compute *webservice.Service
	Portal  *portal.Portal

	// Breakers is the circuit-breaker registry shared by the portal and the
	// compute service; nil unless Config.Resilience is set.
	Breakers *resilience.Registry

	// Client routes the virtual hosts in-process; every component uses it.
	Client *http.Client
}

// MyProxyUser and MyProxyPass are the delegation the testbed installs when
// RequireProxy is set.
const (
	MyProxyUser = "nvoportal"
	MyProxyPass = "nvo-demo-pass"
)

// DefaultPools are the paper's three Condor pools with plausible 2003-era
// sizes.
func DefaultPools() []condor.Pool {
	return []condor.Pool{
		{Name: "usc", Slots: 20},
		{Name: "wisc", Slots: 30},
		{Name: "fnal", Slots: 20},
	}
}

// NewTestbed generates the sky and wires every service together.
func NewTestbed(cfg Config) (*Testbed, error) {
	if len(cfg.ClusterSpecs) == 0 {
		cfg.ClusterSpecs = skysim.StandardClusters()[:2]
	}

	tb := &Testbed{
		RLS:      rls.New(),
		TC:       tcat.New(),
		FTP:      gridftp.NewService(gridftp.Network{}),
		Registry: registry.New(),
		MyProxy:  myproxy.New(),
	}

	// Sky + archives.
	for _, spec := range cfg.ClusterSpecs {
		tb.Clusters = append(tb.Clusters, skysim.Generate(spec))
	}
	tb.MAST = services.NewArchive("mast", tb.Clusters...)
	tb.NED = services.NewArchive("ned", tb.Clusters...)

	// Install the fault injector on every layer that exposes a fault point.
	if cfg.Faults != nil {
		tb.FTP.SetInjector(cfg.Faults)
		tb.RLS.SetInjector(cfg.Faults)
		tb.MAST.SetInjector(cfg.Faults)
		tb.NED.SetInjector(cfg.Faults)
	}
	if cfg.Resilience {
		tb.Breakers = resilience.NewRegistry(resilience.BreakerConfig{})
	}

	// The fabric, and one transformation-catalog site per pool of it.
	if cfg.Compute.Fabric == nil {
		f, err := fabric.New(fabric.Config{Pools: DefaultPools()})
		if err != nil {
			return nil, err
		}
		cfg.Compute.Fabric = f
	}
	for _, p := range cfg.Compute.Fabric.Pools() {
		if err := tb.TC.Add(tcat.Entry{Transformation: "galMorph", Site: p.Name, Path: "/nvo/bin/galMorph"}); err != nil {
			return nil, err
		}
		if err := tb.TC.Add(tcat.Entry{Transformation: "concatVOT", Site: p.Name, Path: "/nvo/bin/concatVOT"}); err != nil {
			return nil, err
		}
	}

	// HTTP fabric: every virtual host resolves in-process.
	router := hostRouter{}
	tb.Client = httpclient.New(router)

	var proxy func() (myproxy.Proxy, error)
	if cfg.RequireProxy {
		if err := tb.MyProxy.Delegate(MyProxyUser, MyProxyPass,
			"/C=US/O=NVO/CN=Portal Service", 12*time.Hour, time.Hour); err != nil {
			return nil, err
		}
		repo := tb.MyProxy
		proxy = func() (myproxy.Proxy, error) {
			return repo.Retrieve(MyProxyUser, MyProxyPass, time.Hour)
		}
	}
	var bad error // overlay fields the caller set although the testbed owns them
	ws := cfg.Compute
	own(&bad, "Compute.RLS", &ws.RLS, tb.RLS)
	own(&bad, "Compute.TC", &ws.TC, tb.TC)
	own(&bad, "Compute.GridFTP", &ws.GridFTP, tb.FTP)
	own(&bad, "Compute.HTTPClient", &ws.HTTPClient, tb.Client)
	own(&bad, "Compute.Seed", &ws.Seed, cfg.Seed)
	own(&bad, "Compute.Breakers", &ws.Breakers, tb.Breakers)
	own(&bad, "Compute.Proxy", &ws.Proxy, proxy)
	shorthand(&bad, "Compute.Workers", &ws.Workers, cfg.Workers)
	shorthand(&bad, "Compute.WaveSize", &ws.WaveSize, cfg.WaveSize)
	shorthand(&bad, "Compute.JournalDir", &ws.JournalDir, cfg.JournalDir)
	if ws.FaultsFor == nil && cfg.Faults != nil {
		ws.FaultsFor = func(_, _ string) *faults.Injector { return cfg.Faults }
	}
	compute, err := webservice.New(ws)
	if err != nil {
		return nil, err
	}
	tb.Compute = compute

	// Publish every service in the resource registry (§5 future work),
	// whether or not the portal uses discovery — other clients can.
	for _, e := range []registry.Entry{
		{ID: "ivo://mast.nvo/dss-sia", Type: registry.TypeSIA, Title: "Digitized Sky Survey images",
			DataCenter: "MAST", Collection: "DSS", BaseURL: "http://" + HostMAST + "/sia"},
		{ID: "ivo://heasarc.nvo/xray-sia", Type: registry.TypeSIA, Title: "ROSAT/Chandra X-ray images",
			DataCenter: "HEASARC", Collection: "ROSAT", BaseURL: "http://" + HostHEASARC + "/sia"},
		{ID: "ivo://ipac.nvo/ned-cone", Type: registry.TypeConeSearch, Title: "NASA Extragalactic Database",
			DataCenter: "IPAC", Collection: "NED", BaseURL: "http://" + HostNED + "/cone"},
		{ID: "ivo://mast.nvo/dss-cone", Type: registry.TypeConeSearch, Title: "DSS source catalog",
			DataCenter: "MAST", Collection: "DSS", BaseURL: "http://" + HostMAST + "/cone"},
		{ID: "ivo://mast.nvo/cutout", Type: registry.TypeCutout, Title: "DSS image cutout service",
			DataCenter: "MAST", Collection: "DSS", BaseURL: "http://" + HostMAST + "/siacut"},
		{ID: "ivo://isi.nvo/galmorph", Type: registry.TypeCompute, Title: "Galaxy Morphology compute service",
			DataCenter: "ISI", BaseURL: "http://" + HostCompute},
		{ID: "ivo://nvo/tableops", Type: registry.TypeTableOps, Title: "VOTable operations",
			DataCenter: "NVO", BaseURL: "http://" + HostTableOps},
	} {
		if err := tb.Registry.Register(e); err != nil {
			return nil, err
		}
	}

	var entries []portal.ClusterEntry
	for _, c := range tb.Clusters {
		entries = append(entries, portal.ClusterEntry{
			Name:            c.Name,
			Center:          c.Center,
			Redshift:        c.Redshift,
			SearchRadiusDeg: 8*c.CoreRadiusDeg + 0.01,
		})
	}
	archiveHandler := tb.MAST.Handler()
	router[HostMAST] = archiveHandler
	router[HostHEASARC] = archiveHandler // X-ray comes from the same sky
	router[HostNED] = tb.NED.Handler()
	router[HostCompute] = compute.Handler()
	router[HostRLS] = rls.Handler(tb.RLS)
	router[HostRegistry] = registry.Handler(tb.Registry)
	router[HostTableOps] = tableops.Handler()

	endpoints := portal.Config{
		ConeServices:   []string{"http://" + HostNED + "/cone", "http://" + HostMAST + "/cone"},
		SIAServices:    []string{"http://" + HostMAST + "/sia", "http://" + HostHEASARC + "/sia"},
		CutoutService:  "http://" + HostMAST + "/siacut",
		ComputeService: "http://" + HostCompute,
	}
	if cfg.UseRegistryDiscovery {
		regClient := &registry.Client{Base: "http://" + HostRegistry, HTTP: tb.Client}
		if endpoints, err = portal.DiscoverConfig(regClient, entries, tb.Client); err != nil {
			return nil, err
		}
	}
	pc := cfg.Portal
	own(&bad, "Portal.Clusters", &pc.Clusters, entries)
	own(&bad, "Portal.ConeServices", &pc.ConeServices, endpoints.ConeServices)
	own(&bad, "Portal.SIAServices", &pc.SIAServices, endpoints.SIAServices)
	own(&bad, "Portal.CutoutService", &pc.CutoutService, endpoints.CutoutService)
	own(&bad, "Portal.ComputeService", &pc.ComputeService, endpoints.ComputeService)
	own(&bad, "Portal.HTTPClient", &pc.HTTPClient, tb.Client)
	if cfg.Resilience {
		own(&bad, "Portal.Retry", &pc.Retry, resilience.Policy{MaxAttempts: 4, Seed: cfg.Seed})
		own(&bad, "Portal.Breakers", &pc.Breakers, tb.Breakers)
	}
	shorthand(&bad, "Portal.PageSize", &pc.PageSize, cfg.PageSize)
	if bad != nil {
		return nil, bad
	}
	if tb.Portal, err = portal.New(pc); err != nil {
		return nil, err
	}

	return tb, nil
}

// own fills an overlay field the testbed owns with v, and records an error
// naming the field when the caller had set it. NewTestbed reports the errors
// only once both overlays are filled, so one call names every conflict.
func own[T any](bad *error, name string, field *T, v T) {
	if !reflect.ValueOf(field).Elem().IsZero() {
		*bad = errors.Join(*bad, fmt.Errorf("core: Config.%s is set by the testbed or its shorthand; leave it unset", name))
	}
	*field = v
}

// shorthand applies a Config shorthand v, when set, to its overlay field.
func shorthand[T comparable](bad *error, name string, field *T, v T) {
	if v != *new(T) {
		own(bad, name, field, v)
	}
}

// Cluster returns a generated cluster by name.
func (tb *Testbed) Cluster(name string) (*skysim.Cluster, error) {
	for _, c := range tb.Clusters {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, errors.New("core: unknown cluster " + name)
}
