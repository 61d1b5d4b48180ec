package core

import (
	"errors"
	"net/http"
	"time"

	"repro/internal/condor"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gridftp"
	"repro/internal/httpclient"
	"repro/internal/journal"
	"repro/internal/mds"
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

// Config parameterizes a testbed.
type Config struct {
	// ClusterSpecs generate the sky. Defaults to skysim.StandardClusters()
	// truncated to the first two (keep the default light).
	ClusterSpecs []skysim.Spec
	// Pools are the Condor pools; default: the paper's three (USC,
	// Wisconsin, Fermilab).
	Pools []condor.Pool
	// Seed drives all randomness.
	Seed int64
	// StrictFaults selects the rejected fault-tolerance design (A4).
	StrictFaults bool
	// CacheImageSearch enables the portal's image-search cache.
	CacheImageSearch bool
	// UseRegistryDiscovery makes the portal discover its services from the
	// resource registry instead of hard-coded endpoints (§5 future work).
	UseRegistryDiscovery bool
	// RequireProxy gates the compute service behind a MyProxy credential
	// (§4.3.1 item 5); the testbed delegates one for user "nvoportal".
	RequireProxy bool
	// BatchFetch makes the compute service collect galaxy images through
	// the batched cutout interface instead of one request per galaxy.
	BatchFetch bool
	// Workers bounds how many leaf-job side effects the compute service's
	// Condor simulator executes concurrently (and how many image fetches it
	// issues at once). 0 or 1 runs serially; the simulated clock, schedule,
	// and science output are identical either way.
	Workers int
	// Faults, when set, is installed on every fault point of the testbed:
	// GridFTP transfers, both archives' HTTP endpoints, RLS lookups and
	// registrations, and Condor job execution inside the compute service.
	// Nil runs fault-free at zero cost.
	Faults *faults.Injector
	// FaultsFor, when set, supplies the compute service a per-workflow
	// Condor fault injector (tenant, cluster) so concurrent workflows keep
	// independent, deterministic fault schedules. Unlike Faults it is NOT
	// installed on the shared substrate (GridFTP/RLS/archives). When nil,
	// every workflow's Condor jobs draw from Faults.
	FaultsFor func(tenant, cluster string) *faults.Injector
	// Fabric, when set, is the shared multi-tenant execution fabric the
	// compute service admits and schedules workflows on; nil gives the
	// service a private permissive fabric over Pools.
	Fabric *fabric.Fabric
	// Resilience enables the retry/backoff/circuit-breaker stack: the
	// portal retries archive calls and degrades gracefully, the compute
	// service fails transfers over to other RLS replicas. The shared breaker
	// registry is exposed as Testbed.Breakers.
	Resilience bool
	// MirrorSite, when non-empty, makes the compute service replicate every
	// cached image to this second GridFTP site (and register both PFNs in
	// the RLS) so transfer nodes have a replica to fail over to.
	MirrorSite string
	// JournalDir, when non-empty, makes the compute service crash-safe: the
	// planned DAG, the generated VDL and a write-ahead journal are persisted
	// there, and a killed run can be finished with Compute.Resume.
	JournalDir string
	// CrashAfterEvents, when > 0, kills the workflow after that many journal
	// appends (the kill-and-resume campaign's deterministic crash switch).
	CrashAfterEvents int
	// ClusterSize batches up to this many ready leaf jobs per site into one
	// Condor task (Pegasus horizontal clustering). <= 1 keeps one task per
	// node.
	ClusterSize int
	// SchedOverhead models the serialized per-task Condor-G/GRAM submission
	// cost; zero keeps the instant-start legacy model.
	SchedOverhead time.Duration
	// TransferSlots gives every pool that many dedicated data-movement
	// slots so stage-ins overlap computation.
	TransferSlots int
	// WaveSize, when > 0, switches the compute service to survey-scale wave
	// execution: images are staged, planned and executed in waves of at most
	// this many galaxies, bounding peak memory by the wave rather than the
	// request. Output bytes are identical to the monolithic path.
	WaveSize int
	// PageSize, when > 0, makes the portal consume the archives' cone-search
	// and SIA endpoints in pages of this many rows instead of one unbounded
	// response per archive.
	PageSize int
	// Priority is the default fabric scheduling class the portal stamps on
	// its compute submissions. Meaningful on a shared Fabric with priority
	// classes (and, when the fabric enables preemption, a higher class may
	// checkpoint-preempt a lower one); zero is the default class.
	Priority int
}

// Testbed is the fully wired end-to-end system.
type Testbed struct {
	Clusters []*skysim.Cluster
	MAST     *services.Archive
	NED      *services.Archive

	RLS *rls.RLS
	TC  *tcat.Catalog
	FTP *gridftp.Service
	MDS *mds.Service

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
	if len(cfg.Pools) == 0 {
		cfg.Pools = DefaultPools()
	}

	tb := &Testbed{
		RLS:      rls.New(),
		TC:       tcat.New(),
		FTP:      gridftp.NewService(gridftp.Network{}),
		MDS:      mds.New(),
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

	// Grid information services.
	for _, p := range cfg.Pools {
		if err := tb.MDS.Register(mds.SiteInfo{
			Name:        p.Name,
			Slots:       p.Slots,
			GridFTPBase: "gridftp://" + p.Name,
		}); err != nil {
			return nil, err
		}
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

	wsCfg := webservice.Config{
		RLS:          tb.RLS,
		TC:           tb.TC,
		GridFTP:      tb.FTP,
		Pools:        cfg.Pools,
		CacheSite:    "isi",
		HTTPClient:   tb.Client,
		Seed:         cfg.Seed,
		StrictFaults: cfg.StrictFaults,
		MaxRetries:   5,
		BatchFetch:   cfg.BatchFetch,
		MirrorSite:   cfg.MirrorSite,
		FaultsFor:    cfg.FaultsFor,
		Breakers:     tb.Breakers,
		Fabric:       cfg.Fabric,
		Workers:      cfg.Workers,

		JournalDir: cfg.JournalDir,

		ClusterSize:   cfg.ClusterSize,
		SchedOverhead: cfg.SchedOverhead,
		TransferSlots: cfg.TransferSlots,
		WaveSize:      cfg.WaveSize,
	}
	if k := cfg.CrashAfterEvents; k > 0 {
		// A fresh crash sink per workflow leg, disarmed by Compute.Reopen.
		wsCfg.WrapJournal = func(_, _ string, sink journal.Sink) journal.Sink {
			return &journal.CrashSink{Sink: sink, After: k}
		}
	}
	if cfg.FaultsFor == nil && cfg.Faults != nil {
		wsCfg.FaultsFor = func(_, _ string) *faults.Injector { return cfg.Faults }
	}
	if cfg.RequireProxy {
		if err := tb.MyProxy.Delegate(MyProxyUser, MyProxyPass,
			"/C=US/O=NVO/CN=Portal Service", 12*time.Hour, time.Hour); err != nil {
			return nil, err
		}
		repo := tb.MyProxy
		wsCfg.Proxy = func() (myproxy.Proxy, error) {
			return repo.Retrieve(MyProxyUser, MyProxyPass, time.Hour)
		}
	}
	compute, err := webservice.New(wsCfg)
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

	var pCfg portal.Config
	if cfg.UseRegistryDiscovery {
		regClient := &registry.Client{Base: "http://" + HostRegistry, HTTP: tb.Client}
		if pCfg, err = portal.DiscoverConfig(regClient, entries, tb.Client); err != nil {
			return nil, err
		}
	} else {
		pCfg = portal.Config{
			Clusters: entries,
			ConeServices: []string{
				"http://" + HostNED + "/cone",
				"http://" + HostMAST + "/cone",
			},
			SIAServices: []string{
				"http://" + HostMAST + "/sia",
				"http://" + HostHEASARC + "/sia",
			},
			CutoutService:  "http://" + HostMAST + "/siacut",
			ComputeService: "http://" + HostCompute,
			HTTPClient:     tb.Client,
		}
	}
	pCfg.CacheImageSearch = cfg.CacheImageSearch
	pCfg.PageSize = cfg.PageSize
	pCfg.Priority = cfg.Priority
	if cfg.Resilience {
		pCfg.Retry = resilience.Policy{MaxAttempts: 4, Seed: cfg.Seed}
		pCfg.Breakers = tb.Breakers
	}
	if tb.Portal, err = portal.New(pCfg); err != nil {
		return nil, err
	}

	return tb, nil
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
