package portal

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gridftp"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/rls"
	"repro/internal/services"
	"repro/internal/skysim"
	"repro/internal/tcat"
	"repro/internal/wcs"
	"repro/internal/webservice"
)

// fixture wires archives and a compute service behind httptest servers and
// builds a portal over them.
type fixture struct {
	portal  *Portal
	svc     *webservice.Service // the compute service the portal submits to
	cluster *skysim.Cluster
}

// newFixture builds the fixture over nGalaxies galaxies of COMA; mut, when
// set, edits the portal's configuration and svcMut the compute service's.
func newFixture(t testing.TB, nGalaxies int, mut func(*Config), svcMut ...func(*webservice.Config)) *fixture {
	t.Helper()
	cl := skysim.Generate(skysim.Spec{
		Name: "COMA", Center: wcs.New(195, 28), Redshift: 0.023,
		NumGalaxies: nGalaxies, Seed: 21,
	})
	mast := services.NewArchive("mast", cl)
	ned := services.NewArchive("ned", cl)
	mastSrv := httptest.NewServer(mast.Handler())
	nedSrv := httptest.NewServer(ned.Handler())
	t.Cleanup(mastSrv.Close)
	t.Cleanup(nedSrv.Close)

	r := rls.New()
	ftp := gridftp.NewService(gridftp.Network{})
	tc := tcat.New()
	for _, site := range []string{"usc", "wisc"} {
		_ = tc.Add(tcat.Entry{Transformation: "galMorph", Site: site, Path: "/nvo/bin/galMorph"})
		_ = tc.Add(tcat.Entry{Transformation: "concatVOT", Site: site, Path: "/nvo/bin/concatVOT"})
	}
	fab, err := fabric.New(fabric.Config{Pools: []condor.Pool{{Name: "usc", Slots: 8}, {Name: "wisc", Slots: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	svcCfg := webservice.Config{
		RLS: r, TC: tc, GridFTP: ftp, Fabric: fab,
		HTTPClient: mastSrv.Client(),
		Seed:       3,
		MaxRetries: 2,
	}
	for _, m := range svcMut {
		m(&svcCfg)
	}
	svc, err := webservice.New(svcCfg)
	if err != nil {
		t.Fatal(err)
	}
	wsSrv := httptest.NewServer(svc.Handler())
	t.Cleanup(wsSrv.Close)

	cfg := Config{
		Clusters: []ClusterEntry{{
			Name: "COMA", Center: cl.Center, Redshift: cl.Redshift,
			SearchRadiusDeg: 8*cl.CoreRadiusDeg + 0.01,
		}},
		ConeServices:   []string{nedSrv.URL + "/cone", mastSrv.URL + "/cone"},
		SIAServices:    []string{mastSrv.URL + "/sia"},
		CutoutService:  mastSrv.URL + "/siacut",
		ComputeService: wsSrv.URL,
		HTTPClient:     mastSrv.Client(),
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{portal: p, svc: svc, cluster: cl}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config must fail")
	}
	if _, err := New(Config{Clusters: []ClusterEntry{{Name: "X"}}}); err == nil {
		t.Error("config without services must fail")
	}
}

func TestClustersAndLookup(t *testing.T) {
	f := newFixture(t, 5, nil)
	cls := f.portal.Clusters()
	if len(cls) != 1 || cls[0].Name != "COMA" {
		t.Errorf("clusters = %v", cls)
	}
	entry, err := f.portal.Cluster("COMA")
	if err != nil || entry.SearchRadiusDeg <= 0 {
		t.Errorf("Cluster = %+v, %v", entry, err)
	}
	if _, err := f.portal.Cluster("GHOST"); err == nil {
		t.Error("unknown cluster must fail")
	}
}

func TestFindImages(t *testing.T) {
	f := newFixture(t, 5, nil)
	imgs, err := f.portal.FindImages("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 2 { // optical + xray from the single SIA service
		t.Fatalf("images = %d", len(imgs))
	}
	if _, err := f.portal.FindImages("GHOST"); err == nil {
		t.Error("unknown cluster must fail")
	}
}

func TestFindImagesCache(t *testing.T) {
	f := newFixture(t, 5, func(c *Config) { c.CacheImageSearch = true })
	a, err := f.portal.FindImages("COMA")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.portal.FindImages("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Error("cached result differs")
	}
	// Mutating the returned slice must not poison the cache.
	b[0].Title = "mutated"
	c, _ := f.portal.FindImages("COMA")
	if c[0].Title == "mutated" {
		t.Error("cache must return copies")
	}
}

func TestBuildCatalog(t *testing.T) {
	f := newFixture(t, 15, nil)
	cat, err := f.portal.BuildCatalog("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if cat.NumRows() != 15 {
		t.Fatalf("rows = %d", cat.NumRows())
	}
	for _, col := range []string{"id", "ra", "dec", "z", "acref"} {
		if cat.ColumnIndex(col) < 0 {
			t.Errorf("missing column %q; have %v", col, cat.Fields)
		}
	}
	// The join must have pulled the secondary catalog's columns.
	if cat.ColumnIndex("mast_mag") < 0 {
		t.Errorf("left-join columns missing; have %+v", cat.Fields)
	}
	// acrefs must be absolute.
	if !strings.HasPrefix(cat.Cell(0, "acref"), "http") {
		t.Errorf("acref = %q", cat.Cell(0, "acref"))
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	f := newFixture(t, 12, nil)
	res, err := f.portal.Analyze("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 12 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	for _, col := range []string{"asymmetry", "concentration", "surface_brightness", "valid"} {
		if res.Table.ColumnIndex(col) < 0 {
			t.Errorf("merged column %q missing", col)
		}
	}
	validWithValues := 0
	for i := 0; i < res.Table.NumRows(); i++ {
		if v, ok := res.Table.Bool(i, "valid"); ok && v {
			if _, ok := res.Table.Float(i, "asymmetry"); ok {
				validWithValues++
			}
		}
	}
	if validWithValues < 8 {
		t.Errorf("only %d valid measured galaxies", validWithValues)
	}
	if len(res.Images) != 2 {
		t.Errorf("images = %d", len(res.Images))
	}
	if res.ComputeTime <= 0 {
		t.Error("compute time not recorded")
	}
}

// TestResultDecodeFailureIsComputeFailed: a result the portal cannot
// decode fails the analysis as ErrComputeFailed, like a result that does
// not arrive.
func TestResultDecodeFailureIsComputeFailed(t *testing.T) {
	f := newFixture(t, 4, func(c *Config) {
		target, err := url.Parse(c.ComputeService)
		if err != nil {
			t.Fatal(err)
		}
		proxy := httputil.NewSingleHostReverseProxy(target)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/result" {
				_, _ = io.WriteString(w, "<VOTABLE><RESOURCE>truncated")
				return
			}
			proxy.ServeHTTP(w, req)
		}))
		t.Cleanup(srv.Close)
		c.ComputeService = srv.URL
	})
	_, err := f.portal.Analyze("COMA")
	if !errors.Is(err, ErrComputeFailed) {
		t.Fatalf("Analyze with an undecodable result = %v, want ErrComputeFailed", err)
	}
}

func TestAnalyzeUnknownCluster(t *testing.T) {
	f := newFixture(t, 5, nil)
	if _, err := f.portal.Analyze("GHOST"); err == nil {
		t.Error("unknown cluster must fail")
	}
}

func TestHTMLHandler(t *testing.T) {
	f := newFixture(t, 8, nil)
	srv := httptest.NewServer(f.portal.Handler())
	defer srv.Close()
	hc := srv.Client()

	get := func(path string) string {
		t.Helper()
		resp, err := hc.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	home := get("/")
	if !strings.Contains(home, "COMA") || !strings.Contains(home, "Select a galaxy cluster") {
		t.Errorf("home page:\n%s", home)
	}
	clusterPage := get("/cluster?name=COMA")
	if !strings.Contains(clusterPage, "Large-scale images") || !strings.Contains(clusterPage, "Begin morphology analysis") {
		t.Errorf("cluster page:\n%s", clusterPage)
	}
	analyzePage := get("/analyze?name=COMA")
	if !strings.Contains(analyzePage, "Analysis complete") || !strings.Contains(analyzePage, "asymmetry") {
		t.Errorf("analyze page:\n%s", analyzePage)
	}
	errPage := get("/cluster?name=GHOST")
	if !strings.Contains(errPage, "unknown cluster") {
		t.Errorf("error page:\n%s", errPage)
	}
}

func BenchmarkBuildCatalog(b *testing.B) {
	f := newFixture(b, 50, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.portal.BuildCatalog("COMA"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAsyncAnalysis(t *testing.T) {
	f := newFixture(t, 10, nil)
	id, err := f.portal.StartAnalysis("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.portal.StartAnalysis("GHOST"); err == nil {
		t.Error("unknown cluster must fail immediately")
	}
	deadline := time.Now().Add(15 * time.Second)
	var snap JobSnapshot
	sawProgress := false
	for {
		snap, err = f.portal.JobStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.JobsTotal > 0 {
			sawProgress = true
		}
		if snap.State != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async job did not finish")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap.State != JobCompleted {
		t.Fatalf("job = %+v", snap)
	}
	if snap.Result == nil || snap.Result.Table.NumRows() != 10 {
		t.Fatalf("result missing: %+v", snap)
	}
	if !sawProgress && snap.JobsTotal == 0 {
		t.Error("no Grid progress was ever reported")
	}
	if _, err := f.portal.JobStatus("job-999999"); err == nil {
		t.Error("unknown job must fail")
	}
}

func TestAsyncHTMLFlow(t *testing.T) {
	f := newFixture(t, 6, nil)
	srv := httptest.NewServer(f.portal.Handler())
	defer srv.Close()
	hc := srv.Client()

	// /start redirects to the job page.
	resp, err := hc.Get(srv.URL + "/start?name=COMA")
	if err != nil {
		t.Fatal(err)
	}
	finalURL := resp.Request.URL.String()
	body := readBody(t, resp)
	if !strings.Contains(finalURL, "/job?id=job-") {
		t.Fatalf("redirect target = %s", finalURL)
	}
	if !strings.Contains(body, "Analysis job") {
		t.Errorf("job page:\n%s", body)
	}

	// Poll the job page until completed.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := hc.Get(finalURL)
		if err != nil {
			t.Fatal(err)
		}
		body = readBody(t, resp)
		if strings.Contains(body, "completed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job page never completed:\n%s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(body, "Analysis complete") || !strings.Contains(body, "asymmetry") {
		t.Errorf("completed job page lacks results:\n%s", body)
	}

	// Unknown job id renders an error.
	resp, _ = hc.Get(srv.URL + "/job?id=nope")
	if body := readBody(t, resp); !strings.Contains(body, "unknown job") {
		t.Errorf("unknown job page:\n%s", body)
	}
}

// TestPriorityQueryParameter: a valid ?priority= on /analyze reaches the
// compute request's Status.Priority; a value that is not an int answers 400
// on /analyze and /start and starts nothing.
func TestPriorityQueryParameter(t *testing.T) {
	f := newFixture(t, 4, nil)
	srv := httptest.NewServer(f.portal.Handler())
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readBody(t, resp)
	}

	for _, bad := range []string{"abc", "1.5", "99999999999999999999"} {
		for _, path := range []string{"/analyze", "/start"} {
			if code, _ := get(path + "?name=COMA&priority=" + bad); code != http.StatusBadRequest {
				t.Errorf("%s priority=%s = %d, want 400", path, bad, code)
			}
		}
	}
	if _, err := f.portal.JobStatus("job-000001"); err == nil {
		t.Error("a bad priority started a job")
	}
	if n := f.svc.Stats().Requests; n != 0 {
		t.Errorf("bad priorities submitted %d compute requests", n)
	}

	if code, body := get("/analyze?name=COMA&priority=3"); code != http.StatusOK || !strings.Contains(body, "Analysis complete") {
		t.Fatalf("/analyze priority=3 = %d:\n%s", code, body)
	}
	st, err := f.svc.Status("req-000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.Priority != 3 {
		t.Errorf("?priority=3 submitted at priority %d", st.Priority)
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestDiscoverConfigAndNewFromRegistry(t *testing.T) {
	reg := registry.New()
	entries := []registry.Entry{
		{ID: "ivo://b/cone", Type: registry.TypeConeSearch, BaseURL: "http://b/cone"},
		{ID: "ivo://a/cone", Type: registry.TypeConeSearch, BaseURL: "http://a/cone"},
		{ID: "ivo://a/sia", Type: registry.TypeSIA, BaseURL: "http://a/sia"},
		{ID: "ivo://a/cut", Type: registry.TypeCutout, BaseURL: "http://a/siacut"},
		{ID: "ivo://c/compute", Type: registry.TypeCompute, BaseURL: "http://c"},
	}
	for _, e := range entries {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(registry.Handler(reg))
	defer srv.Close()
	client := &registry.Client{Base: srv.URL}
	clusters := []ClusterEntry{{Name: "X", Center: wcs.New(0, 0)}}

	cfg, err := DiscoverConfig(client, clusters, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	// Primary cone service is the first by registry ID.
	if len(cfg.ConeServices) != 2 || cfg.ConeServices[0] != "http://a/cone" {
		t.Errorf("cone services = %v", cfg.ConeServices)
	}
	if cfg.CutoutService != "http://a/siacut" || cfg.ComputeService != "http://c" {
		t.Errorf("cutout/compute = %q / %q", cfg.CutoutService, cfg.ComputeService)
	}
	if p, err := New(cfg); err != nil || p == nil {
		t.Fatalf("New with the discovered config: %v", err)
	}

	// Remove the compute service: discovery must fail.
	if err := reg.Unregister("ivo://c/compute"); err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverConfig(client, clusters, srv.Client()); err == nil {
		t.Error("missing compute service must fail discovery")
	}
	if err := reg.Unregister("ivo://a/cut"); err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverConfig(client, clusters, srv.Client()); err == nil {
		t.Error("missing cutout service must fail discovery")
	}
}

// TestAnalyzeTimesOut: a compute request that stays queued makes Analyze
// give up with ErrTimeout once Config.Now passes the poll deadline. Every
// call of the injected clock advances it past pollTimeout, so the first poll
// that finds the request unfinished is the last.
func TestAnalyzeTimesOut(t *testing.T) {
	now := time.Date(2004, 1, 1, 0, 0, 0, 0, time.UTC)
	f := newFixture(t, 3, func(c *Config) {
		c.Now = func() time.Time {
			now = now.Add(pollTimeout + time.Second)
			return now
		}
	})
	f.svc.Fabric().Hold()
	t.Cleanup(func() {
		if err := f.svc.Cancel("req-000001"); err != nil {
			t.Error(err)
		}
		f.svc.Fabric().Unhold()
	})
	if _, err := f.portal.Analyze("COMA"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Analyze on a held fabric = %v, want ErrTimeout", err)
	}
	if st, err := f.svc.Status("req-000001"); err != nil || st.State != webservice.StateQueued {
		t.Errorf("compute request = %+v, %v; want it still queued", st, err)
	}
}

func TestDegradedFanOut(t *testing.T) {
	cl := skysim.Generate(skysim.Spec{
		Name: "COMA", Center: wcs.New(195, 28), Redshift: 0.023,
		NumGalaxies: 12, Seed: 21,
	})
	good := services.NewArchive("good", cl)
	flaky := services.NewArchive("flaky", cl)
	// The flaky archive is down for cone and SIA queries, indefinitely.
	flaky.SetInjector(faults.New(1,
		faults.Rule{Name: services.OpCone, Site: "flaky", Kind: faults.KindSiteDown},
		faults.Rule{Name: services.OpSIA, Site: "flaky", Kind: faults.KindSiteDown},
	))
	goodSrv := httptest.NewServer(good.Handler())
	flakySrv := httptest.NewServer(flaky.Handler())
	t.Cleanup(goodSrv.Close)
	t.Cleanup(flakySrv.Close)

	breakers := resilience.NewRegistry(resilience.BreakerConfig{
		FailureThreshold: 2, CooldownRejects: 100,
	})
	cfg := Config{
		Clusters: []ClusterEntry{{
			Name: "COMA", Center: cl.Center, Redshift: cl.Redshift,
			SearchRadiusDeg: 8*cl.CoreRadiusDeg + 0.01,
		}},
		ConeServices:   []string{goodSrv.URL + "/cone", flakySrv.URL + "/cone"},
		SIAServices:    []string{goodSrv.URL + "/sia", flakySrv.URL + "/sia"},
		CutoutService:  goodSrv.URL + "/siacut",
		ComputeService: "http://unused.invalid",
		HTTPClient:     goodSrv.Client(),
		Retry:          resilience.Policy{MaxAttempts: 2},
		Breakers:       breakers,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Image search: the dead service degrades, the live one still answers.
	recs, degraded, err := p.FindImagesReport("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Error("live SIA service must still contribute images")
	}
	if len(degraded) != 1 || degraded[0].Op != "sia" || degraded[0].Service != flakySrv.URL+"/sia" {
		t.Fatalf("degraded = %+v, want the flaky SIA service", degraded)
	}

	// Catalog build: the dead secondary cone degrades to a partial catalog.
	cat, catDeg, err := p.BuildCatalogReport("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if cat.NumRows() == 0 || cat.ColumnIndex("acref") < 0 {
		t.Error("partial catalog must still carry rows and cutout refs")
	}
	if len(catDeg) != 1 || catDeg[0].Op != "cone" {
		t.Fatalf("catalog degradations = %+v, want the flaky cone service", catDeg)
	}

	// Two failed attempts per endpoint tripped both circuits; the next pass
	// short-circuits without touching the network.
	if open := breakers.OpenCircuits(); len(open) != 2 {
		t.Fatalf("open circuits = %v, want flaky cone+sia", open)
	}
	_, catDeg, err = p.BuildCatalogReport("COMA")
	if err != nil || len(catDeg) != 1 {
		t.Fatalf("degraded rebuild: %+v, %v", catDeg, err)
	}
	if !strings.Contains(catDeg[0].Err, "circuit open") {
		t.Errorf("rebuild should hit the open circuit, got %q", catDeg[0].Err)
	}

	// A dead PRIMARY cone is fatal: without the base table there is nothing
	// to analyze.
	cfg.ConeServices = []string{flakySrv.URL + "/cone", goodSrv.URL + "/cone"}
	cfg.Breakers = nil
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.BuildCatalog("COMA"); err == nil {
		t.Error("dead primary cone service must fail the build")
	}
}
