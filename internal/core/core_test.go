package core

import (
	"bytes"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/condor"
	"repro/internal/faults"
	"repro/internal/fits"
	"repro/internal/portal"
	"repro/internal/registry"
	"repro/internal/services"
	"repro/internal/skysim"
	"repro/internal/tableops"
	"repro/internal/votable"
	"repro/internal/wcs"
)

// smallSpec is one COMA cluster of n galaxies.
func smallSpec(n int) []skysim.Spec {
	return []skysim.Spec{{
		Name: "COMA", Center: wcs.New(195, 28), Redshift: 0.023,
		NumGalaxies: n, Seed: 31,
	}}
}

func smallTestbed(t testing.TB, n int, mut func(*Config)) *Testbed {
	t.Helper()
	cfg := Config{ClusterSpecs: smallSpec(n), Seed: 9}
	if mut != nil {
		mut(&cfg)
	}
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestTestbedWiring(t *testing.T) {
	tb := smallTestbed(t, 10, nil)
	if len(tb.Clusters) != 1 || tb.MAST == nil || tb.NED == nil || tb.Portal == nil {
		t.Fatal("testbed incomplete")
	}
	if _, err := tb.Cluster("COMA"); err != nil {
		t.Error(err)
	}
	if _, err := tb.Cluster("GHOST"); err == nil {
		t.Error("unknown cluster must fail")
	}
	// Virtual-host routing works for every service.
	for _, u := range []string{
		"http://" + HostMAST + "/cone?RA=195&DEC=28&SR=0.5",
		"http://" + HostNED + "/cone?RA=195&DEC=28&SR=0.5",
		"http://" + HostHEASARC + "/sia?POS=195,28&SIZE=1",
		"http://" + HostRLS + "/lfns",
	} {
		resp, err := tb.Client.Get(u)
		if err != nil {
			t.Fatalf("GET %s: %v", u, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", u, resp.StatusCode)
		}
	}
	// Unknown host fails loudly.
	if _, err := tb.Client.Get("http://nowhere.nvo/x"); err == nil {
		t.Error("unknown virtual host must fail")
	}
}

func TestDefaultTestbed(t *testing.T) {
	tb, err := NewTestbed(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Clusters) != 2 {
		t.Errorf("default clusters = %d", len(tb.Clusters))
	}
}

func TestFigure5PortalFlow(t *testing.T) {
	// The complete Figure 5 operation through the in-process Grid.
	tb := smallTestbed(t, 15, nil)
	res, err := tb.Portal.Analyze("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 15 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	if res.Table.ColumnIndex("asymmetry") < 0 || res.Table.ColumnIndex("valid") < 0 {
		t.Error("morphology columns not merged")
	}
	if len(res.Images) != 4 { // optical+xray from MAST and HEASARC
		t.Errorf("images = %d, want 4", len(res.Images))
	}
	// The run must have registered data products.
	if !tb.RLS.Exists("COMA.vot") {
		t.Error("output not in RLS")
	}
	if tb.FTP.Stats().Transfers == 0 {
		t.Error("no grid transfers recorded")
	}
}

func TestFigure2Pipeline(t *testing.T) {
	// The Chimera->Pegasus->DAGMan pipeline via the compute service,
	// checking the reduction on a repeat request (Figure 2's virtual-data
	// behaviour end to end).
	tb := smallTestbed(t, 8, nil)
	if _, err := tb.Portal.Analyze("COMA"); err != nil {
		t.Fatal(err)
	}
	before := tb.FTP.Stats().Transfers
	// Second run: fully served from the RLS (output exists).
	if _, err := tb.Portal.Analyze("COMA"); err != nil {
		t.Fatal(err)
	}
	if after := tb.FTP.Stats().Transfers; after != before {
		t.Errorf("repeat analysis caused %d transfers", after-before)
	}
}

func TestDresslerRelation(t *testing.T) {
	// Figure 7's content: measured asymmetry rises with cluster radius, so
	// the Spearman correlation is positive and the early-type fraction
	// falls from the innermost to the outermost bin.
	tb := smallTestbed(t, 250, nil)
	res, err := tb.Portal.Analyze("COMA")
	if err != nil {
		t.Fatal(err)
	}
	cl := tb.Clusters[0]

	rho, n, err := AsymmetryRadiusCorrelation(res.Table, cl.Center)
	if err != nil {
		t.Fatal(err)
	}
	if n < 180 {
		t.Fatalf("only %d valid galaxies", n)
	}
	if rho <= 0.1 {
		t.Errorf("asymmetry-radius correlation = %.3f, want clearly positive", rho)
	}

	bins, err := DresslerBins(res.Table, cl.Center, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 4 {
		t.Fatalf("bins = %d", len(bins))
	}
	if bins[0].EarlyFraction <= bins[3].EarlyFraction {
		t.Errorf("early fraction must fall with radius: inner %.2f outer %.2f",
			bins[0].EarlyFraction, bins[3].EarlyFraction)
	}
	if bins[0].MeanAsymmetry >= bins[3].MeanAsymmetry {
		t.Errorf("mean asymmetry must rise with radius: inner %.3f outer %.3f",
			bins[0].MeanAsymmetry, bins[3].MeanAsymmetry)
	}
	for i := 1; i < len(bins); i++ {
		if bins[i].MidRadiusDeg <= bins[i-1].MidRadiusDeg {
			t.Error("bin radii must increase")
		}
	}
}

func TestDresslerBinsErrors(t *testing.T) {
	tab := votable.NewTable("t", votable.Field{Name: "x", Datatype: votable.TypeChar})
	if _, err := DresslerBins(tab, wcs.New(0, 0), 3); err == nil {
		t.Error("missing columns must fail")
	}
	good := votable.NewTable("t",
		votable.Field{Name: "ra", Datatype: votable.TypeDouble},
		votable.Field{Name: "dec", Datatype: votable.TypeDouble},
		votable.Field{Name: "asymmetry", Datatype: votable.TypeDouble},
		votable.Field{Name: "concentration", Datatype: votable.TypeDouble},
		votable.Field{Name: "valid", Datatype: votable.TypeBoolean},
	)
	if _, err := DresslerBins(good, wcs.New(0, 0), 3); err == nil {
		t.Error("empty table must fail")
	}
	_ = good.AppendRow("1", "1", "0.1", "3", "F")
	if _, err := DresslerBins(good, wcs.New(0, 0), 3); err == nil {
		t.Error("all-invalid table must fail")
	}
	_ = good.AppendRow("1", "1", "0.1", "3", "T")
	if _, err := DresslerBins(good, wcs.New(0, 0), 0); err == nil {
		t.Error("zero bins must fail")
	}
	bins, err := DresslerBins(good, wcs.New(0, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 1 {
		t.Errorf("bins clamp to row count: %d", len(bins))
	}
}

func TestSpearman(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if rho := Spearman(x, x); math.Abs(rho-1) > 1e-12 {
		t.Errorf("identity rho = %v", rho)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if rho := Spearman(x, rev); math.Abs(rho+1) > 1e-12 {
		t.Errorf("reverse rho = %v", rho)
	}
	// Monotone nonlinear relation: Spearman is exactly 1.
	y := []float64{1, 8, 27, 64, 125}
	if rho := Spearman(x, y); math.Abs(rho-1) > 1e-12 {
		t.Errorf("monotone rho = %v", rho)
	}
	// Degenerate inputs.
	if Spearman(x, x[:3]) != 0 {
		t.Error("length mismatch must be 0")
	}
	if Spearman([]float64{1}, []float64{2}) != 0 {
		t.Error("singleton must be 0")
	}
	if Spearman([]float64{2, 2, 2}, x[:3]) != 0 {
		t.Error("constant input must be 0")
	}
	// Ties get mean ranks; a tied-but-correlated sample stays positive.
	if rho := Spearman([]float64{1, 1, 2, 2}, []float64{1, 2, 3, 4}); rho <= 0 {
		t.Errorf("tied rho = %v", rho)
	}
}

func TestFaultInjectionThroughTestbed(t *testing.T) {
	tb := smallTestbed(t, 10, func(c *Config) {
		c.Faults = faults.New(5, faults.Rule{Name: condor.OpExec, Kind: faults.KindTransient, Probability: 0.15})
		c.Compute.MaxRetries = 5
	})
	res, err := tb.Portal.Analyze("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 10 {
		t.Errorf("rows = %d", res.Table.NumRows())
	}
}

func BenchmarkFigure5Analyze(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := smallTestbed(b, 20, nil)
		b.StartTimer()
		if _, err := tb.Portal.Analyze("COMA"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRegistryDiscoveredPortal(t *testing.T) {
	// The §5 future-work registry: the portal discovers every service from
	// the resource registry and still completes the Figure 5 flow.
	tb := smallTestbed(t, 10, func(c *Config) { c.UseRegistryDiscovery = true })
	if tb.Registry.Len() == 0 {
		t.Fatal("registry empty")
	}
	res, err := tb.Portal.Analyze("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 10 || res.Table.ColumnIndex("asymmetry") < 0 {
		t.Errorf("discovered portal analysis incomplete: %d rows", res.Table.NumRows())
	}
	// Discovery fails loudly when a required service type is missing.
	reg := registry.New()
	_ = reg.Register(registry.Entry{ID: "x", Type: registry.TypeConeSearch, BaseURL: "http://c"})
	srv := httptest.NewServer(registry.Handler(reg))
	defer srv.Close()
	_, err = portal.DiscoverConfig(&registry.Client{Base: srv.URL},
		[]portal.ClusterEntry{{Name: "X"}}, nil)
	if err == nil {
		t.Error("discovery without cutout/compute services must fail")
	}
}

func TestMyProxyGatedTestbed(t *testing.T) {
	tb := smallTestbed(t, 8, func(c *Config) { c.RequireProxy = true })
	// With the delegated credential in place the flow works.
	if _, err := tb.Portal.Analyze("COMA"); err != nil {
		t.Fatal(err)
	}
	// Destroy the delegation: new computations are refused.
	if err := tb.MyProxy.Destroy(MyProxyUser, MyProxyPass); err != nil {
		t.Fatal(err)
	}
	cat, err := tb.Portal.BuildCatalog("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.Compute.Compute(cat, "OTHER"); err == nil {
		t.Error("destroyed credential must refuse computation")
	}
}

func TestTableOpsServiceInTestbed(t *testing.T) {
	tb := smallTestbed(t, 12, nil)
	run, err := RunCluster(tb, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	// Use the generic table service to filter the merged science table to
	// the asymmetric galaxies, over HTTP.
	c := &tableops.Client{Base: "http://" + HostTableOps, HTTP: tb.Client}
	asym, err := c.Filter(run.Table, "asymmetry", 0.05, 10)
	if err != nil {
		t.Fatal(err)
	}
	if asym.NumRows() >= run.Table.NumRows() {
		t.Errorf("filter did not narrow: %d of %d", asym.NumRows(), run.Table.NumRows())
	}
	sorted, err := c.Sort(run.Table, "asymmetry")
	if err != nil {
		t.Fatal(err)
	}
	a0, _ := sorted.Float(0, "asymmetry")
	aN, _ := sorted.Float(sorted.NumRows()-1, "asymmetry")
	if a0 > aN {
		t.Errorf("sort order wrong: %v .. %v", a0, aN)
	}
}

func TestEndToEndDeterminism(t *testing.T) {
	// Two testbeds with identical configuration must produce bit-identical
	// science tables and campaign accounting — the property that makes
	// every number in EXPERIMENTS.md reproducible.
	runOnce := func() *ClusterRun {
		tb := smallTestbed(t, 30, nil)
		run, err := RunCluster(tb, "COMA")
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	a := runOnce()
	b := runOnce()
	if a.ComputeJobs != b.ComputeJobs || a.FilesStaged != b.FilesStaged ||
		a.BytesStaged != b.BytesStaged || a.Makespan != b.Makespan ||
		a.InvalidRows != b.InvalidRows {
		t.Errorf("accounting differs:\n%+v\n%+v", a, b)
	}
	if a.Table.NumRows() != b.Table.NumRows() {
		t.Fatal("row counts differ")
	}
	for i := range a.Table.Rows {
		for j := range a.Table.Rows[i] {
			if a.Table.Rows[i][j] != b.Table.Rows[i][j] {
				t.Fatalf("cell (%d,%d): %q vs %q", i, j,
					a.Table.Rows[i][j], b.Table.Rows[i][j])
			}
		}
	}
}

func TestDresslerDensityRelation(t *testing.T) {
	// The relation against Dressler's own axis: local projected density.
	// High-density galaxies must be more symmetric (negative correlation;
	// early-type fraction rising toward dense bins).
	tb := smallTestbed(t, 250, nil)
	res, err := tb.Portal.Analyze("COMA")
	if err != nil {
		t.Fatal(err)
	}
	cl := tb.Clusters[0]

	rho, n, err := AsymmetryDensityCorrelation(res.Table, cl.Center)
	if err != nil {
		t.Fatal(err)
	}
	if n < 180 {
		t.Fatalf("valid galaxies = %d", n)
	}
	if rho >= -0.1 {
		t.Errorf("asymmetry-density correlation = %.3f, want clearly negative", rho)
	}

	bins, err := DresslerDensityBins(res.Table, cl.Center, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 4 {
		t.Fatalf("bins = %d", len(bins))
	}
	for i := 1; i < len(bins); i++ {
		if bins[i].MeanDensity <= bins[i-1].MeanDensity {
			t.Error("bins must ascend in density")
		}
	}
	if bins[3].EarlyFraction <= bins[0].EarlyFraction {
		t.Errorf("early fraction must rise with density: sparse %.2f dense %.2f",
			bins[0].EarlyFraction, bins[3].EarlyFraction)
	}
}

func TestDensityAnalysisErrors(t *testing.T) {
	small := votable.NewTable("t",
		votable.Field{Name: "ra", Datatype: votable.TypeDouble},
		votable.Field{Name: "dec", Datatype: votable.TypeDouble},
		votable.Field{Name: "asymmetry", Datatype: votable.TypeDouble},
		votable.Field{Name: "concentration", Datatype: votable.TypeDouble},
		votable.Field{Name: "valid", Datatype: votable.TypeBoolean},
	)
	for i := 0; i < 4; i++ { // fewer than densityNeighbors+1
		_ = small.AppendRow(votable.FormatFloat(float64(i)), "0", "0.1", "3", "T")
	}
	if _, _, err := AsymmetryDensityCorrelation(small, wcs.New(0, 0)); err == nil {
		t.Error("too few galaxies must fail")
	}
	if _, err := DresslerDensityBins(small, wcs.New(0, 0), 2); err == nil {
		t.Error("too few galaxies must fail")
	}
	if _, err := DresslerDensityBins(small, wcs.New(0, 0), 0); err == nil {
		t.Error("zero bins must fail")
	}
}

func TestDresslerXRayRelation(t *testing.T) {
	// The third science-model axis: asymmetry vs X-ray surface brightness
	// at the galaxy positions must anticorrelate (bright gas = dense core
	// = early types).
	tb := smallTestbed(t, 250, nil)
	res, err := tb.Portal.Analyze("COMA")
	if err != nil {
		t.Fatal(err)
	}
	cl := tb.Clusters[0]
	xrayBytes, err := tb.MAST.FieldFITS("COMA", services.BandXRay)
	if err != nil {
		t.Fatal(err)
	}
	xray, err := fits.Decode(bytes.NewReader(xrayBytes))
	if err != nil {
		t.Fatal(err)
	}

	rho, n, err := AsymmetryXRayCorrelation(xray, res.Table, cl.Center)
	if err != nil {
		t.Fatal(err)
	}
	if n < 180 {
		t.Fatalf("valid galaxies = %d", n)
	}
	if rho >= -0.1 {
		t.Errorf("asymmetry-xray correlation = %.3f, want clearly negative", rho)
	}

	bins, err := DresslerXRayBins(xray, res.Table, cl.Center, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 4 {
		t.Fatalf("bins = %d", len(bins))
	}
	if bins[3].EarlyFraction <= bins[0].EarlyFraction {
		t.Errorf("early fraction must rise with X-ray brightness: %.2f .. %.2f",
			bins[0].EarlyFraction, bins[3].EarlyFraction)
	}
	for i := 1; i < len(bins); i++ {
		if bins[i].MeanBrightness <= bins[i-1].MeanBrightness {
			t.Error("bins must ascend in brightness")
		}
	}

	// Missing WCS is an error.
	bare := fits.NewImage(16, 16, -32)
	if _, _, err := AsymmetryXRayCorrelation(bare, res.Table, cl.Center); err == nil {
		t.Error("image without WCS must fail")
	}
	if _, err := DresslerXRayBins(xray, res.Table, cl.Center, 0); err == nil {
		t.Error("zero bins must fail")
	}
}

func TestSpectralMorphologicalCorrelation(t *testing.T) {
	// The §2 cross-check: the catalog's spectral star-formation indicator
	// (Hα equivalent width from the cone-search services) must correlate
	// positively with the Grid-computed asymmetry.
	tb := smallTestbed(t, 250, nil)
	res, err := tb.Portal.Analyze("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.ColumnIndex("ew_halpha") < 0 {
		t.Fatalf("catalog lacks ew_halpha; fields: %+v", res.Table.Fields)
	}
	rho, n, err := SpectralMorphologicalCorrelation(res.Table)
	if err != nil {
		t.Fatal(err)
	}
	if n < 80 {
		t.Fatalf("valid galaxies = %d", n)
	}
	if rho <= 0.3 {
		t.Errorf("spectral-morphological correlation = %.3f, want strongly positive", rho)
	}

	// Missing columns fail loudly.
	bare := votable.NewTable("b", votable.Field{Name: "x", Datatype: votable.TypeChar})
	if _, _, err := SpectralMorphologicalCorrelation(bare); err == nil {
		t.Error("missing columns must fail")
	}
}
