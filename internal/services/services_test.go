package services

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/fits"
	"repro/internal/skysim"
	"repro/internal/wcs"
)

func testArchive(t testing.TB) *Archive {
	t.Helper()
	c1 := skysim.Generate(skysim.Spec{
		Name: "COMA", Center: wcs.New(195, 28), Redshift: 0.023, NumGalaxies: 60, Seed: 1,
	})
	c2 := skysim.Generate(skysim.Spec{
		Name: "A1689", Center: wcs.New(197.8, -1.3), Redshift: 0.18, NumGalaxies: 40, Seed: 2,
	})
	return NewArchive("mast", c1, c2)
}

// fetchFITS dereferences an acref with the test client and decodes the
// image; a non-200 answer is an error.
func fetchFITS(hc *http.Client, u string) (*fits.Image, error) {
	resp, err := hc.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	return fits.Decode(resp.Body)
}

func TestArchiveBasics(t *testing.T) {
	a := testArchive(t)
	if a.Name() != "mast" {
		t.Error("name lost")
	}
	cl := a.Clusters()
	if len(cl) != 2 || cl[0] != "A1689" || cl[1] != "COMA" {
		t.Errorf("clusters = %v", cl)
	}
	if _, ok := a.Cluster("COMA"); !ok {
		t.Error("COMA missing")
	}
	if a.Catalog().Len() != 100 {
		t.Errorf("merged catalog = %d", a.Catalog().Len())
	}
}

func TestConeSearchScopesToCluster(t *testing.T) {
	a := testArchive(t)
	tab := a.ConeSearch(wcs.New(195, 28), 1)
	if tab.NumRows() == 0 || tab.NumRows() > 60 {
		t.Fatalf("cone rows = %d", tab.NumRows())
	}
	for i := 0; i < tab.NumRows(); i++ {
		if got := tab.Cell(i, "cluster"); got != "COMA" {
			t.Fatalf("row %d cluster = %q", i, got)
		}
	}
}

func TestGalaxyLookup(t *testing.T) {
	a := testArchive(t)
	c, _ := a.Cluster("COMA")
	g, ok := a.Galaxy(c.Galaxies[0].ID)
	if !ok || g.ID != c.Galaxies[0].ID {
		t.Fatalf("Galaxy = %+v, %v", g, ok)
	}
	for _, id := range []string{"", "noclash", "GHOST-000001", "COMA-999999"} {
		if _, ok := a.Galaxy(id); ok {
			t.Errorf("Galaxy(%q) should fail", id)
		}
	}
}

func TestCutoutFITSDeterministic(t *testing.T) {
	a := testArchive(t)
	c, _ := a.Cluster("COMA")
	id := c.Galaxies[0].ID
	_, d1, err := a.CutoutFITS(id)
	if err != nil {
		t.Fatal(err)
	}
	_, d2, err := a.CutoutFITS(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Error("cutouts must be bit-identical across requests")
	}
	im, err := fits.Decode(bytes.NewReader(d1))
	if err != nil {
		t.Fatal(err)
	}
	if im.Header.Str("OBJECT", "") != id {
		t.Errorf("OBJECT = %q", im.Header.Str("OBJECT", ""))
	}
	if _, _, err := a.CutoutFITS("GHOST-1"); err == nil {
		t.Error("unknown galaxy must fail")
	}
}

func TestFieldFITSAndCache(t *testing.T) {
	a := testArchive(t)
	d1, err := a.FieldFITS("COMA", BandOptical)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.FieldFITS("COMA", BandOptical)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Error("cached field image must be identical")
	}
	if _, err := a.FieldFITS("COMA", BandXRay); err != nil {
		t.Fatal(err)
	}
	if _, err := a.FieldFITS("GHOST", BandOptical); err == nil {
		t.Error("unknown cluster must fail")
	}
	if _, err := a.FieldFITS("COMA", Band("radio")); err == nil {
		t.Error("unknown band must fail")
	}
}

func TestSIAQueryFields(t *testing.T) {
	a := testArchive(t)
	tab := a.SIAQueryFields(wcs.New(195, 28), 0.5)
	if tab.NumRows() != 2 { // optical + xray for COMA only
		t.Fatalf("rows = %d", tab.NumRows())
	}
	if !strings.Contains(tab.Cell(0, "acref"), "/image?cluster=COMA") {
		t.Errorf("acref = %q", tab.Cell(0, "acref"))
	}
	// Far away: nothing.
	if n := a.SIAQueryFields(wcs.New(10, -70), 0.5).NumRows(); n != 0 {
		t.Errorf("far query rows = %d", n)
	}
}

func TestSIAQueryCutouts(t *testing.T) {
	a := testArchive(t)
	tab := a.SIAQueryCutouts(wcs.New(195, 28), 2)
	if tab.NumRows() == 0 {
		t.Fatal("no cutout rows")
	}
	if !strings.HasPrefix(tab.Cell(0, "acref"), "/cutout?id=COMA-") {
		t.Errorf("acref = %q", tab.Cell(0, "acref"))
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	a := testArchive(t)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	hc := srv.Client()

	// Cone search.
	tab, err := ConeSearch(hc, srv.URL+"/cone", wcs.New(195, 28), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() == 0 {
		t.Fatal("cone search returned nothing")
	}

	// SIA for large-scale images, then dereference one.
	recs, err := SIAQuery(hc, srv.URL+"/sia", wcs.New(195, 28), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("sia records = %d", len(recs))
	}
	im, err := fetchFITS(hc, srv.URL+recs[0].AcRef)
	if err != nil {
		t.Fatal(err)
	}
	if im.Nx != 512 || im.Ny != 512 {
		t.Errorf("field image %dx%d", im.Nx, im.Ny)
	}

	// Cutout SIA, then dereference a cutout.
	cuts, err := SIAQuery(hc, srv.URL+"/siacut", wcs.New(195, 28), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) == 0 {
		t.Fatal("no cutouts")
	}
	cut, err := fetchFITS(hc, srv.URL+cuts[0].AcRef)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Nx != cuts[0].Naxis1 {
		t.Errorf("cutout size %d, SIA said %d", cut.Nx, cuts[0].Naxis1)
	}
	if _, ok := cut.WCS(); !ok {
		t.Error("cutout lost WCS")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	a := testArchive(t)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	cases := []string{
		"/cone",
		"/cone?RA=x&DEC=0&SR=1",
		"/cone?RA=0&DEC=95&SR=1",
		"/cone?RA=0&DEC=0&SR=-1",
		"/sia?POS=1&SIZE=1",
		"/sia?POS=a,b&SIZE=1",
		"/sia?POS=1,2&SIZE=-1",
		"/cone?RA=0&DEC=NaN&SR=1",
		"/cone?RA=0&DEC=0&SR=NaN",
		"/cone?RA=Inf&DEC=0&SR=1",
		"/cone?RA=0&DEC=0&SR=%2BInf",
		"/sia?POS=1,2&SIZE=%2BInf",
		"/sia?POS=NaN,2&SIZE=1",
		"/sia?POS=1,nan&SIZE=1",
		"/siacut?POS=-Inf,2&SIZE=1",
		"/siacut?POS=1&SIZE=1",
		"/cutout",
		"/image?cluster=COMA",
	}
	for _, path := range cases {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/cutout?id=GHOST-1", "/image?cluster=GHOST&band=optical"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s -> %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestTable1Registry(t *testing.T) {
	entries := Table1()
	if len(entries) != 5 {
		t.Fatalf("Table 1 has %d entries, want 5", len(entries))
	}
	// Spot-check the interface bindings against the paper.
	byCollection := map[string][]string{}
	for _, e := range entries {
		byCollection[e.Collection] = e.Interfaces
	}
	if got := byCollection["Chandra Data Archive"]; len(got) != 1 || got[0] != InterfaceSIA {
		t.Errorf("Chandra interfaces = %v", got)
	}
	if got := byCollection["NASA Extragalactic Database (NED)"]; len(got) != 1 || got[0] != InterfaceCone {
		t.Errorf("NED interfaces = %v", got)
	}
	if got := byCollection["Digitized Sky Survey (DSS)"]; len(got) != 2 {
		t.Errorf("DSS interfaces = %v", got)
	}
}

func BenchmarkConeSearchHTTP(b *testing.B) {
	a := testArchive(b)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	hc := srv.Client()
	pos := wcs.New(195, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConeSearch(hc, srv.URL+"/cone", pos, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSIACutoutQuery(b *testing.B) {
	a := testArchive(b)
	pos := wcs.New(195, 28)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tab := a.SIAQueryCutouts(pos, 2); tab.NumRows() == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkCutoutRender(b *testing.B) {
	a := testArchive(b)
	c, _ := a.Cluster("COMA")
	id := c.Galaxies[0].ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.CutoutFITS(id); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCutoutBatch(t *testing.T) {
	a := testArchive(t)
	c, _ := a.Cluster("COMA")
	ids := []string{c.Galaxies[0].ID, c.Galaxies[1].ID, c.Galaxies[2].ID}
	data, err := a.CutoutBatchFITS(ids)
	if err != nil {
		t.Fatal(err)
	}
	segments, err := fits.SplitStream(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(segments) != 3 {
		t.Fatalf("segments = %d", len(segments))
	}
	for i, seg := range segments {
		im, err := fits.Decode(bytes.NewReader(seg))
		if err != nil {
			t.Fatal(err)
		}
		if got := im.Header.Str("OBJECT", ""); got != ids[i] {
			t.Errorf("segment %d OBJECT = %q, want %q", i, got, ids[i])
		}
		// Batch segments must be bit-identical to single-cutout responses.
		_, single, err := a.CutoutFITS(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seg, single) {
			t.Errorf("segment %d differs from single cutout", i)
		}
	}
	if _, err := a.CutoutBatchFITS(nil); err == nil {
		t.Error("empty batch must fail")
	}
	if _, err := a.CutoutBatchFITS([]string{"GHOST-1"}); err == nil {
		t.Error("unknown id in batch must fail")
	}
}

func TestCutoutBatchHTTP(t *testing.T) {
	a := testArchive(t)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	c, _ := a.Cluster("COMA")
	ids := c.Galaxies[0].ID + "," + c.Galaxies[1].ID

	// Fetch and split the way the compute service's batch ingest does.
	resp, err := srv.Client().Get(srv.URL + "/cutoutbatch?ids=" + ids)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch fetch: status %d, %v", resp.StatusCode, err)
	}
	segs, err := fits.SplitStream(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("images = %d", len(segs))
	}
	first, err := fits.Decode(bytes.NewReader(segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if first.Header.Str("OBJECT", "") != c.Galaxies[0].ID {
		t.Errorf("first image OBJECT = %q", first.Header.Str("OBJECT", ""))
	}
	// Errors.
	resp, _ = http.Get(srv.URL + "/cutoutbatch")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing ids = %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/cutoutbatch?ids=GHOST-1")
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("unknown id must fail")
	}
}

func TestHandlerFaultInjection(t *testing.T) {
	a := testArchive(t)
	c, _ := a.Cluster("COMA")
	id := c.Galaxies[0].ID
	// Site-down on the first cone search, corruption on the first cutout.
	a.SetInjector(faults.New(1,
		faults.Rule{Name: OpCone, Site: "mast", Kind: faults.KindSiteDown, Until: 1},
		faults.Rule{Name: OpCutout, Site: "mast", Key: id, Kind: faults.KindCorruption, Until: 1},
	))
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	hc := srv.Client()

	// The down archive answers 503 and the client surfaces it.
	if _, err := ConeSearch(hc, srv.URL+"/cone", wcs.New(195, 28), 1, 0); err == nil {
		t.Fatal("cone search against a down archive must fail")
	}
	// A corrupted cutout arrives as a 200 with a damaged FITS payload the
	// client's decoder rejects.
	if _, err := fetchFITS(hc, srv.URL+"/cutout?id="+id); err == nil {
		t.Fatal("corrupted cutout must fail to decode")
	}
	// Both windows have passed: retries succeed.
	tab, err := ConeSearch(hc, srv.URL+"/cone", wcs.New(195, 28), 1, 0)
	if err != nil || tab.NumRows() == 0 {
		t.Fatalf("recovered cone search = %v rows, %v", tab, err)
	}
	if _, err := fetchFITS(hc, srv.URL+"/cutout?id="+id); err != nil {
		t.Fatalf("recovered cutout: %v", err)
	}
	// SIA fault points are independent of cone ones.
	a.SetInjector(faults.New(1,
		faults.Rule{Name: OpSIA, Site: "mast", Kind: faults.KindTimeout, Until: 1},
	))
	if _, err := SIAQuery(hc, srv.URL+"/siacut", wcs.New(195, 28), 0.5, 0); err == nil {
		t.Fatal("SIA against a timed-out archive must fail")
	}
	if _, err := ConeSearch(hc, srv.URL+"/cone", wcs.New(195, 28), 1, 0); err != nil {
		t.Fatalf("cone must be unaffected by SIA rules: %v", err)
	}
	a.SetInjector(nil)
	if _, err := SIAQuery(hc, srv.URL+"/siacut", wcs.New(195, 28), 0.5, 0); err != nil {
		t.Fatalf("nil injector must restore service: %v", err)
	}
}
