package skysim

import (
	"math"
	"testing"

	"repro/internal/morphology"
	"repro/internal/wcs"
)

func testSpec(n int) Spec {
	return Spec{
		Name:        "TEST",
		Center:      wcs.New(150, 2),
		Redshift:    0.05,
		NumGalaxies: n,
		Seed:        42,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testSpec(100))
	b := Generate(testSpec(100))
	if len(a.Galaxies) != 100 || len(b.Galaxies) != 100 {
		t.Fatalf("counts: %d, %d", len(a.Galaxies), len(b.Galaxies))
	}
	for i := range a.Galaxies {
		if a.Galaxies[i] != b.Galaxies[i] {
			t.Fatalf("galaxy %d differs between identical seeds", i)
		}
	}
	c := Generate(Spec{Name: "TEST", Center: wcs.New(150, 2), Redshift: 0.05, NumGalaxies: 100, Seed: 43})
	same := 0
	for i := range a.Galaxies {
		if a.Galaxies[i].Pos == c.Galaxies[i].Pos {
			same++
		}
	}
	if same == 100 {
		t.Error("different seeds must give different skies")
	}
}

func TestGenerateUniqueIDsAndSanePropertiess(t *testing.T) {
	c := Generate(testSpec(500))
	seen := map[string]bool{}
	for _, g := range c.Galaxies {
		if seen[g.ID] {
			t.Fatalf("duplicate ID %s", g.ID)
		}
		seen[g.ID] = true
		if g.AxisRatio <= 0 || g.AxisRatio > 1 {
			t.Errorf("%s axis ratio %v", g.ID, g.AxisRatio)
		}
		if g.ReArcsec <= 0 || g.ReArcsec > 20 {
			t.Errorf("%s Re %v", g.ID, g.ReArcsec)
		}
		if g.Mag < 10 || g.Mag > 30 {
			t.Errorf("%s mag %v", g.ID, g.Mag)
		}
		if got := c.Center.Separation(g.Pos); math.Abs(got-g.RadiusDeg) > 1e-6 {
			t.Errorf("%s RadiusDeg %v but separation %v", g.ID, g.RadiusDeg, got)
		}
	}
}

func TestDensityProfileCentrallyConcentrated(t *testing.T) {
	c := Generate(testSpec(2000))
	var inner, outer int
	for _, g := range c.Galaxies {
		if g.RadiusDeg < c.CoreRadiusDeg {
			inner++
		}
		if g.RadiusDeg > 4*c.CoreRadiusDeg {
			outer++
		}
	}
	if inner < 100 {
		t.Errorf("only %d galaxies inside the core radius", inner)
	}
	// Surface density inside rc must exceed the 4-8 rc annulus density.
	innerDensity := float64(inner) / (math.Pi * c.CoreRadiusDeg * c.CoreRadiusDeg)
	outerArea := math.Pi * c.CoreRadiusDeg * c.CoreRadiusDeg * (64 - 16)
	outerDensity := float64(outer) / outerArea
	if innerDensity < 5*outerDensity {
		t.Errorf("density contrast too weak: inner %v vs outer %v", innerDensity, outerDensity)
	}
}

func TestMorphologyDensityRelation(t *testing.T) {
	c := Generate(testSpec(4000))
	mids, fracs := c.EllipticalFractionByRadius(4, 8*c.CoreRadiusDeg)
	if len(mids) != 4 {
		t.Fatalf("bins = %d", len(mids))
	}
	if fracs[0] < fracs[3]+0.15 {
		t.Errorf("early-type fraction must fall with radius: inner %v outer %v", fracs[0], fracs[3])
	}
}

func TestEllipticalFractionDegenerate(t *testing.T) {
	c := Generate(testSpec(10))
	if m, f := c.EllipticalFractionByRadius(0, 1); m != nil || f != nil {
		t.Error("zero bins must return nil")
	}
	// Empty bins yield NaN, not a panic.
	_, fracs := c.EllipticalFractionByRadius(100, 10)
	sawNaN := false
	for _, f := range fracs {
		if math.IsNaN(f) {
			sawNaN = true
		}
	}
	if !sawNaN {
		t.Log("note: expected some empty bins with 10 galaxies and 100 bins")
	}
}

func TestCatalogExport(t *testing.T) {
	c := Generate(testSpec(50))
	cat := c.Catalog()
	if cat.Len() != 50 {
		t.Fatalf("catalog size %d", cat.Len())
	}
	rec, ok := cat.Get(c.Galaxies[0].ID)
	if !ok {
		t.Fatal("first galaxy missing from catalog")
	}
	if rec.Prop("true_type") == "" || rec.Prop("mag") == "" || rec.Prop("z") == "" {
		t.Errorf("catalog properties missing: %+v", rec.Props)
	}
	hits := cat.ConeSearch(c.Center, 8*c.CoreRadiusDeg*1.01)
	if len(hits) != 50 {
		t.Errorf("cone search around center found %d of 50", len(hits))
	}
}

func TestGalaxyLookup(t *testing.T) {
	c := Generate(testSpec(10))
	if _, ok := c.Galaxy(c.Galaxies[3].ID); !ok {
		t.Error("existing galaxy not found")
	}
	if _, ok := c.Galaxy("nope"); ok {
		t.Error("missing galaxy found")
	}
}

func TestRenderGalaxyMeasurable(t *testing.T) {
	c := Generate(testSpec(200))
	cfg := morphology.DefaultConfig(c.Redshift)
	okCount := 0
	for i, g := range c.Galaxies[:30] {
		im := RenderGalaxy(g, 0, int64(i))
		p, err := morphology.Measure(im, cfg)
		if err != nil {
			continue
		}
		if p.Valid {
			okCount++
		}
	}
	if okCount < 25 {
		t.Errorf("only %d/30 rendered galaxies measurable", okCount)
	}
}

func TestRenderedMorphologySeparatesTypes(t *testing.T) {
	// The pipeline's asymmetry must statistically separate rendered
	// ellipticals from spirals — this is the physical content of Figure 7.
	c := Generate(testSpec(3000))
	cfg := morphology.DefaultConfig(c.Redshift)
	var sumE, sumS float64
	var nE, nS int
	for i, g := range c.Galaxies {
		if nE >= 25 && nS >= 25 {
			break
		}
		switch g.Type {
		case Elliptical:
			if nE >= 25 {
				continue
			}
		case Spiral:
			if nS >= 25 {
				continue
			}
		default:
			continue
		}
		im := RenderGalaxy(g, 0, int64(i))
		p, err := morphology.Measure(im, cfg)
		if err != nil || !p.Valid {
			continue
		}
		if g.Type == Elliptical {
			sumE += p.Asymmetry
			nE++
		} else {
			sumS += p.Asymmetry
			nS++
		}
	}
	if nE < 15 || nS < 15 {
		t.Fatalf("not enough measurable galaxies: E=%d S=%d", nE, nS)
	}
	meanE := sumE / float64(nE)
	meanS := sumS / float64(nS)
	if meanS <= meanE+0.03 {
		t.Errorf("spiral asymmetry %v must clearly exceed elliptical %v", meanS, meanE)
	}
}

func TestRenderGalaxyHasWCSAndHeader(t *testing.T) {
	c := Generate(testSpec(5))
	g := c.Galaxies[0]
	im := RenderGalaxy(g, 64, 1)
	if im.Nx != 64 || im.Ny != 64 {
		t.Fatalf("size %dx%d", im.Nx, im.Ny)
	}
	p, ok := im.WCS()
	if !ok {
		t.Fatal("cutout must carry WCS")
	}
	if p.Center.Separation(g.Pos) > 1e-9 {
		t.Error("WCS not centered on the galaxy")
	}
	if im.Header.Str("OBJECT", "") != g.ID {
		t.Error("OBJECT header missing")
	}
	if im.Header.Float("REDSHIFT", 0) == 0 {
		t.Error("REDSHIFT header missing")
	}
}

func TestCutoutSizePx(t *testing.T) {
	small := Galaxy{ReArcsec: 0.1}
	if CutoutSizePx(small) != 48 {
		t.Errorf("small galaxy cutout %d, want clamp to 48", CutoutSizePx(small))
	}
	big := Galaxy{ReArcsec: 100}
	if CutoutSizePx(big) != 160 {
		t.Errorf("big galaxy cutout %d, want clamp to 160", CutoutSizePx(big))
	}
	mid := Galaxy{ReArcsec: 8}
	n := CutoutSizePx(mid)
	if n%2 != 0 || n < 48 || n > 160 {
		t.Errorf("mid cutout %d", n)
	}
}

func TestRenderField(t *testing.T) {
	c := Generate(testSpec(300))
	im := RenderField(c, 256, 256, 2*8*c.CoreRadiusDeg/256, 9)
	if im.Nx != 256 {
		t.Fatal("bad size")
	}
	// The field center must be brighter than the corners (cluster core).
	var center, corner float64
	for y := 120; y < 136; y++ {
		for x := 120; x < 136; x++ {
			center += im.At(x, y)
		}
	}
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			corner += im.At(x, y)
		}
	}
	if center <= corner {
		t.Errorf("cluster core (%v) not brighter than corner (%v)", center, corner)
	}
	if _, ok := im.WCS(); !ok {
		t.Error("field must carry WCS")
	}
}

func TestRenderXRay(t *testing.T) {
	c := Generate(testSpec(50))
	im := RenderXRay(c, 128, 128, 2*8*c.CoreRadiusDeg/128, 10)
	peak := im.At(63, 63)
	edge := im.At(2, 2)
	if peak < 5*edge {
		t.Errorf("beta model peak %v vs edge %v: contrast too weak", peak, edge)
	}
	for _, v := range im.Data {
		if v < 0 {
			t.Fatal("X-ray counts must be non-negative")
		}
	}
	if im.Header.Str("TELESCOP", "") != "SIMXRAY" {
		t.Error("X-ray header missing")
	}
}

func TestStandardClusters(t *testing.T) {
	specs := StandardClusters()
	if len(specs) != 8 {
		t.Fatalf("want 8 clusters, got %d", len(specs))
	}
	if specs[0].NumGalaxies != 37 || specs[7].NumGalaxies != 561 {
		t.Errorf("galaxy counts must span the paper's 37-561: %d..%d",
			specs[0].NumGalaxies, specs[7].NumGalaxies)
	}
	names := map[string]bool{}
	total := 0
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate cluster name %s", s.Name)
		}
		names[s.Name] = true
		total += s.NumGalaxies
	}
	if total < 1152 {
		t.Errorf("total galaxies %d < 1152 jobs the paper ran", total)
	}
}

func TestGalaxyTypeString(t *testing.T) {
	if Elliptical.String() != "E" || Spiral.String() != "Sp" ||
		Lenticular.String() != "S0" || Irregular.String() != "Irr" {
		t.Error("type labels wrong")
	}
	if GalaxyType(99).String() == "" {
		t.Error("unknown type must still format")
	}
}

// BenchmarkRenderGalaxy renders the benchmark's SURVEY galaxies (sky seed
// 77) in catalog order, each at its own cutout size: the archive's mix of
// types and sizes, not one galaxy at one size.
func BenchmarkRenderGalaxy(b *testing.B) {
	c := Generate(Spec{Name: "SURVEY", Center: wcs.New(150, 2), Redshift: 0.04, NumGalaxies: 1000, Seed: 77})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RenderGalaxy(c.Galaxies[i%len(c.Galaxies)], 0, int64(i))
	}
}

func BenchmarkGenerateCluster500(b *testing.B) {
	spec := testSpec(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(spec)
	}
}

func BenchmarkRenderField(b *testing.B) {
	c := Generate(testSpec(300))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RenderField(c, 512, 512, 0.001, int64(i))
	}
}

// TestGalaxyLookupMatchesScan: Cluster.Galaxy, which reads the member index
// out of the ID, answers every SURVEY ID and every near miss as a scan of the
// members does.
func TestGalaxyLookupMatchesScan(t *testing.T) {
	c := Generate(Spec{Name: "SURVEY", Center: wcs.New(150, 2), Redshift: 0.04, NumGalaxies: 1000, Seed: 77})
	scan := func(id string) (Galaxy, bool) {
		for _, g := range c.Galaxies {
			if g.ID == id {
				return g, true
			}
		}
		return Galaxy{}, false
	}
	ids := []string{"", "-", "SURVEY", "SURVEY-", "SURVEY-1", "SURVEY-0000001", "SURVEY-001000",
		"SURVEY-999999", "SURVEY-+00001", "SURVEY--00001", "SURVEY-00000x", "COMA-000001",
		"XSURVEY-000001", "SURVEY-000001 ", "SURVEY-99999999999999999999999"}
	for _, g := range c.Galaxies {
		ids = append(ids, g.ID)
	}
	for _, id := range ids {
		got, ok := c.Galaxy(id)
		want, wantOK := scan(id)
		if got != want || ok != wantOK {
			t.Errorf("Galaxy(%q) = %v, %v; the scan finds %v, %v", id, got.ID, ok, want.ID, wantOK)
		}
	}
	if _, ok := c.Galaxy("SURVEY-000999"); !ok {
		t.Error("Galaxy misses the last member")
	}
}
