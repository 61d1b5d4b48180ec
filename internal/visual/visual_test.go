package visual

import (
	"strings"
	"testing"

	"repro/internal/fits"
	"repro/internal/votable"
	"repro/internal/wcs"
)

func morphTable() *votable.Table {
	t := votable.NewTable("m",
		votable.Field{Name: "ra", Datatype: votable.TypeDouble},
		votable.Field{Name: "dec", Datatype: votable.TypeDouble},
		votable.Field{Name: "asymmetry", Datatype: votable.TypeDouble},
		votable.Field{Name: "valid", Datatype: votable.TypeBoolean},
	)
	_ = t.AppendRow("195.0", "28.0", "0.02", "T") // E at center
	_ = t.AppendRow("195.1", "28.1", "0.07", "T") // mid
	_ = t.AppendRow("195.2", "27.9", "0.15", "T") // spiral
	_ = t.AppendRow("194.8", "28.2", "0.30", "T") // very asymmetric
	_ = t.AppendRow("194.9", "27.8", "0.50", "F") // invalid
	_ = t.AppendRow("250.0", "-10.0", "0.1", "T") // off map
	_ = t.AppendRow("bogus", "28.0", "0.1", "T")  // unparsable: skipped
	return t
}

func TestSkyMap(t *testing.T) {
	tab := morphTable()
	m, err := SkyMap(tab, wcs.New(195, 28), 0.5, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"E", "o", "s", "*", "."} {
		if !strings.Contains(m, g) {
			t.Errorf("map missing glyph %q:\n%s", g, m)
		}
	}
	if !strings.Contains(m, "legend:") {
		t.Error("legend missing")
	}
	// The center glyph must be the elliptical: row h/2, middle column.
	lines := strings.Split(m, "\n")
	midLine := lines[1+10] // border + half of 20 rows
	if !strings.Contains(midLine, "E") {
		t.Errorf("center row lacks E glyph: %q", midLine)
	}
}

func TestSkyMapErrors(t *testing.T) {
	bad := votable.NewTable("b", votable.Field{Name: "x", Datatype: votable.TypeChar})
	if _, err := SkyMap(bad, wcs.New(0, 0), 1, 40, 20); err == nil {
		t.Error("missing columns must fail")
	}
	if _, err := SkyMap(morphTable(), wcs.New(0, 0), 1, 2, 2); err == nil {
		t.Error("tiny map must fail")
	}
}

func TestSkyMapRAWrap(t *testing.T) {
	tab := votable.NewTable("m",
		votable.Field{Name: "ra", Datatype: votable.TypeDouble},
		votable.Field{Name: "dec", Datatype: votable.TypeDouble},
		votable.Field{Name: "asymmetry", Datatype: votable.TypeDouble},
		votable.Field{Name: "valid", Datatype: votable.TypeBoolean},
	)
	_ = tab.AppendRow("359.9", "0", "0.02", "T")
	_ = tab.AppendRow("0.1", "0", "0.3", "T")
	m, err := SkyMap(tab, wcs.New(0, 0), 0.5, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "E") || !strings.Contains(m, "*") {
		t.Errorf("RA-wrap galaxies missing:\n%s", m)
	}
}

func TestToMirage(t *testing.T) {
	tab := votable.NewTable("t",
		votable.Field{Name: "id", Datatype: votable.TypeChar},
		votable.Field{Name: "surface brightness", Datatype: votable.TypeDouble},
	)
	_ = tab.AppendRow("a", "21.5")
	_ = tab.AppendRow("b", "")
	m := ToMirage(tab)
	lines := strings.Split(strings.TrimSpace(m), "\n")
	if lines[0] != "format id surface_brightness" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "a\t21.5" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "b\tNaN" {
		t.Errorf("empty cell must become NaN: %q", lines[2])
	}
}

func BenchmarkSkyMap(b *testing.B) {
	tab := morphTable()
	center := wcs.New(195, 28)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SkyMap(tab, center, 0.5, 72, 30); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSkyMapOverlay(t *testing.T) {
	// Synthesize an X-ray-like background with WCS and overlay galaxies.
	center := wcs.New(195, 28)
	bg := fits.NewImage(64, 64, -32)
	proj := wcs.NewTanProjection(center, 64, 64, 0.5/32) // 1 deg across
	bg.SetWCS(proj)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			dx := float64(x) - 31.5
			dy := float64(y) - 31.5
			bg.SetAt(x, y, 1000/(1+(dx*dx+dy*dy)/64))
		}
	}
	tab := morphTable()
	m, err := SkyMapOverlay(bg, tab, center, 0.5, 48, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Background shading: the central region must use a denser glyph than
	// the corners.
	if !strings.Contains(m, "%") {
		t.Errorf("no bright background shading:\n%s", m)
	}
	// Galaxies overprinted.
	if !strings.Contains(m, "E") || !strings.Contains(m, "*") {
		t.Errorf("galaxies missing from overlay:\n%s", m)
	}
	if !strings.Contains(m, "X-ray surface brightness") {
		t.Error("legend missing")
	}
}

func TestSkyMapOverlayErrors(t *testing.T) {
	center := wcs.New(0, 0)
	noWCS := fits.NewImage(16, 16, -32)
	if _, err := SkyMapOverlay(noWCS, morphTable(), center, 1, 40, 20); err == nil {
		t.Error("background without WCS must fail")
	}
	withWCS := fits.NewImage(16, 16, -32)
	withWCS.SetWCS(wcs.NewTanProjection(center, 16, 16, 0.001))
	bad := votable.NewTable("b", votable.Field{Name: "x", Datatype: votable.TypeChar})
	if _, err := SkyMapOverlay(withWCS, bad, center, 1, 40, 20); err == nil {
		t.Error("bad table must fail")
	}
	if _, err := SkyMapOverlay(withWCS, morphTable(), center, 1, 2, 2); err == nil {
		t.Error("tiny map must fail")
	}
}

func TestQuantiles(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	th := quantiles(vals, 4)
	if len(th) != 4 {
		t.Fatalf("thresholds = %v", th)
	}
	for i := 1; i < len(th); i++ {
		if th[i] < th[i-1] {
			t.Errorf("thresholds not ascending: %v", th)
		}
	}
	if levelOf(0, th) != 0 || levelOf(100, th) != 4 {
		t.Errorf("levelOf extremes wrong: %d, %d", levelOf(0, th), levelOf(100, th))
	}
}
