package wcs

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewNormalizes(t *testing.T) {
	cases := []struct {
		inRA, inDec  float64
		wantRA, wDec float64
	}{
		{0, 0, 0, 0},
		{360, 10, 0, 10},
		{-10, 10, 350, 10},
		{725, -95, 5, -90},
		{359.999, 95, 359.999, 90},
	}
	for _, c := range cases {
		got := New(c.inRA, c.inDec)
		if !almostEq(got.RA, c.wantRA, 1e-9) || !almostEq(got.Dec, c.wDec, 1e-9) {
			t.Errorf("New(%v,%v) = %v, want RA=%v Dec=%v", c.inRA, c.inDec, got, c.wantRA, c.wDec)
		}
	}
}

func TestSeparationKnownValues(t *testing.T) {
	cases := []struct {
		a, b SkyCoord
		want float64
	}{
		{New(0, 0), New(0, 0), 0},
		{New(0, 0), New(1, 0), 1},
		{New(0, 0), New(0, 1), 1},
		{New(0, 89), New(180, 89), 2},   // across the pole
		{New(0, 0), New(180, 0), 180},   // antipodal on the equator
		{New(10, 0), New(350, 0), 20},   // straddling RA wrap
		{New(0, 90), New(123, 90), 0},   // same pole regardless of RA
		{New(0, 90), New(45, -90), 180}, // pole to pole
	}
	for _, c := range cases {
		got := c.a.Separation(c.b)
		if !almostEq(got, c.want, 1e-9) {
			t.Errorf("Separation(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSeparationSymmetric(t *testing.T) {
	f := func(ra1, dec1, ra2, dec2 float64) bool {
		a := New(math.Mod(ra1, 360), math.Mod(dec1, 90))
		b := New(math.Mod(ra2, 360), math.Mod(dec2, 90))
		s1 := a.Separation(b)
		s2 := b.Separation(a)
		return almostEq(s1, s2, 1e-9) && s1 >= 0 && s1 <= 180+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeparationTriangleInequality(t *testing.T) {
	f := func(ra1, dec1, ra2, dec2, ra3, dec3 float64) bool {
		a := New(math.Mod(ra1, 360), math.Mod(dec1, 90))
		b := New(math.Mod(ra2, 360), math.Mod(dec2, 90))
		c := New(math.Mod(ra3, 360), math.Mod(dec3, 90))
		return a.Separation(c) <= a.Separation(b)+b.Separation(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	c := New(150, 30)
	for _, pa := range []float64{0, 45, 90, 180, 270, 333} {
		for _, sep := range []float64{0.001, 0.1, 1, 5} {
			o := c.Offset(pa, sep)
			if got := c.Separation(o); !almostEq(got, sep, 1e-9) {
				t.Errorf("Offset(pa=%v, sep=%v): separation = %v", pa, sep, got)
			}
			if gotPA := c.PositionAngle(o); !almostEq(gotPA, pa, 1e-6) {
				t.Errorf("Offset(pa=%v, sep=%v): position angle = %v", pa, sep, gotPA)
			}
		}
	}
}

func TestTanProjectionCenter(t *testing.T) {
	p := NewTanProjection(New(200, 47), 512, 512, 1.0/3600)
	x, y, ok := p.SkyToPixel(p.Center)
	if !ok {
		t.Fatal("center not projectable")
	}
	if !almostEq(x, 256.5, 1e-9) || !almostEq(y, 256.5, 1e-9) {
		t.Errorf("center maps to (%v,%v), want (256.5,256.5)", x, y)
	}
}

func TestTanProjectionRoundTrip(t *testing.T) {
	p := NewTanProjection(New(10, -30), 1024, 768, 0.5/3600)
	for _, px := range []struct{ x, y float64 }{
		{1, 1}, {512.5, 384.5}, {1024, 768}, {100.25, 700.75},
	} {
		sky := p.PixelToSky(px.x, px.y)
		x, y, ok := p.SkyToPixel(sky)
		if !ok {
			t.Fatalf("pixel (%v,%v) round trip not projectable", px.x, px.y)
		}
		if !almostEq(x, px.x, 1e-6) || !almostEq(y, px.y, 1e-6) {
			t.Errorf("round trip (%v,%v) -> (%v,%v)", px.x, px.y, x, y)
		}
	}
}

func TestTanProjectionSkyRoundTrip(t *testing.T) {
	f := func(dra, ddec float64) bool {
		// Offsets within ~0.5 degree of the projection center.
		dra = math.Mod(dra, 0.5)
		ddec = math.Mod(ddec, 0.5)
		p := NewTanProjection(New(120, 15), 2048, 2048, 1.0/3600)
		in := New(120+dra, 15+ddec)
		x, y, ok := p.SkyToPixel(in)
		if !ok {
			return false
		}
		out := p.PixelToSky(x, y)
		return in.Separation(out) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTanProjectionFarHemisphere(t *testing.T) {
	p := NewTanProjection(New(0, 0), 100, 100, 1.0/3600)
	if _, _, ok := p.SkyToPixel(New(180, 0)); ok {
		t.Error("antipodal point must not be projectable")
	}
}

func TestTanProjectionRAAxisDirection(t *testing.T) {
	// With the conventional negative CDELT1, larger RA means smaller x.
	p := NewTanProjection(New(100, 0), 100, 100, 1.0/3600)
	x1, _, _ := p.SkyToPixel(New(100.001, 0))
	x0, _, _ := p.SkyToPixel(New(100, 0))
	if x1 >= x0 {
		t.Errorf("RA east should map to decreasing x: x(RA+eps)=%v x(RA)=%v", x1, x0)
	}
}

func TestSexagesimalRoundTrip(t *testing.T) {
	for _, c := range []SkyCoord{
		New(0, 0), New(10.68471, 41.26875), New(359.99, -89.9), New(182.5, 2.0),
	} {
		s := c.FormatSexagesimal()
		got, err := ParseSexagesimal(s)
		if err != nil {
			t.Fatalf("ParseSexagesimal(%q): %v", s, err)
		}
		if c.Separation(got) > 0.5/3600 { // half an arcsecond
			t.Errorf("round trip %v -> %q -> %v", c, s, got)
		}
	}
}

func TestParseSexagesimalErrors(t *testing.T) {
	for _, s := range []string{
		"", "12:00:00", "12:00 +45:00:00", "aa:bb:cc +45:00:00",
		"12:00:00 +95:00:00", "12:-1:00 +45:00:00", "12:00:00 +45:00:00 extra",
	} {
		if _, err := ParseSexagesimal(s); err == nil {
			t.Errorf("ParseSexagesimal(%q): want error", s)
		}
	}
}

func TestPositionAngleCardinal(t *testing.T) {
	c := New(180, 0)
	north := New(180, 1)
	east := New(181, 0)
	if pa := c.PositionAngle(north); !almostEq(pa, 0, 1e-9) {
		t.Errorf("PA to north = %v, want 0", pa)
	}
	if pa := c.PositionAngle(east); !almostEq(pa, 90, 1e-6) {
		t.Errorf("PA to east = %v, want 90", pa)
	}
}

func BenchmarkSeparation(b *testing.B) {
	a := New(150.1, 2.2)
	c := New(150.2, 2.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Separation(c)
	}
}

func BenchmarkTanSkyToPixel(b *testing.B) {
	p := NewTanProjection(New(150, 2), 2048, 2048, 1.0/3600)
	c := New(150.1, 2.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _ = p.SkyToPixel(c)
	}
}

func TestSkyCoordString(t *testing.T) {
	s := New(10.5, -3.25).String()
	if s != "RA=10.50000 Dec=-3.25000" {
		t.Errorf("String = %q", s)
	}
}

// TestSexagesimalRefusesNonFinite: a component that parses as NaN or ±Inf, or
// components whose sum overflows, are refused, not turned into a coordinate.
func TestSexagesimalRefusesNonFinite(t *testing.T) {
	for _, s := range []string{
		"NaN:00:00 +00:00:00", "00:00:00 +NaN:00:00", "Inf:00:00 +00:00:00", "00:00:00 -00:Inf:00",
		"00:00:+Infinity +00:00:00", "1e308:1e308:1e308 +00:00:00",
	} {
		if c, err := ParseSexagesimal(s); err == nil {
			t.Errorf("ParseSexagesimal(%q) = %v, want an error", s, c)
		}
	}
}

// TestFormatSexagesimalCarries: a value a hair below a field's wrap rounds up
// into the next field instead of printing 60.
func TestFormatSexagesimalCarries(t *testing.T) {
	for _, tc := range []struct {
		c    SkyCoord
		want string
	}{
		{New(15*(1-1e-7), 0), "01:00:00.00 +00:00:00.0"},
		{New(360-1e-9, 0), "00:00:00.00 +00:00:00.0"},
		{New(0, 1-1e-7), "00:00:00.00 +01:00:00.0"},
		{New(0, -(30 - 1e-7)), "00:00:00.00 -30:00:00.0"},
		{New(10.68471, 41.26875), "00:42:44.33 +41:16:07.5"},
	} {
		if got := tc.c.FormatSexagesimal(); got != tc.want {
			t.Errorf("%v.FormatSexagesimal() = %q, want %q", tc.c, got, tc.want)
		}
	}
}

// FuzzSexagesimal: ParseSexagesimal never panics and accepts only finite
// coordinates in range; formatting any coordinate prints no field as 60 or
// more, and parses back to within the printed precision.
func FuzzSexagesimal(f *testing.F) {
	f.Add("12:30:45.5 -10:20:30.1", 15*(1-1e-7), 0.0)
	f.Add("NaN:00:00 +00:00:00", 359.9999999999, -89.99999999)
	f.Add("+Inf:0:0 +0:0:0", 0.0, 90.0)
	f.Add("1e308:1e308:1e308 +0:0:0", -720.5, -0.0)
	f.Fuzz(func(t *testing.T, s string, ra, dec float64) {
		if c, err := ParseSexagesimal(s); err == nil {
			if math.IsNaN(c.RA) || math.IsInf(c.RA, 0) || math.IsNaN(c.Dec) || c.Dec < -90 || c.Dec > 90 {
				t.Fatalf("ParseSexagesimal(%q) accepted %v", s, c)
			}
			checkSexagesimalRoundTrip(t, c)
		}
		if !math.IsNaN(ra) && !math.IsInf(ra, 0) && !math.IsNaN(dec) {
			checkSexagesimalRoundTrip(t, New(ra, dec))
		}
	})
}

// checkSexagesimalRoundTrip formats c and parses it back: minutes and seconds
// below 60, RA within half a hundredth of a second of time (wrapping at 24h),
// Dec within half a tenth of an arcsecond.
func checkSexagesimalRoundTrip(t *testing.T, c SkyCoord) {
	t.Helper()
	s := c.FormatSexagesimal()
	var h, m, dd, dm int
	var sec, dsec float64
	var sign byte
	if _, err := fmt.Sscanf(s, "%d:%d:%f %c%d:%d:%f", &h, &m, &sec, &sign, &dd, &dm, &dsec); err != nil {
		t.Fatalf("%v printed %q: %v", c, s, err)
	}
	if h >= 24 || m >= 60 || sec >= 60 || dm >= 60 || dsec >= 60 {
		t.Fatalf("%v printed a field out of range: %q", c, s)
	}
	got, err := ParseSexagesimal(s)
	if err != nil {
		t.Fatalf("%v printed %q, which does not parse: %v", c, s, err)
	}
	dra := math.Abs(got.RA - c.RA)
	dra = math.Min(dra, 360-dra)
	if dra > 0.005*15/3600*(1+1e-9)+1e-12 || math.Abs(got.Dec-c.Dec) > 0.05/3600*(1+1e-9)+1e-12 {
		t.Fatalf("%v printed %q, which parses to %v", c, s, got)
	}
}
