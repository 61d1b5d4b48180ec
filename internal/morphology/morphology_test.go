package morphology

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/fits"
)

// renderSersic paints a Sérsic profile I(r) = I0·exp(-b_n·(r/re)^(1/n))
// at (cx, cy) with effective (half-light) radius re, axis ratio q and
// position angle pa, over background bg with Gaussian noise sigma. The
// profile is tapered to zero beyond ~35% of the image size so the high-n
// wings do not contaminate the border sky estimate (real cutout pipelines
// size the cutout to contain the galaxy).
func renderSersic(nx, ny int, cx, cy, i0, re, n, q, pa, bg, sigma float64, seed int64) *fits.Image {
	im := fits.NewImage(nx, ny, -64)
	rng := rand.New(rand.NewSource(seed))
	cosp, sinp := math.Cos(pa), math.Sin(pa)
	bn := 2*n - 1.0/3 + 4/(405*n) // Ciotti & Bertin approximation
	rTrunc := 0.35 * float64(minInt(nx, ny))
	// 4x4 subpixel sampling: steep Sérsic cores vary enormously within one
	// pixel, so point-sampling the center would spike the central pixel.
	const os = 4
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			var flux float64
			for sy := 0; sy < os; sy++ {
				for sx := 0; sx < os; sx++ {
					dx := float64(x) + (float64(sx)+0.5)/os - 0.5 - cx
					dy := float64(y) + (float64(sy)+0.5)/os - 0.5 - cy
					// rotate into the galaxy frame, squeeze the minor axis
					u := dx*cosp + dy*sinp
					v := (-dx*sinp + dy*cosp) / q
					r := math.Hypot(u, v)
					f := i0 * math.Exp(-bn*math.Pow(r/re, 1/n))
					if r > rTrunc {
						f *= math.Exp(-(r - rTrunc))
					}
					flux += f
				}
			}
			im.SetAt(x, y, flux/(os*os))
		}
	}
	blurGaussian(im, 1.2) // atmospheric seeing, so steep cores are resolved
	for i := range im.Data {
		im.Data[i] += bg + rng.NormFloat64()*sigma
	}
	return im
}

// blurGaussian convolves in place with a separable Gaussian PSF.
func blurGaussian(im *fits.Image, sigma float64) {
	radius := int(3 * sigma)
	if radius < 1 {
		return
	}
	kernel := make([]float64, 2*radius+1)
	var ksum float64
	for i := range kernel {
		d := float64(i - radius)
		kernel[i] = math.Exp(-d * d / (2 * sigma * sigma))
		ksum += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= ksum
	}
	tmp := make([]float64, len(im.Data))
	for y := 0; y < im.Ny; y++ {
		for x := 0; x < im.Nx; x++ {
			var s float64
			for k, w := range kernel {
				xx := x + k - radius
				if xx < 0 {
					xx = 0
				}
				if xx >= im.Nx {
					xx = im.Nx - 1
				}
				s += w * im.Data[y*im.Nx+xx]
			}
			tmp[y*im.Nx+x] = s
		}
	}
	for y := 0; y < im.Ny; y++ {
		for x := 0; x < im.Nx; x++ {
			var s float64
			for k, w := range kernel {
				yy := y + k - radius
				if yy < 0 {
					yy = 0
				}
				if yy >= im.Ny {
					yy = im.Ny - 1
				}
				s += w * tmp[yy*im.Nx+x]
			}
			im.Data[y*im.Nx+x] = s
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// renderAsymmetric renders a main blob plus a strong one-sided companion.
func renderAsymmetric(nx, ny int, seed int64) *fits.Image {
	im := renderSersic(nx, ny, float64(nx)/2, float64(ny)/2, 1000, 4, 1, 1, 0, 100, 2, seed)
	// One-sided lump at 1/4 of the image, Gaussian.
	lx, ly := float64(nx)*0.70, float64(ny)*0.62
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			dx := float64(x) - lx
			dy := float64(y) - ly
			im.SetAt(x, y, im.At(x, y)+600*math.Exp(-(dx*dx+dy*dy)/(2*9)))
		}
	}
	return im
}

func cfg() Config { return DefaultConfig(0.0279) }

func TestMeasureSymmetricElliptical(t *testing.T) {
	// de Vaucouleurs-like (n=4): highly concentrated, symmetric.
	im := renderSersic(64, 64, 32, 32, 50000, 5, 4, 0.8, 0.5, 100, 2, 1)
	p, err := Measure(im, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Valid {
		t.Fatalf("invalid: %s", p.Err)
	}
	if p.Asymmetry > 0.12 {
		t.Errorf("elliptical asymmetry = %v, want < 0.12", p.Asymmetry)
	}
	if p.Concentration < 2.5 {
		t.Errorf("elliptical concentration = %v, want > 2.5", p.Concentration)
	}
	if math.Abs(p.CentroidX-32) > 1 || math.Abs(p.CentroidY-32) > 1 {
		t.Errorf("centroid = (%v,%v), want near (32,32)", p.CentroidX, p.CentroidY)
	}
	if math.Abs(p.Background-100) > 1.5 {
		t.Errorf("background = %v, want ~100", p.Background)
	}
}

func TestMeasureDiskLessConcentratedThanElliptical(t *testing.T) {
	disk := renderSersic(64, 64, 32, 32, 1000, 8, 1, 1, 0, 100, 2, 2)
	ell := renderSersic(64, 64, 32, 32, 50000, 5, 4, 1, 0, 100, 2, 3)
	pd, err := Measure(disk, cfg())
	if err != nil {
		t.Fatal(err)
	}
	pe, err := Measure(ell, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if pd.Concentration >= pe.Concentration {
		t.Errorf("disk C=%v should be below elliptical C=%v", pd.Concentration, pe.Concentration)
	}
}

func TestMeasureAsymmetricAboveSymmetric(t *testing.T) {
	sym := renderSersic(64, 64, 32, 32, 1000, 4, 1, 1, 0, 100, 2, 4)
	asym := renderAsymmetric(64, 64, 5)
	ps, err := Measure(sym, cfg())
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Measure(asym, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if pa.Asymmetry <= ps.Asymmetry+0.05 {
		t.Errorf("asymmetric A=%v should clearly exceed symmetric A=%v", pa.Asymmetry, ps.Asymmetry)
	}
}

func TestMeasureBrighterGalaxyBrighterSB(t *testing.T) {
	faint := renderSersic(64, 64, 32, 32, 500, 3, 1, 1, 0, 100, 2, 6)
	bright := renderSersic(64, 64, 32, 32, 5000, 3, 1, 1, 0, 100, 2, 7)
	pf, _ := Measure(faint, cfg())
	pb, _ := Measure(bright, cfg())
	if !pf.Valid || !pb.Valid {
		t.Fatal("both must be valid")
	}
	// Surface brightness is in magnitudes: smaller = brighter.
	if pb.SurfaceBrightness >= pf.SurfaceBrightness {
		t.Errorf("bright SB=%v should be < faint SB=%v (mag scale)", pb.SurfaceBrightness, pf.SurfaceBrightness)
	}
	if pb.TotalFlux <= pf.TotalFlux {
		t.Errorf("bright flux %v <= faint flux %v", pb.TotalFlux, pf.TotalFlux)
	}
}

func TestMeasureOffCenterGalaxy(t *testing.T) {
	im := renderSersic(64, 64, 22, 40, 2000, 3, 1, 1, 0, 100, 2, 8)
	p, err := Measure(im, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.CentroidX-22) > 1.5 || math.Abs(p.CentroidY-40) > 1.5 {
		t.Errorf("centroid = (%v,%v), want near (22,40)", p.CentroidX, p.CentroidY)
	}
	if p.Asymmetry > 0.15 {
		t.Errorf("off-center symmetric galaxy A=%v, want small", p.Asymmetry)
	}
}

func TestMeasureFailsGracefully(t *testing.T) {
	// Blank image: nothing above background.
	blank := fits.NewImage(32, 32, -64)
	rng := rand.New(rand.NewSource(9))
	for i := range blank.Data {
		blank.Data[i] = 100 + rng.NormFloat64()*2
	}
	p, err := Measure(blank, cfg())
	if err == nil || p.Valid {
		t.Errorf("blank image must be invalid, got %+v", p)
	}
	if p.Err == "" {
		t.Error("invalid result must carry a reason")
	}

	// Nil and empty.
	if p, err := Measure(nil, cfg()); err == nil || p.Valid {
		t.Error("nil image must fail")
	}
	// Too small.
	tiny := fits.NewImage(4, 4, -64)
	if p, err := Measure(tiny, cfg()); err == nil || p.Valid {
		t.Error("tiny image must fail")
	}
	// Non-finite pixels.
	bad := fits.NewImage(32, 32, -64)
	bad.Data[5] = math.NaN()
	if p, err := Measure(bad, cfg()); err == nil || p.Valid {
		t.Error("NaN image must fail")
	}
}

func TestMeasureNeverPanicsOnRandomImages(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var images []*fits.Image
	random := func(maxExp int) {
		nx := 8 + rng.Intn(64)
		ny := 8 + rng.Intn(64)
		im := fits.NewImage(nx, ny, -64)
		for j := range im.Data {
			im.Data[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(maxExp)))
		}
		images = append(images, im)
	}
	for i := 0; i < 50; i++ {
		random(6)
	}
	// Extreme magnitudes: finite pixels whose sums overflow.
	for i := 0; i < 20; i++ {
		random(308)
	}
	// All-equal images: no border variance, nothing above background.
	for _, c := range []float64{0, 1, -1, 5e-324, 1.7e308, -1.7e308, math.MaxFloat64} {
		im := fits.NewImage(8+rng.Intn(64), 8+rng.Intn(64), -64)
		for j := range im.Data {
			im.Data[j] = c
		}
		images = append(images, im)
	}
	images = append(images, overflowBlock())

	a := arena.Get()
	defer arena.Put(a)
	for i, im := range images {
		p, err := Measure(im, cfg()) // error is acceptable; panic is not
		a.Reset()
		praw, errRaw := MeasureRaw(a, rawBytes(t, im), cfg())
		if p != praw || (err == nil) != (errRaw == nil) {
			t.Fatalf("image %d: Measure %+v (%v), MeasureRaw %+v (%v)", i, p, err, praw, errRaw)
		}
		if p.Valid {
			if math.IsNaN(p.Asymmetry) || math.IsNaN(p.Concentration) || math.IsNaN(p.SurfaceBrightness) {
				t.Fatalf("image %d: valid result with NaN fields: %+v", i, p)
			}
			if p.Asymmetry < 0 {
				t.Fatalf("image %d: negative asymmetry: %v", i, p.Asymmetry)
			}
		}
	}
}

// overflowBlock is a finite image whose flux-weighted sums are not: an 8x8
// block of 1.7e308 on a zero 64x64 sky.
func overflowBlock() *fits.Image {
	im := fits.NewImage(64, 64, -64)
	for y := 28; y < 36; y++ {
		for x := 28; x < 36; x++ {
			im.SetAt(x, y, 1.7e308)
		}
	}
	return im
}

// TestOverflowingCentroidIsNoSignal: when the centroid sums overflow there
// is no centre, and the measurement says so — it must not hand a NaN centre
// to the aperture bounds and bucket indices computed from it.
func TestOverflowingCentroidIsNoSignal(t *testing.T) {
	im := overflowBlock()
	if cx, cy, ok := centroid(im.Data, im.Nx, im.Ny, 0); ok {
		t.Errorf("centroid of overflowing sums = (%v, %v, ok)", cx, cy)
	}
	if _, _, ok := weightedCenterAround(im.Data, im.Nx, im.Ny, 0, 31.5, 31.5, 20); ok {
		t.Error("windowed centre of overflowing sums reported ok")
	}
	a := arena.Get()
	defer arena.Put(a)
	_, err := Measure(im, cfg())
	_, errRaw := MeasureRaw(a, rawBytes(t, im), cfg())
	if !errors.Is(err, ErrNoSignal) || !errors.Is(errRaw, ErrNoSignal) {
		t.Errorf("Measure: %v, MeasureRaw: %v, want ErrNoSignal from both", err, errRaw)
	}
}

func TestAsymmetryRotationInvariance(t *testing.T) {
	// The asymmetry of an image and its 180°-rotated copy must match closely.
	im := renderAsymmetric(64, 64, 11)
	rot := fits.NewImage(64, 64, -64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			rot.SetAt(63-x, 63-y, im.At(x, y))
		}
	}
	p1, err := Measure(im, cfg())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Measure(rot, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1.Asymmetry-p2.Asymmetry) > 0.02 {
		t.Errorf("A(im)=%v vs A(rot)=%v", p1.Asymmetry, p2.Asymmetry)
	}
}

func TestEstimateBackground(t *testing.T) {
	im := fits.NewImage(50, 50, -64)
	rng := rand.New(rand.NewSource(12))
	for i := range im.Data {
		im.Data[i] = 250 + rng.NormFloat64()*5
	}
	// Bright center should not bias the border estimate.
	for y := 20; y < 30; y++ {
		for x := 20; x < 30; x++ {
			im.SetAt(x, y, 5000)
		}
	}
	level, sigma := EstimateBackground(im)
	if math.Abs(level-250) > 2 {
		t.Errorf("background level = %v, want ~250", level)
	}
	if math.Abs(sigma-5) > 2 {
		t.Errorf("background sigma = %v, want ~5", sigma)
	}
}

func TestSigmaClipRejectsOutliers(t *testing.T) {
	vals := make([]float64, 0, 1000)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 990; i++ {
		vals = append(vals, 10+rng.NormFloat64())
	}
	for i := 0; i < 10; i++ {
		vals = append(vals, 1e6)
	}
	mean, sd := sigmaClip(vals, 3, 5)
	if math.Abs(mean-10) > 0.5 {
		t.Errorf("clipped mean = %v, want ~10", mean)
	}
	if sd > 2 {
		t.Errorf("clipped sd = %v, want ~1", sd)
	}
}

func TestSigmaClipDegenerate(t *testing.T) {
	if m, s := sigmaClip(nil, 3, 5); m != 0 || s != 0 {
		t.Error("empty input must return zeros")
	}
	if m, s := sigmaClip([]float64{7, 7, 7}, 3, 5); m != 7 || s != 0 {
		t.Errorf("constant input = %v, %v", m, s)
	}
}

func BenchmarkMorphologyGalaxy(b *testing.B) {
	im := renderSersic(64, 64, 32, 32, 2000, 3, 2, 0.9, 0.3, 100, 2, 20)
	c := cfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Measure(im, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMorphologyLargeCutout(b *testing.B) {
	im := renderSersic(256, 256, 128, 128, 2000, 10, 2, 0.9, 0.3, 100, 2, 21)
	c := cfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Measure(im, c); err != nil {
			b.Fatal(err)
		}
	}
}
