package skysim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fits"
	"repro/internal/wcs"
)

// legacyRenderGalaxy is RenderGalaxy as it stood before the kernel hoisted
// its offset products, took math.Pow's fractional-exponent path directly,
// blurred through one line buffer and reseeded pooled random streams: every
// subpixel recomputed its offsets, r/rePx and sat, the blur went through a
// full-image temporary, and each call built two fresh sources. Frozen as
// the oracle RenderGalaxy must match bit for bit.
func legacyRenderGalaxy(g Galaxy, size int, noiseSeed int64) *fits.Image {
	if size <= 0 {
		size = CutoutSizePx(g)
	}
	im := fits.NewImage(size, size, -32)
	cx := float64(size-1) / 2
	cy := float64(size-1) / 2

	rePx := g.ReArcsec / PixScaleArcsec
	n := sersicIndex(g.Type)
	bn := 2*n - 1.0/3 + 4/(405*n)
	cosp, sinp := math.Cos(g.PA), math.Sin(g.PA)
	rTrunc := 0.42 * float64(size)

	// Paint the unit-amplitude profile with 3x3 subpixel integration (steep
	// cores vary strongly within a pixel).
	const os = 3
	var sum float64
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			var f float64
			for sy := 0; sy < os; sy++ {
				for sx := 0; sx < os; sx++ {
					dx := float64(x) + (float64(sx)+0.5)/os - 0.5 - cx
					dy := float64(y) + (float64(sy)+0.5)/os - 0.5 - cy
					u := dx*cosp + dy*sinp
					v := (-dx*sinp + dy*cosp) / g.AxisRatio
					r := math.Hypot(u, v)
					theta := math.Atan2(v, u)
					p := math.Exp(-bn * math.Pow(r/rePx, 1/n))
					// m=1 lopsidedness grows with radius (tidal features
					// live in the outskirts).
					p *= 1 + g.Lopside*math.Cos(theta)*sat(r/rePx)
					// m=2 logarithmic spiral arms outside the core.
					if g.ArmAmp > 0 && r > 0.3*rePx {
						phase := 2*theta - 2.2*math.Log(r/rePx+1)*2*math.Pi
						p *= 1 + g.ArmAmp*math.Cos(phase)*sat(r/rePx)
					}
					if r > rTrunc {
						p *= math.Exp(-(r - rTrunc))
					}
					if p > 0 {
						f += p
					}
				}
			}
			f /= os * os
			im.Data[y*size+x] = f
			sum += f
		}
	}

	// Normalize the smooth component to its share of the total counts.
	total := TotalCounts(g.Mag)
	if sum > 0 {
		scale := total * (1 - g.ClumpFrac) / sum
		for i := range im.Data {
			im.Data[i] *= scale
		}
	}

	// Star-forming clumps: the dominant source of measured asymmetry in
	// late-type galaxies. Positions are drawn from the galaxy's own
	// structure seed so its appearance is identical across re-renders.
	if g.ClumpFrac > 0 {
		srng := rand.New(rand.NewSource(g.StructSeed))
		nClumps := 3 + srng.Intn(6)
		per := total * g.ClumpFrac / float64(nClumps)
		for k := 0; k < nClumps; k++ {
			// Random position within ~2.2 Re along the disk ellipse.
			rr := rePx * (0.4 + 1.8*srng.Float64())
			th := srng.Float64() * 2 * math.Pi
			u := rr * math.Cos(th)
			v := rr * math.Sin(th) * g.AxisRatio
			kx := cx + u*cosp - v*sinp
			ky := cy + u*sinp + v*cosp
			cs := 1.0 + srng.Float64() // clump sigma, px
			amp := per / (2 * math.Pi * cs * cs)
			r := int(3*cs) + 1
			for y := clampInt(int(ky)-r, 0, size-1); y <= clampInt(int(ky)+r, 0, size-1); y++ {
				for x := clampInt(int(kx)-r, 0, size-1); x <= clampInt(int(kx)+r, 0, size-1); x++ {
					dx := float64(x) - kx
					dy := float64(y) - ky
					im.Data[y*size+x] += amp * math.Exp(-(dx*dx+dy*dy)/(2*cs*cs))
				}
			}
		}
	}

	legacyBlurGaussian(im, SeeingSigmaPx)

	rng := rand.New(rand.NewSource(noiseSeed))
	for i := range im.Data {
		im.Data[i] += SkyLevel + rng.NormFloat64()*SkyNoise
	}

	im.Header.Set("OBJECT", g.ID, "galaxy identifier")
	im.Header.Set("REDSHIFT", g.Redshift, "cluster redshift + peculiar velocity")
	im.Header.Set("MAG", g.Mag, "apparent magnitude")
	im.SetWCS(wcs.NewTanProjection(g.Pos, size, size, PixScaleArcsec/3600))
	return im
}

func legacyBlurGaussian(im *fits.Image, sigma float64) {
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
				xx := clampInt(x+k-radius, 0, im.Nx-1)
				s += w * im.Data[y*im.Nx+xx]
			}
			tmp[y*im.Nx+x] = s
		}
	}
	for y := 0; y < im.Ny; y++ {
		for x := 0; x < im.Nx; x++ {
			var s float64
			for k, w := range kernel {
				yy := clampInt(y+k-radius, 0, im.Ny-1)
				s += w * tmp[yy*im.Nx+x]
			}
			im.Data[y*im.Nx+x] = s
		}
	}
}

// TestFracPowMatchesPow holds the Sérsic power to math.Pow bit for bit on
// each exponent the renderer uses and on the operands that fall back.
func TestFracPowMatchesPow(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 5e-324, 1e-300, 0.001, 0.3, 0.5, 0.9999999999999999, 1,
		1.0000000000000002, 2, 3.7, 1e10, 1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), -1, -2.5, math.NaN()}
	ys := []float64{0.25, 0.4, 1 / 1.2, 1, 0.5, 0, -0.25, 1.5, 0.75, 5e-324, 0.9999999999999999, math.NaN()}
	for _, y := range ys {
		for _, x := range xs {
			if got, want := fracPow(x, y), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("fracPow(%v, %v) = %v, math.Pow %v", x, y, got, want)
			}
		}
		for r := 1e-6; r < 60; r *= 1.0137 {
			if got, want := fracPow(r, y), math.Pow(r, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("fracPow(%v, %v) = %v, math.Pow %v", r, y, got, want)
			}
		}
	}
}

// sameImage fails t unless got and want hold the same geometry, header
// cards and pixel bits.
func sameImage(t *testing.T, what string, got, want *fits.Image) {
	t.Helper()
	if got.Nx != want.Nx || got.Ny != want.Ny || got.Bitpix != want.Bitpix || len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %dx%d/%d, legacy %dx%d/%d", what, got.Nx, got.Ny, got.Bitpix, want.Nx, want.Ny, want.Bitpix)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: pixel %d = %v, legacy %v", what, i, got.Data[i], want.Data[i])
		}
	}
	gc, wc := got.Header.Cards(), want.Header.Cards()
	if len(gc) != len(wc) {
		t.Fatalf("%s: %d header cards, legacy %d", what, len(gc), len(wc))
	}
	for i := range gc {
		if gc[i] == wc[i] {
			continue
		}
		gv, _ := got.Header.Get(gc[i].Keyword)
		wv, _ := want.Header.Get(wc[i].Keyword)
		if gc[i].Keyword != wc[i].Keyword || gc[i].Comment != wc[i].Comment || !sameBits(gv, wv) {
			t.Fatalf("%s: card %d %#v, legacy %#v", what, i, gc[i], wc[i])
		}
	}
}

// sameBits compares two card values, floats by their bits (NaN included).
func sameBits(a, b any) bool {
	fa, ok1 := a.(float64)
	fb, ok2 := b.(float64)
	return ok1 && ok2 && math.Float64bits(fa) == math.Float64bits(fb)
}

// TestRenderMatchesLegacyOnSurvey renders a spread of the benchmark's
// SURVEY galaxies (every type) at their own cutout size with both kernels.
func TestRenderMatchesLegacyOnSurvey(t *testing.T) {
	c := Generate(Spec{Name: "SURVEY", Center: wcs.New(150, 2), Redshift: 0.04, NumGalaxies: 1000, Seed: 77})
	for i := 0; i < len(c.Galaxies); i += 37 {
		g := c.Galaxies[i]
		sameImage(t, g.ID, RenderGalaxy(g, 0, int64(i)), legacyRenderGalaxy(g, 0, int64(i)))
	}
}

// FuzzRenderGalaxyParity holds RenderGalaxy to the frozen legacy kernel
// over fuzzed galaxy parameters, frame sizes and noise seeds, well outside
// the generator's ranges: zero, negative, infinite and NaN radii, axis
// ratios and amplitudes, huge position angles, any structure seed.
func FuzzRenderGalaxyParity(f *testing.F) {
	f.Add(uint8(0), 16.5, 3.0, 0.8, 0.6, 0.02, 0.0, 0.0, int64(7), uint8(24), int64(1))
	f.Add(uint8(1), 17.0, 2.0, 0.5, 2.1, 0.05, 0.03, 0.02, int64(11), uint8(40), int64(-3))
	f.Add(uint8(2), 18.0, 1.2, 0.3, -1.0, 0.2, 0.5, 0.3, int64(5), uint8(0), int64(99))
	f.Add(uint8(3), 19.0, 0.5, 1.0, 100.0, 0.5, 0.2, 0.5, int64(-8), uint8(3), int64(0))
	f.Add(uint8(3), 21.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, int64(0), uint8(1), int64(0))
	f.Fuzz(func(t *testing.T, typ uint8, mag, re, q, pa, lop, arm, clump float64, structSeed int64, size uint8, noiseSeed int64) {
		g := Galaxy{
			ID: "FUZZ-000001", Pos: wcs.New(150, 2), Type: GalaxyType(typ % 5),
			Mag: mag, ReArcsec: re, AxisRatio: q, PA: pa,
			Lopside: lop, ArmAmp: arm, ClumpFrac: clump, StructSeed: structSeed,
		}
		n := int(size) % 72 // 0 picks the galaxy's own cutout size
		sameImage(t, "fuzz", RenderGalaxy(g, n, noiseSeed), legacyRenderGalaxy(g, n, noiseSeed))
	})
}
