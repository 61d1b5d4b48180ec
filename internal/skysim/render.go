package skysim

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/fits"
	"repro/internal/wcs"
)

// Observing parameters shared by the simulated archives.
const (
	// PixScaleArcsec matches the paper's example derivation pixel scale
	// (2.831933107035062e-4 deg ≈ 1.0195 arcsec).
	PixScaleArcsec = 2.831933107035062e-4 * 3600

	// ZeroPointCounts converts magnitudes to detector counts:
	// counts = 10^(-0.4 (mag - ZeroPointCounts)). Chosen so an m=16 cluster
	// galaxy collects ~5·10⁴ counts.
	ZeroPointCounts = 27.8

	// SkyLevel and SkyNoise are the background level and per-pixel RMS.
	SkyLevel = 100.0
	SkyNoise = 2.0

	// SeeingSigmaPx is the Gaussian PSF width (≈2.4 px FWHM ≈ 2.4").
	SeeingSigmaPx = 1.0
)

// sersicIndex returns the profile shape for a galaxy type.
func sersicIndex(t GalaxyType) float64 {
	switch t {
	case Elliptical:
		return 4
	case Lenticular:
		return 2.5
	case Spiral:
		return 1.2
	default: // Irregular
		return 1
	}
}

// CutoutSizePx returns the cutout side (pixels) the image archive would use
// for a galaxy: generously 10 effective radii, clamped to [48, 160] and even.
func CutoutSizePx(g Galaxy) int {
	n := int(10 * g.ReArcsec / PixScaleArcsec)
	if n < 48 {
		n = 48
	}
	if n > 160 {
		n = 160
	}
	return n &^ 1
}

// TotalCounts converts the galaxy's apparent magnitude to detector counts.
func TotalCounts(mag float64) float64 {
	return math.Pow(10, -0.4*(mag-ZeroPointCounts))
}

// renderScratch is the per-render working memory RenderGalaxy draws from
// a pool: the random stream (reseeded for each use, which restarts it
// exactly as a fresh source would), the per-column subpixel offset
// products, and the blur's kernel and line buffer.
type renderScratch struct {
	rng *rand.Rand
	// xc and xs hold dx*cosp and -dx*sinp for every subpixel column
	// (index x*os+sx) of the render in progress.
	xc, xs []float64
	kernel []float64
	line   []float64
}

var scratchPool = sync.Pool{New: func() any {
	return &renderScratch{rng: rand.New(rand.NewSource(1))}
}}

// floats returns buf resized to n, reallocating only when it is too short.
func floats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// RenderGalaxy synthesizes the cutout image of a single galaxy centered in a
// size×size frame: a type-dependent Sérsic profile with the galaxy's axis
// ratio and position angle, an m=1 "lopsidedness" perturbation and m=2
// logarithmic spiral arms (both zero for ellipticals), convolved with the
// seeing PSF, over sky background with Gaussian noise. noiseSeed makes the
// realization deterministic.
//
// The pixels are bit-for-bit those of the straightforward loop (the frozen
// copy in render_parity_test.go): the same float operations on the same
// operands in the same order, with the products that depend only on a
// subpixel's column or row computed once instead of per subpixel.
func RenderGalaxy(g Galaxy, size int, noiseSeed int64) *fits.Image {
	im := &fits.Image{}
	RenderGalaxyInto(im, &g, size, noiseSeed)
	return im
}

// RenderGalaxyInto is RenderGalaxy painting into im, which it first Resets
// to the size×size frame: a frame kept from one cutout to the next lends
// its pixels and header cards to the next render, and the result is the
// same image RenderGalaxy gives, pixel bit for bit and card for card.
//
//nvo:hotpath
func RenderGalaxyInto(im *fits.Image, g *Galaxy, size int, noiseSeed int64) {
	if size <= 0 {
		size = CutoutSizePx(*g)
	}
	sc := scratchPool.Get().(*renderScratch)
	defer scratchPool.Put(sc)
	im.Reset(size, size, -32)
	cx := float64(size-1) / 2
	cy := float64(size-1) / 2

	rePx := g.ReArcsec / PixScaleArcsec
	n := sersicIndex(g.Type)
	bn := 2*n - 1.0/3 + 4/(405*n)
	invN := 1 / n
	cosp, sinp := math.Cos(g.PA), math.Sin(g.PA)
	rTrunc := 0.42 * float64(size)
	rArms := 0.3 * rePx

	// Paint the unit-amplitude profile with 3x3 subpixel integration (steep
	// cores vary strongly within a pixel).
	const os = 3
	sc.xc = floats(sc.xc, size*os)
	sc.xs = floats(sc.xs, size*os)
	for x := 0; x < size; x++ {
		for sx := 0; sx < os; sx++ {
			dx := float64(x) + (float64(sx)+0.5)/os - 0.5 - cx
			sc.xc[x*os+sx] = dx * cosp
			sc.xs[x*os+sx] = -dx * sinp
		}
	}
	var sum float64
	for y := 0; y < size; y++ {
		var ys, yc [os]float64
		for sy := 0; sy < os; sy++ {
			dy := float64(y) + (float64(sy)+0.5)/os - 0.5 - cy
			ys[sy] = dy * sinp
			yc[sy] = dy * cosp
		}
		for x := 0; x < size; x++ {
			xc, xs := sc.xc[x*os:x*os+os], sc.xs[x*os:x*os+os]
			var f float64
			for sy := 0; sy < os; sy++ {
				for sx := 0; sx < os; sx++ {
					u := xc[sx] + ys[sy]
					v := (xs[sx] + yc[sy]) / g.AxisRatio
					r := math.Hypot(u, v)
					theta := math.Atan2(v, u)
					rr := r / rePx
					s := sat(rr)
					p := math.Exp(-bn * fracPow(rr, invN))
					// m=1 lopsidedness grows with radius (tidal features
					// live in the outskirts).
					p *= 1 + g.Lopside*math.Cos(theta)*s
					// m=2 logarithmic spiral arms outside the core.
					if g.ArmAmp > 0 && r > rArms {
						phase := 2*theta - 2.2*math.Log(rr+1)*2*math.Pi
						p *= 1 + g.ArmAmp*math.Cos(phase)*s
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
		srng := sc.rng
		srng.Seed(g.StructSeed)
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

	blurGaussian(im, SeeingSigmaPx, sc)

	rng := sc.rng
	rng.Seed(noiseSeed)
	for i := range im.Data {
		im.Data[i] += SkyLevel + rng.NormFloat64()*SkyNoise
	}

	im.Header.Set("OBJECT", g.ID, "galaxy identifier")
	im.Header.Set("REDSHIFT", g.Redshift, "cluster redshift + peculiar velocity")
	im.Header.Set("MAG", g.Mag, "apparent magnitude")
	im.SetWCS(wcs.NewTanProjection(g.Pos, size, size, PixScaleArcsec/3600))
}

// fracPow is math.Pow(x, y) for the Sérsic exponents 1/n: for finite x > 0
// (x != 1) and 0 < y < 1 (y != 1/2) it runs the steps math.Pow takes for
// those operands — Exp(yf*Log(x)) with yf folded to [-1/2, 1/2], times x's
// Frexp mantissa and exponent when the fold borrowed 1 — without the
// special-case tests and the Modf in front. Every other operand goes to
// math.Pow itself.
func fracPow(x, y float64) float64 {
	if !(x > 0 && x <= math.MaxFloat64 && x != 1 && y > 0 && y < 1 && y != 0.5) {
		return math.Pow(x, y)
	}
	if y <= 0.5 {
		return math.Ldexp(math.Exp(y*math.Log(x)), 0)
	}
	x1, xe := math.Frexp(x)
	return math.Ldexp(math.Exp((y-1)*math.Log(x))*x1, xe)
}

// sat is a smooth saturation x/(1+x) used to turn perturbations on with
// radius.
func sat(x float64) float64 { return x / (1 + x) }

// blurGaussian convolves the image in place with a separable Gaussian PSF
// of the given sigma (pixels): rows first, then columns. Each row or column
// is copied into sc.line with its edge pixels repeated radius times on both
// sides, so the taps read the clamped neighbours without a bounds test; the
// sums are the same products added in the same order as over a full-image
// temporary.
//
//nvo:hotpath
func blurGaussian(im *fits.Image, sigma float64, sc *renderScratch) {
	radius := int(3 * sigma)
	if radius < 1 {
		return
	}
	kernel := floats(sc.kernel, 2*radius+1)
	sc.kernel = kernel
	var ksum float64
	for i := range kernel {
		d := float64(i - radius)
		kernel[i] = math.Exp(-d * d / (2 * sigma * sigma))
		ksum += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= ksum
	}
	nx, ny := im.Nx, im.Ny
	line := floats(sc.line, max(nx, ny)+2*radius)
	sc.line = line
	for y := 0; y < ny; y++ {
		row := im.Data[y*nx : (y+1)*nx]
		padLine(line, row, nx, 1, radius)
		for x := range row {
			var s float64
			for k, w := range kernel {
				s += w * line[x+k]
			}
			row[x] = s
		}
	}
	for x := 0; x < nx; x++ {
		padLine(line, im.Data[x:], ny, nx, radius)
		for y := 0; y < ny; y++ {
			var s float64
			for k, w := range kernel {
				s += w * line[y+k]
			}
			im.Data[y*nx+x] = s
		}
	}
}

// padLine copies the n elements src[0], src[stride], ... of one image row
// or column into line[radius:], with the first of them repeated radius
// times before and the last radius times after.
func padLine(line, src []float64, n, stride, radius int) {
	for i := 0; i < n; i++ {
		line[radius+i] = src[i*stride]
	}
	for i := 0; i < radius; i++ {
		line[i] = src[0]
		line[radius+n+i] = src[(n-1)*stride]
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RenderField synthesizes a wide-field optical survey plate of the cluster
// (the DSS analog): every member galaxy is painted as a PSF-blurred Gaussian
// blob of the right total flux at its sky position. Individual structure is
// irrelevant at plate scale, so blobs keep the rendering tractable.
func RenderField(c *Cluster, nx, ny int, pixScaleDeg float64, noiseSeed int64) *fits.Image {
	im := fits.NewImage(nx, ny, -32)
	proj := wcs.NewTanProjection(c.Center, nx, ny, pixScaleDeg)
	for gi, g := range c.Galaxies {
		px, py, ok := proj.SkyToPixel(g.Pos)
		if !ok {
			continue
		}
		// 0-based pixel coordinates.
		px--
		py--
		sigma := g.ReArcsec / 3600 / pixScaleDeg
		if sigma < 0.8 {
			sigma = 0.8
		}
		amp := TotalCounts(g.Mag) / (2 * math.Pi * sigma * sigma)
		r := int(4*sigma) + 1
		x0 := clampInt(int(px)-r, 0, nx-1)
		x1 := clampInt(int(px)+r, 0, nx-1)
		y0 := clampInt(int(py)-r, 0, ny-1)
		y1 := clampInt(int(py)+r, 0, ny-1)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				dx := float64(x) - px
				dy := float64(y) - py
				im.Data[y*nx+x] += amp * math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma))
			}
		}
		_ = gi
	}
	rng := rand.New(rand.NewSource(noiseSeed))
	for i := range im.Data {
		im.Data[i] += SkyLevel + rng.NormFloat64()*SkyNoise
	}
	im.Header.Set("OBJECT", c.Name, "cluster")
	im.Header.Set("SURVEY", "SIMDSS", "simulated optical survey")
	im.SetWCS(proj)
	return im
}

// XRayBeta are the standard beta-model parameters for the simulated
// intracluster medium emission.
const (
	xrayBeta = 0.66
	xrayPeak = 500.0
)

// RenderXRay synthesizes the cluster's X-ray surface brightness (the
// ROSAT/Chandra analog): an isothermal beta model
// S(r) = S0·(1+(r/rc)²)^(−3β+1/2) centered on the cluster, tracing the hot
// intra-cluster gas that marks the dynamical center.
func RenderXRay(c *Cluster, nx, ny int, pixScaleDeg float64, noiseSeed int64) *fits.Image {
	im := fits.NewImage(nx, ny, -32)
	proj := wcs.NewTanProjection(c.Center, nx, ny, pixScaleDeg)
	cxPix, cyPix, _ := proj.SkyToPixel(c.Center)
	cxPix--
	cyPix--
	rcPx := c.CoreRadiusDeg / pixScaleDeg
	expo := -3*xrayBeta + 0.5
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			dx := float64(x) - cxPix
			dy := float64(y) - cyPix
			r2 := (dx*dx + dy*dy) / (rcPx * rcPx)
			im.Data[y*nx+x] = xrayPeak * math.Pow(1+r2, expo)
		}
	}
	rng := rand.New(rand.NewSource(noiseSeed))
	for i := range im.Data {
		// Photon-counting noise: sqrt(signal) + detector floor.
		im.Data[i] += rng.NormFloat64() * (math.Sqrt(math.Abs(im.Data[i])) + 1)
		if im.Data[i] < 0 {
			im.Data[i] = 0
		}
	}
	im.Header.Set("OBJECT", c.Name, "cluster")
	im.Header.Set("TELESCOP", "SIMXRAY", "simulated X-ray mission")
	im.SetWCS(proj)
	return im
}
