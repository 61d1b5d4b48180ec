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
// exactly as a fresh source would), the profile pass's stage buffers, and
// the blur's kernel and line buffer.
type renderScratch struct {
	rng *rand.Rand
	// slab backs every buffer of rows: one allocation, sized for a
	// maxCutoutPx-wide cutout or the widest frame the scratch has painted.
	slab   []float64
	rows   rowStages
	kernel []float64
	line   []float64
}

// rowStages are the structure-of-arrays buffers of the profile pass. xc
// and xs hold dx*cosp and -dx*sinp for every subpixel column (index
// x*os+sx) of the render in progress. The others hold one value for each
// subpixel of a run of at most runPx pixels of a row, at index
// (x*os+sy)*os+sx from the run's first pixel, so a pixel's nine subpixels
// are adjacent in the order they are summed.
type rowStages struct {
	xc, xs []float64
	r      []float64 // radius in the galaxy's frame, px
	rr     []float64 // r/rePx
	th     []float64 // the angle theta, then Cos(theta)
	pw     []float64 // the Sérsic power's log, the power, then the profile
	ph     []float64 // the arms' phase, then its Cos (where r > rArms)
	tr     []float64 // the truncation factor (where r > rTrunc)
}

// maxCutoutPx is the widest cutout CutoutSizePx gives; a pooled scratch's
// column buffers are sized for it on first use.
const maxCutoutPx = 160

// subpixels is the side of the 3x3 subpixel grid each pixel integrates.
const subpixels = 3

// runPx is the number of pixels of a row the profile pass takes through
// its stages at once: 144 independent subpixels a stage are ample for the
// CPU to overlap their calls, and the six stage buffers stay at 7 KB, so
// a pool refill after a GC costs no more than a handful of cutout bytes.
// A whole 160-px row's buffers were 69 KB, and measured about +0.9%
// allocated bytes a galaxy on the cold benchmark for no more speed.
const runPx = 16

// stages returns the stage buffers carved for a size-wide frame, growing
// the slab only when a wider frame than any before comes through.
func (sc *renderScratch) stages(size int) *rowStages {
	const os = subpixels
	const subs = runPx * os * os
	cols := size * os
	if len(sc.slab) < 2*cols+6*subs {
		sc.slab = make([]float64, 2*max(size, maxCutoutPx)*os+6*subs)
	}
	buf := sc.slab
	carve := func(n int) []float64 {
		b := buf[:n:n]
		buf = buf[n:]
		return b
	}
	st := &sc.rows
	st.xc, st.xs = carve(cols), carve(cols)
	st.r, st.rr, st.th = carve(subs), carve(subs), carve(subs)
	st.pw, st.ph, st.tr = carve(subs), carve(subs), carve(subs)
	return st
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
// copy in render_parity_test.go): every subpixel's value is the same float
// operations on the same operands, the pixel sums add them in the same
// order, and the products that depend only on a subpixel's column or row
// are computed once instead of per subpixel (paintProfile).
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
	sc := scratchPool.Get().(*renderScratch)
	defer scratchPool.Put(sc)
	renderInto(im, g, size, noiseSeed, sc)
}

// renderInto is RenderGalaxyInto drawing its working memory from sc.
//
//nvo:hotpath
func renderInto(im *fits.Image, g *Galaxy, size int, noiseSeed int64, sc *renderScratch) {
	if size <= 0 {
		size = CutoutSizePx(*g)
	}
	im.Reset(size, size, -32)
	cx := float64(size-1) / 2
	cy := float64(size-1) / 2

	sum := paintProfile(im, g, size, sc.stages(size))
	rePx := g.ReArcsec / PixScaleArcsec
	cosp, sinp := math.Cos(g.PA), math.Sin(g.PA)

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

// paintProfile paints the unit-amplitude profile of g into im's size×size
// pixels with 3x3 subpixel integration (steep cores vary strongly within a
// pixel) and returns the sum of the pixels, added in row order.
//
// It works through each row in runs of up to runPx pixels, in stages over
// st's buffers: the geometry of all the run's subpixels, then their Log,
// the Sérsic power's Exp, the profile's Exp, the arms' Log and Cos and the
// m=1 Cos, and the truncation's Exp, before each pixel adds up its nine
// subpixels in sy, sx order. A subpixel's value is the same float
// operations on the same operands as in the straightforward loop (the
// frozen copy in render_parity_test.go); only the evaluation of
// independent subpixels is interleaved, so the long dependent Log → Exp →
// Exp chains of neighbouring subpixels overlap in the CPU instead of
// running one after another.
//
//nvo:hotpath
func paintProfile(im *fits.Image, g *Galaxy, size int, st *rowStages) float64 {
	const os = subpixels
	cx := float64(size-1) / 2
	cy := float64(size-1) / 2
	rePx := g.ReArcsec / PixScaleArcsec
	n := sersicIndex(g.Type)
	bn := 2*n - 1.0/3 + 4/(405*n)
	invN := 1 / n
	fastExp := fracExponent(invN)
	cosp, sinp := math.Cos(g.PA), math.Sin(g.PA)
	rTrunc := 0.42 * float64(size)
	rArms := 0.3 * rePx
	arms := g.ArmAmp > 0

	for x := 0; x < size; x++ {
		for sx := 0; sx < os; sx++ {
			dx := float64(x) + (float64(sx)+0.5)/os - 0.5 - cx
			st.xc[x*os+sx] = dx * cosp
			st.xs[x*os+sx] = -dx * sinp
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
		for x0 := 0; x0 < size; x0 += runPx {
			x1 := min(x0+runPx, size)
			m := (x1 - x0) * os * os
			r, rr, th, pw, ph, tr := st.r[:m], st.rr[:m], st.th[:m], st.pw[:m], st.ph[:m], st.tr[:m]
			// Geometry: the subpixel's radius and angle in the galaxy's frame.
			i := 0
			for x := x0; x < x1; x++ {
				xc, xs := st.xc[x*os:x*os+os], st.xs[x*os:x*os+os]
				for sy := 0; sy < os; sy++ {
					for sx := 0; sx < os; sx++ {
						u := xc[sx] + ys[sy]
						v := (xs[sx] + yc[sy]) / g.AxisRatio
						ri := math.Hypot(u, v)
						r[i] = ri
						th[i] = math.Atan2(v, u)
						rr[i] = ri / rePx
						i++
					}
				}
			}
			// The Sérsic power fracPow(rr, invN), its Log and its Exp in
			// stages of their own, then the profile's Exp.
			if fastExp {
				for i, x := range rr {
					if fracBase(x) {
						pw[i] = fracPowLog(x, invN)
					}
				}
				for i, x := range rr {
					if fracBase(x) {
						pw[i] = fracPowExp(x, invN, pw[i])
					} else {
						pw[i] = math.Pow(x, invN)
					}
				}
			} else {
				for i, x := range rr {
					pw[i] = math.Pow(x, invN)
				}
			}
			for i, p := range pw {
				pw[i] = math.Exp(-bn * p)
			}
			// m=2 logarithmic spiral arms outside the core, then the m=1
			// lopsidedness's Cos of theta itself.
			if arms {
				for i, ri := range r {
					if ri > rArms {
						ph[i] = 2*th[i] - 2.2*math.Log(rr[i]+1)*2*math.Pi
					}
				}
				for i, ri := range r {
					if ri > rArms {
						ph[i] = cos(ph[i])
					}
				}
			}
			for i, t := range th {
				th[i] = cos(t)
			}
			for i, ri := range r {
				if ri > rTrunc {
					tr[i] = math.Exp(-(ri - rTrunc))
				}
			}
			// Each pixel's sum of its nine subpixels, in sy, sx order.
			i = 0
			for x := x0; x < x1; x++ {
				var f float64
				for k := 0; k < os*os; k++ {
					s := sat(rr[i])
					p := pw[i]
					// m=1 lopsidedness grows with radius (tidal features
					// live in the outskirts).
					p *= 1 + g.Lopside*th[i]*s
					if arms && r[i] > rArms {
						p *= 1 + g.ArmAmp*ph[i]*s
					}
					if r[i] > rTrunc {
						p *= tr[i]
					}
					if p > 0 {
						f += p
					}
					i++
				}
				f /= os * os
				im.Data[y*size+x] = f
				sum += f
			}
		}
	}
	return sum
}

// fracPow is math.Pow(x, y) for the Sérsic exponents 1/n: for finite x > 0
// (x != 1) and 0 < y < 1 (y != 1/2) it runs the steps math.Pow takes for
// those operands — Exp(yf*Log(x)) with yf folded to [-1/2, 1/2], times x's
// Frexp mantissa and exponent when the fold borrowed 1 — without the
// special-case tests and the Modf in front. Every other operand goes to
// math.Pow itself. The render kernel runs its two halves, fracPowLog and
// fracPowExp, as separate stages.
func fracPow(x, y float64) float64 {
	if !fracBase(x) || !fracExponent(y) {
		return math.Pow(x, y)
	}
	return fracPowExp(x, y, fracPowLog(x, y))
}

// fracBase and fracExponent report whether x and y are operands fracPow
// computes itself rather than handing to math.Pow.
func fracBase(x float64) bool     { return x > 0 && x <= math.MaxFloat64 && x != 1 }
func fracExponent(y float64) bool { return y > 0 && y < 1 && y != 0.5 }

// fracPowLog is the first half of fracPow(x, y): yf*Log(x), with yf = y
// when y <= 1/2 and y-1 when the fold borrowed 1.
func fracPowLog(x, y float64) float64 {
	if y <= 0.5 {
		return y * math.Log(x)
	}
	return (y - 1) * math.Log(x)
}

// fracPowExp is the second half: Exp of the first, times x's Frexp
// mantissa and exponent when the fold borrowed 1. (math.Pow's Ldexp by a
// zero exponent on the other branch is the identity on every float64.)
func fracPowExp(x, y, l float64) float64 {
	if y <= 0.5 {
		return math.Exp(l)
	}
	x1, xe := math.Frexp(x)
	return math.Ldexp(math.Exp(l)*x1, xe)
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
