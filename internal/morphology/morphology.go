// Package morphology computes the three galaxy-morphology parameters the
// paper's science prototype derives from each galaxy cutout image (§2,
// following Conselice 2003):
//
//   - Average surface brightness — detected light per unit sky area.
//   - Concentration index — C = 5·log10(r80/r20), separating uniform disks
//     from core-dominated ellipticals.
//   - Asymmetry index — the normalized residual between the image and its
//     180°-rotation, separating spirals (asymmetric) from ellipticals
//     (symmetric).
//
// Measure is the computational payload of the Chimera transformation
//
//	TR galMorph(in redshift, in pixScale, in zeroPoint, in Ho, in om,
//	            in flat, in image, out galMorph)
//
// and Config mirrors that argument list. Failures (blank or corrupted
// cutouts) are reported through Params.Valid rather than aborting, matching
// the prototype's fault-tolerance design (§4.3.1 item 4).
package morphology

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/arena"
	"repro/internal/fits"
)

// scratch holds the growth-curve buffers — typed slices with their own
// grow policy, which is why they are not arena slabs like every float
// buffer a measurement uses: px takes the samples in raster order, ordered
// and counts are the scatter target and bucket table of radialOrder.
// Measurements run inside parallel leaf jobs, so the buffers live in a
// sync.Pool; each in-flight measurement owns one scratch exclusively.
type scratch struct {
	px      []gcPixel
	ordered []gcPixel
	counts  []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// pixels returns the growth-curve buffer, empty, with capacity for n
// samples. The grow-on-demand make lives here — outside the annotated hot
// path — so allocation policy stays in one reviewed place.
func (sc *scratch) pixels(n int) []gcPixel {
	if cap(sc.px) < n {
		sc.px = make([]gcPixel, 0, n)
	}
	return sc.px[:0]
}

// orderBuffers returns radialOrder's scatter target (n samples) and its
// bucket table (n zeroed counts). Both grow to the capacity of px, which
// holds the samples being ordered, so a worker regrows them once per image
// size rather than once per larger aperture.
func (sc *scratch) orderBuffers(n int) ([]gcPixel, []int32) {
	if cap(sc.ordered) < n {
		c := max(n, cap(sc.px))
		sc.ordered = make([]gcPixel, c)
		sc.counts = make([]int32, c)
	}
	counts := sc.counts[:n]
	clear(counts)
	return sc.ordered[:n], counts
}

// Config carries the per-galaxy inputs of the galMorph transformation.
type Config struct {
	Redshift    float64   // galaxy redshift (z)
	PixScaleDeg float64   // pixel scale, degrees/pixel (paper: 2.83e-4)
	ZeroPoint   float64   // photometric zero point, mag
	Cosmology   Cosmology // Ho, om, flat
}

// DefaultConfig returns the parameter values the paper's example derivation
// uses: Ho=100, om=0.3, flat=1.
func DefaultConfig(redshift float64) Config {
	return Config{
		Redshift:    redshift,
		PixScaleDeg: 2.831933107035062e-4,
		ZeroPoint:   0,
		Cosmology:   Cosmology{H0: 100, OmegaM: 0.3, Flat: true},
	}
}

// Params is the morphology measurement for one galaxy.
type Params struct {
	// The paper's three morphology parameters.
	SurfaceBrightness float64 // mean surface brightness, mag/arcsec²
	Concentration     float64 // C = 5 log10(r80/r20)
	Asymmetry         float64 // A in [0, ~1]

	// Supporting measurements.
	TotalFlux      float64 // background-subtracted flux in the aperture
	Background     float64 // estimated sky level, counts/pixel
	NoiseSigma     float64 // estimated sky noise, counts/pixel
	CentroidX      float64 // flux-weighted center, 0-based pixels
	CentroidY      float64
	ApertureRadius float64 // analysis aperture, pixels
	R20, R80       float64 // growth-curve radii, pixels
	AbsoluteMag    float64 // total magnitude corrected by distance modulus
	PhysicalR80Kpc float64 // r80 converted to kpc at the galaxy redshift
	SNR            float64 // total flux / noise in aperture

	// Fault-tolerance flag (§4.3.1 item 4): false means the computation
	// failed and Err says why; numeric fields are then meaningless.
	Valid bool
	Err   string
}

// Measurement failure reasons.
var (
	ErrEmptyImage = errors.New("morphology: empty image")
	ErrNoSignal   = errors.New("morphology: no significant flux above background")
	ErrTooSmall   = errors.New("morphology: image too small")
)

// minImageDim is the smallest cutout side Measure accepts.
const minImageDim = 8

// detectionSNR is the minimum aperture signal-to-noise for a measurement to
// count as a detection.
const detectionSNR = 5

// Measure computes the morphology parameters of the galaxy in im. It never
// panics on bad pixel data; unrecoverable inputs produce a Params with
// Valid=false and a non-nil error describing the failure. im.Data belongs to
// the caller and stays physical: the measurement works on an arena copy.
func Measure(im *fits.Image, cfg Config) (Params, error) {
	if im == nil || len(im.Data) == 0 {
		return invalid(ErrEmptyImage), ErrEmptyImage
	}
	if err := checkSize(im.Nx, im.Ny); err != nil {
		return invalid(err), err
	}
	a := arena.Get()
	defer arena.Put(a)
	data := a.Floats(len(im.Data))
	copy(data, im.Data)
	return measure(a, data, im.Nx, im.Ny, cfg)
}

// MeasureRaw measures the galaxy in an encoded FITS image without first
// materializing a decoded Image: the pixels stream from a zero-copy
// fits.View into an arena-backed buffer. Results and errors are those of
// fits.Decode followed by Measure, while the per-galaxy heap traffic drops
// to the handful of strings the header scan needs.
//
//nvo:hotpath
func MeasureRaw(a *arena.Arena, raw []byte, cfg Config) (Params, error) {
	v, err := fits.ParseView(raw)
	if err == nil {
		err = checkSize(v.Nx, v.Ny)
	}
	if err != nil {
		return invalid(err), err
	}
	return measure(a, v.ReadInto(a.Floats(v.NPix())), v.Nx, v.Ny, cfg)
}

// checkSize rejects cutouts too small to measure, before any pixel buffer
// is sized.
func checkSize(nx, ny int) error {
	if nx < minImageDim || ny < minImageDim {
		return fmt.Errorf("%w: %dx%d (min %d)", ErrTooSmall, nx, ny, minImageDim)
	}
	return nil
}

// measure is the one measurement prologue: finite check, sky background,
// subtraction, then the measurement core. data is an arena slab private to
// this measurement, so the background is subtracted in place.
//
//nvo:hotpath
func measure(a *arena.Arena, data []float64, nx, ny int, cfg Config) (Params, error) {
	for _, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			err := errors.New("morphology: non-finite pixel values")
			return invalid(err), err
		}
	}
	bg, sigma := estimateBackground(data, nx, ny, a.Floats(borderSamples(nx, ny)))
	for i := range data {
		data[i] -= bg
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return measureSub(data, nx, ny, bg, sigma, cfg, sc)
}

// measureSub is the shared measurement core: sub holds background-
// subtracted pixels (which it may reorder or reuse but never grows), and
// the returned Params are a pure function of (sub, nx, ny, bg, sigma, cfg).
//
//nvo:hotpath
func measureSub(sub []float64, nx, ny int, bg, sigma float64, cfg Config, sc *scratch) (Params, error) {
	cx, cy, ok := centroid(sub, nx, ny, 2*sigma)
	if !ok {
		return invalid(ErrNoSignal), ErrNoSignal
	}

	r20, r80, total, rap := growthCurve(sub, nx, ny, cx, cy, sc)
	if total <= 0 || r80 <= 0 {
		return invalid(ErrNoSignal), ErrNoSignal
	}

	// Detection criterion: the aperture flux must be significant, or the
	// "galaxy" is just sky noise and the job should be flagged invalid
	// rather than emitting garbage numbers (§4.3.1 item 4).
	nPix := float64(pixelsWithin(nx, ny, cx, cy, rap))
	if sigma > 0 {
		if snr := total / (sigma * math.Sqrt(nPix)); snr < detectionSNR {
			return invalid(ErrNoSignal), ErrNoSignal
		}
	}

	p := Params{
		Background:     bg,
		NoiseSigma:     sigma,
		CentroidX:      cx,
		CentroidY:      cy,
		TotalFlux:      total,
		R20:            r20,
		R80:            r80,
		ApertureRadius: rap,
		Valid:          true,
	}

	// Concentration. Radii below half a pixel are unresolved; clamp both so
	// an unresolved source measures C = 0 rather than a spurious value.
	if r20 < 0.5 {
		r20 = 0.5
	}
	if r80 < r20 {
		r80 = r20
	}
	p.Concentration = 5 * math.Log10(r80/r20)

	// Asymmetry, minimized over a small grid of rotation centers.
	p.Asymmetry = asymmetry(sub, nx, ny, cx, cy, rap, sigma)

	// Average surface brightness within the aperture, mag/arcsec².
	pixArcsec := cfg.PixScaleDeg * 3600
	if pixArcsec <= 0 {
		pixArcsec = 1
	}
	areaArcsec2 := nPix * pixArcsec * pixArcsec
	p.SurfaceBrightness = cfg.ZeroPoint - 2.5*math.Log10(total/areaArcsec2)

	// Noise within the aperture and SNR.
	if sigma > 0 && nPix > 0 {
		p.SNR = total / (sigma * math.Sqrt(nPix))
	} else {
		p.SNR = math.Inf(1)
	}

	// Physical quantities, when a redshift and sane cosmology are supplied.
	if cfg.Redshift > 0 && cfg.Cosmology.Validate() == nil {
		mu, kpcPerArcsec := cfg.Cosmology.scales(cfg.Redshift)
		apparentMag := cfg.ZeroPoint - 2.5*math.Log10(total)
		p.AbsoluteMag = apparentMag - mu
		p.PhysicalR80Kpc = r80 * pixArcsec * kpcPerArcsec
	}
	return p, nil
}

func invalid(err error) Params {
	return Params{Valid: false, Err: err.Error()}
}

// EstimateBackground returns a sigma-clipped estimate of the sky level and
// noise from the image border (the galaxy is centered in an NVO cutout, so
// the border is sky). Exposed for tests and for the image simulator's
// calibration checks.
func EstimateBackground(im *fits.Image) (level, sigma float64) {
	a := arena.Get()
	defer arena.Put(a)
	return estimateBackground(im.Data, im.Nx, im.Ny, a.Floats(borderSamples(im.Nx, im.Ny)))
}

// borderWidth is the sky-border width estimateBackground samples.
func borderWidth(nx, ny int) int {
	border := nx / 10
	if b2 := ny / 10; b2 < border {
		border = b2
	}
	if border < 2 {
		border = 2
	}
	return border
}

// borderSamples is the exact number of border pixels estimateBackground
// collects for an nx-by-ny image — callers size the vals buffer with it.
func borderSamples(nx, ny int) int {
	border := borderWidth(nx, ny)
	inner := 0
	if w, h := nx-2*border, ny-2*border; w > 0 && h > 0 {
		inner = w * h
	}
	return nx*ny - inner
}

// estimateBackground is EstimateBackground over a caller-supplied sample
// buffer, which must have capacity for borderSamples(nx, ny) values and is
// reordered in place by the clipping.
//
//nvo:hotpath
func estimateBackground(data []float64, nx, ny int, vals []float64) (level, sigma float64) {
	return sigmaClip(borderPixels(data, nx, ny, vals), 3, 5)
}

// borderPixels appends the border pixels of the image to vals[:0] in raster
// order and returns them: whole rows in the top and bottom borders, and the
// left and right strips of every other row — a row with no interior (the
// image narrower than two borders) is appended whole. Interior pixels are
// never visited.
//
//nvo:hotpath
func borderPixels(data []float64, nx, ny int, vals []float64) []float64 {
	border := borderWidth(nx, ny)
	vals = vals[:0]
	for y := 0; y < ny; y++ {
		row := data[y*nx : (y+1)*nx]
		if y < border || y >= ny-border || nx-border <= border {
			vals = append(vals, row...)
			continue
		}
		vals = append(vals, row[:border]...)
		vals = append(vals, row[nx-border:]...)
	}
	return vals
}

// sigmaClip iteratively rejects outliers beyond k standard deviations and
// returns the surviving mean and standard deviation. It reorders vals in
// place (the caller's scratch buffer) instead of copying. The clipping pass
// also sums the survivors, in order, so the next round's mean starts from
// that sum instead of a pass of its own.
//
//nvo:hotpath
func sigmaClip(vals []float64, k float64, iters int) (mean, sd float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	work, sum := vals, sumOf(vals)
	for it := 0; it < iters; it++ {
		mean, sd = meanStd(work, sum)
		if sd == 0 {
			return mean, sd
		}
		kept := work[:0]
		var keptSum float64
		for _, v := range work {
			if math.Abs(v-mean) <= k*sd {
				kept = append(kept, v)
				keptSum += v
			}
		}
		switch {
		case len(kept) == len(work):
			return mean, sd // nothing clipped: work is as it was
		case len(kept) < 8:
			// Too few survivors: the statistics of work as the in-place
			// filter left it.
			return meanStd(work, sumOf(work))
		}
		work, sum = kept, keptSum
	}
	return meanStd(work, sum)
}

//nvo:hotpath
func sumOf(vals []float64) (sum float64) {
	for _, v := range vals {
		sum += v
	}
	return sum
}

// meanStd returns the mean and standard deviation of vals, given sum, the
// sum of vals in order.
//
//nvo:hotpath
func meanStd(vals []float64, sum float64) (mean, sd float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	mean = sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(vals)))
}

// centroid returns the flux-weighted center of pixels above threshold,
// iterated once within a shrinking window for robustness against neighbors.
//
//nvo:hotpath
func centroid(sub []float64, nx, ny int, threshold float64) (cx, cy float64, ok bool) {
	cx, cy, ok = weightedCenter(sub, nx, ny, threshold) // whole image
	if !ok {
		return 0, 0, false
	}
	// Refine within a window of half the image size around the first pass.
	r := float64(min(nx, ny)) / 3
	if cx2, cy2, ok2 := weightedCenterAround(sub, nx, ny, threshold, cx, cy, r); ok2 {
		return cx2, cy2, true
	}
	return cx, cy, true
}

//nvo:hotpath
func weightedCenter(sub []float64, nx, ny int, threshold float64) (float64, float64, bool) {
	var sw, sx, sy float64
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			v := sub[y*nx+x]
			if v > threshold {
				sw += v
				sx += v * float64(x)
				sy += v * float64(y)
			}
		}
	}
	return fluxCenter(sw, sx, sy)
}

// weightedCenterAround is weightedCenter restricted to the pixels within r
// of (cx, cy).
//
//nvo:hotpath
func weightedCenterAround(sub []float64, nx, ny int, threshold, cx, cy, r float64) (float64, float64, bool) {
	var sw, sx, sy float64
	r2 := r * r
	for y := 0; y < ny; y++ {
		dy := float64(y) - cy
		a, b := rowSpan(0, nx-1, cx, dy*dy, r2)
		row := y * nx
		for x := a; x < b; x++ {
			v := sub[row+x]
			if v > threshold {
				sw += v
				sx += v * float64(x)
				sy += v * float64(y)
			}
		}
	}
	return fluxCenter(sw, sx, sy)
}

// fluxCenter turns flux-weighted sums into a centre. A finite image whose
// sums overflow (sw = +Inf gives NaN) has no usable centre: every bound and
// bucket downstream is computed from it, so it is rejected here rather than
// by whatever a NaN happens to convert to.
//
//nvo:hotpath
func fluxCenter(sw, sx, sy float64) (cx, cy float64, ok bool) {
	if sw <= 0 {
		return 0, 0, false
	}
	cx, cy = sx/sw, sy/sw
	if math.IsNaN(cx) || math.IsInf(cx, 0) || math.IsNaN(cy) || math.IsInf(cy, 0) {
		return 0, 0, false
	}
	return cx, cy, true
}

// gcPixel is one growth-curve sample: squared radius and value. The flat
// pixel index, the tie-break of the order, is the sample's position in the
// raster-ordered buffer and is not stored.
type gcPixel struct {
	r2 float64
	v  float64
}

// growthCurve orders pixels by radius about (cx, cy) and finds the radii
// enclosing 20% and 80% of the total flux, the total flux, and the analysis
// aperture (1.5·r80, clipped to the image). Pixels order on squared radius —
// monotone in radius, no per-pixel Hypot — with the flat index as tie-break,
// so equal-radius pixels accumulate in a fixed raster order.
//
//nvo:hotpath
func growthCurve(sub []float64, nx, ny int, cx, cy float64, sc *scratch) (r20, r80, total, rap float64) {
	maxR := maxUsableRadius(nx, ny, cx, cy)
	maxR2 := maxR * maxR
	pixels := radialOrder(radialSamples(sub, nx, ny, cx, cy, maxR, sc), maxR2, sc)

	// Signed sum: sky noise cancels instead of biasing the total upward,
	// which is what lets the SNR detection test reject blank cutouts.
	for _, p := range pixels {
		total += p.v
	}
	if total <= 0 {
		return 0, 0, 0, 0
	}
	var cum float64
	for _, p := range pixels {
		cum += p.v
		if r20 == 0 && cum >= 0.2*total {
			r20 = math.Sqrt(p.r2)
		}
		if r80 == 0 && cum >= 0.8*total {
			r80 = math.Sqrt(p.r2)
			break
		}
	}
	if r80 == 0 {
		// Noise dips kept the cumulative sum below 80% until the very edge.
		r80 = math.Sqrt(pixels[len(pixels)-1].r2)
	}
	rap = 1.5 * r80
	if rap > maxR {
		rap = maxR
	}
	if rap < 3 {
		rap = 3
	}
	return r20, r80, total, rap
}

// radialSamples collects the growth-curve samples — every pixel within maxR
// of (cx, cy) — into sc.px in raster order and returns them.
//
//nvo:hotpath
func radialSamples(sub []float64, nx, ny int, cx, cy, maxR float64, sc *scratch) []gcPixel {
	maxR2 := maxR * maxR
	xlo, xhi, ylo, yhi := boundingBox(nx, ny, cx, cy, maxR)
	pixels := sc.pixels(nx * ny)
	for y := ylo; y <= yhi; y++ {
		dy := float64(y) - cy
		dy2 := dy * dy
		a, b := rowSpan(xlo, xhi, cx, dy2, maxR2)
		row := y * nx
		for x := a; x < b; x++ {
			dx := float64(x) - cx
			pixels = append(pixels, gcPixel{r2: dx*dx + dy2, v: sub[row+x]})
		}
	}
	sc.px = pixels
	return pixels
}

// radialOrder returns the samples of pixels in ascending (r2, idx) order —
// the total order a comparison sort on that key would give — in time linear
// in len(pixels). pixels must arrive in ascending idx (raster) order with
// every r2 in [0, maxR2]; the result lives in sc until its next use.
//
// The key is geometric: the number of pixels within radius r of any centre
// grows as r², so r2 is uniformly distributed over [0, maxR2] and n equal
// buckets hold about one sample each, whatever the pixel values are. A
// stable counting scatter on the bucket (monotone in r2) followed by a
// stable insertion pass on r2 therefore yields the exact order: samples in
// different buckets are already ordered, and samples of equal r2 share a
// bucket and are never exchanged, so they stay in raster order.
//
//nvo:hotpath
func radialOrder(pixels []gcPixel, maxR2 float64, sc *scratch) []gcPixel {
	scattered := bucketScatter(pixels, maxR2, sc)
	insertionByR2(scattered)
	return scattered
}

// bucketScatter copies pixels, stably, into len(pixels) equal-width buckets
// of r2 over [0, maxR2].
//
//nvo:hotpath
func bucketScatter(pixels []gcPixel, maxR2 float64, sc *scratch) []gcPixel {
	n := len(pixels)
	out, counts := sc.orderBuffers(n)
	scale := float64(n) / maxR2
	for i := range pixels {
		counts[radialBucket(pixels[i].r2, scale, n)]++
	}
	var start int32
	for k, c := range counts {
		counts[k] = start // where bucket k begins in out
		start += c
	}
	for i := range pixels {
		k := radialBucket(pixels[i].r2, scale, n)
		out[counts[k]] = pixels[i]
		counts[k]++
	}
	return out
}

// radialBucket maps a squared radius to its bucket in [0, n): monotone in
// r2, and clamped whatever the key — r2 == maxR2 lands one past the end, and
// the integer value of a non-finite product is implementation-defined.
//
//nvo:hotpath
func radialBucket(r2, scale float64, n int) int {
	k := int(r2 * scale)
	if k >= n {
		k = n - 1
	}
	if k < 0 {
		k = 0
	}
	return k
}

// insertionByR2 is a stable insertion sort on r2 alone; on bucketScatter's
// output every move stays inside one bucket.
//
//nvo:hotpath
func insertionByR2(pixels []gcPixel) {
	for i := 1; i < len(pixels); i++ {
		if pixels[i-1].r2 <= pixels[i].r2 {
			continue
		}
		p := pixels[i]
		j := i
		for j > 0 && pixels[j-1].r2 > p.r2 {
			pixels[j] = pixels[j-1]
			j--
		}
		pixels[j] = p
	}
}

// boundingBox clips the axis-aligned box enclosing the circle (cx, cy, r)
// to the image, so aperture loops skip rows and columns that cannot pass
// the radius test. rowSpan then selects, within the box, exactly the pixels
// that pass it.
//
//nvo:hotpath
func boundingBox(nx, ny int, cx, cy, r float64) (xlo, xhi, ylo, yhi int) {
	xlo = int(math.Ceil(cx - r))
	if xlo < 0 {
		xlo = 0
	}
	xhi = int(math.Floor(cx + r))
	if xhi > nx-1 {
		xhi = nx - 1
	}
	ylo = int(math.Ceil(cy - r))
	if ylo < 0 {
		ylo = 0
	}
	yhi = int(math.Floor(cy + r))
	if yhi > ny-1 {
		yhi = ny - 1
	}
	return xlo, xhi, ylo, yhi
}

// maxUsableRadius is the largest circle about (cx, cy) fully inside the image.
//
//nvo:hotpath
func maxUsableRadius(nx, ny int, cx, cy float64) float64 {
	r := cx
	if v := float64(nx-1) - cx; v < r {
		r = v
	}
	if cy < r {
		r = cy
	}
	if v := float64(ny-1) - cy; v < r {
		r = v
	}
	if r < 1 {
		r = 1
	}
	return r
}

// rowSpan returns the run [a, b) of x in [xlo, xhi] with
//
//	dx := float64(x) - cx; dx*dx+dy2 <= r2
//
// — the aperture loops' radius test, spelled as they spell it, so it rounds
// as they do. That set is one run: the test's left side is rounded from
// |dx|, which falls monotonically towards cx and rises after it. math.Sqrt
// guesses the ends; each end is then moved by re-testing the predicate until
// it is exact, so rounding in the guess can cost a step but never a pixel.
// An empty run has a == b (DESIGN.md "Measurement kernel: exact row spans").
//
//nvo:hotpath
func rowSpan(xlo, xhi int, cx, dy2, r2 float64) (a, b int) {
	rem := r2 - dy2
	if xlo > xhi || rem < 0 {
		// dy2 > r2: every dx*dx+dy2 rounds to at least dy2, so no x passes.
		return xlo, xlo
	}
	in := func(x int) bool {
		dx := float64(x) - cx
		return dx*dx+dy2 <= r2
	}
	// The guess [ceil(cx-h), floor(cx+h)+1) clamped to the row; a NaN
	// (from a NaN or infinite input) leaves the whole row, which the walks
	// below then narrow exactly.
	a, b = xlo, xhi+1
	h := math.Sqrt(rem)
	if g := math.Ceil(cx - h); g > float64(xlo) {
		a = int(min(g, float64(xhi+1)))
	}
	if g := math.Floor(cx+h) + 1; g < float64(xhi+1) {
		b = int(max(g, float64(xlo)))
	}
	// The guess touches the run whenever the run is non-empty, so widening
	// then narrowing each end lands on its exact boundary.
	for a > xlo && in(a-1) {
		a--
	}
	for a < b && !in(a) {
		a++
	}
	for b <= xhi && in(b) {
		b++
	}
	for b > a && !in(b-1) {
		b--
	}
	return a, b
}

// pixelsWithin counts the pixels within r of (cx, cy).
//
//nvo:hotpath
func pixelsWithin(nx, ny int, cx, cy, r float64) int {
	n := 0
	r2 := r * r
	xlo, xhi, ylo, yhi := boundingBox(nx, ny, cx, cy, r)
	for y := ylo; y <= yhi; y++ {
		dy := float64(y) - cy
		a, b := rowSpan(xlo, xhi, cx, dy*dy, r2)
		n += b - a
	}
	return n
}

// asymmetry computes A = min_c Σ|I − I180(c)| / (2 Σ|I|) over a 3×3 grid of
// rotation centers at half-pixel steps around the centroid, restricted to the
// analysis aperture. The minimization removes the spurious asymmetry a
// miscentered rotation introduces (Conselice 2003 §3). A noise term measured
// by rotating a pure-background annulus is subtracted.
//
//nvo:hotpath
func asymmetry(sub []float64, nx, ny int, cx, cy, rap, sigma float64) float64 {
	best := math.Inf(1)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			a := asymmetryAt(sub, nx, ny, cx+0.5*float64(dx), cy+0.5*float64(dy), rap)
			if a < best {
				best = a
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	// First-order noise correction: each |I - I180| term accumulates
	// ~2σ/√(2π)·2 of pure noise per pixel pair; estimate it directly by
	// computing the same statistic on a sign-scrambled noise field is
	// overkill here, so subtract the analytic expectation.
	if sigma > 0 {
		sumAbs, n := apertureAbs(sub, nx, ny, cx, cy, rap)
		if sumAbs > 0 {
			noise := float64(n) * sigma * 2 / math.Sqrt(math.Pi) // E|N(0,σ)-N(0,σ)| = 2σ/√π
			best -= noise / (2 * sumAbs)
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// apertureAbs returns Σ|I| over the pixels within rap of (cx, cy), and
// their number: the scale of asymmetry's noise term.
//
//nvo:hotpath
func apertureAbs(sub []float64, nx, ny int, cx, cy, rap float64) (sumAbs float64, n int) {
	r2 := rap * rap
	xlo, xhi, ylo, yhi := boundingBox(nx, ny, cx, cy, rap)
	for y := ylo; y <= yhi; y++ {
		dy := float64(y) - cy
		a, b := rowSpan(xlo, xhi, cx, dy*dy, r2)
		row := y * nx
		for x := a; x < b; x++ {
			sumAbs += math.Abs(sub[row+x])
		}
		n += b - a
	}
	return sumAbs, n
}

// asymmetryAt evaluates the asymmetry statistic for one rotation center.
//
// The 180° rotation maps (x, y) to (2cx − x, 2cy − y). Because x and y walk
// integer pixels, the fractional parts of the rotated coordinates are the
// constants frac(2cx) and frac(2cy): the four bilinear weights are fixed for
// the whole aperture, and the rotated sample's integer cell just walks
// backwards (floor(2cx) − x). That turns the inner loop's general bilinear
// lookup — float floor, bounds checks, weight products per pixel — into four
// indexed loads against precomputed weights.
//
//nvo:hotpath
func asymmetryAt(sub []float64, nx, ny int, cx, cy, rap float64) float64 {
	var num, den float64
	r2 := rap * rap
	tx := 2 * cx // exact: scaling by 2 does not round
	ty := 2 * cy

	// Integer x with the rotated coordinate in [0, nx-1]: rx = tx − x ≥ 0
	// ⟺ x ≤ floor(tx); rx ≤ nx−1 ⟺ x ≥ ceil(tx−(nx−1)). Likewise for y.
	rxMin := int(math.Ceil(tx - float64(nx-1)))
	rxMax := int(math.Floor(tx))
	ryMin := int(math.Ceil(ty - float64(ny-1)))
	ryMax := int(math.Floor(ty))

	// Constant bilinear weights: fx = frac(2cx), fy = frac(2cy).
	fx := tx - float64(rxMax)
	fy := ty - float64(ryMax)
	gx := 1 - fx
	gy := 1 - fy

	// Only pixels whose rotated sample lies in the image take part.
	xlo, xhi, ylo, yhi := boundingBox(nx, ny, cx, cy, rap)
	xlo, xhi = max(xlo, rxMin), min(xhi, rxMax)
	ylo, yhi = max(ylo, ryMin), min(yhi, ryMax)
	for y := ylo; y <= yhi; y++ {
		dy := float64(y) - cy
		a, b := rowSpan(xlo, xhi, cx, dy*dy, r2)
		row := y * nx
		ry0 := ryMax - y // floor(ty − y), since y is an integer
		ry1 := ry0 + 1
		if ry1 >= ny {
			ry1 = ny - 1 // fy is 0 here; the clamped sample has zero weight
		}
		rrow0 := ry0 * nx
		rrow1 := ry1 * nx
		for x := a; x < b; x++ {
			v := sub[row+x]
			rx0 := rxMax - x
			rx1 := rx0 + 1
			if rx1 >= nx {
				rx1 = nx - 1
			}
			rv := sub[rrow0+rx0]*gx*gy + sub[rrow0+rx1]*fx*gy +
				sub[rrow1+rx0]*gx*fy + sub[rrow1+rx1]*fx*fy
			num += math.Abs(v - rv)
			den += math.Abs(v)
		}
	}
	if den <= 0 {
		return math.Inf(1)
	}
	return num / (2 * den)
}
