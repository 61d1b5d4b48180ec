package morphology

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/fits"
	"repro/internal/skysim"
	"repro/internal/wcs"
)

// The kernel's loops as they stood before row spans: every pixel of the
// bounding box (or of the image) runs the radius test. They are frozen here
// as the oracles the span loops must reproduce bit for bit.

func perPixelBorder(data []float64, nx, ny int) []float64 {
	border := borderWidth(nx, ny)
	var vals []float64
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x >= border && x < nx-border && y >= border && y < ny-border {
				continue
			}
			vals = append(vals, data[y*nx+x])
		}
	}
	return vals
}

// twoPassSigmaClip is sigmaClip as it stood with a mean pass of its own per
// round.
func twoPassSigmaClip(vals []float64, k float64, iters int) (mean, sd float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	work := vals
	for it := 0; it < iters; it++ {
		mean, sd = twoPassMeanStd(work)
		if sd == 0 {
			return mean, sd
		}
		kept := work[:0]
		for _, v := range work {
			if math.Abs(v-mean) <= k*sd {
				kept = append(kept, v)
			}
		}
		if len(kept) == len(work) || len(kept) < 8 {
			break
		}
		work = kept
	}
	return twoPassMeanStd(work)
}

func twoPassMeanStd(vals []float64) (mean, sd float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean = sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(vals)))
}

// TestSigmaClipMatchesTwoPass: the clip's fused survivor sum gives the
// two-pass statistics bit for bit through every exit — a constant sample,
// nothing clipped, fewer than eight survivors (statistics of the buffer as
// the in-place filter left it) and the round limit — on heavy-tailed
// samples of every size from one to a few hundred.
func TestSigmaClipMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n < 400; n += 1 + n/8 {
		for trial := 0; trial < 20; trial++ {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = 100 + rng.NormFloat64()*3
				switch r := rng.Float64(); {
				case r < 0.05:
					vals[i] += 1e3 * rng.ExpFloat64() // a star on the border
				case r < 0.07 && trial%5 == 0:
					vals[i] = 100 // ties
				}
			}
			if trial == 1 {
				for i := range vals {
					vals[i] = 7
				}
			}
			for _, iters := range []int{1, 2, 5, 50} {
				for _, k := range []float64{0.5, 1, 3} {
					a, b := slices.Clone(vals), slices.Clone(vals)
					m, s := sigmaClip(a, k, iters)
					wm, ws := twoPassSigmaClip(b, k, iters)
					if math.Float64bits(m) != math.Float64bits(wm) || math.Float64bits(s) != math.Float64bits(ws) || !slices.Equal(a, b) {
						t.Fatalf("n=%d trial %d k=%v iters %d: (%v, %v), two-pass (%v, %v)", n, trial, k, iters, m, s, wm, ws)
					}
				}
			}
		}
	}
}

func perPixelWeightedCenterAround(sub []float64, nx, ny int, threshold, cx, cy, r float64) (float64, float64, bool) {
	var sw, sx, sy float64
	r2 := r * r
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			dx := float64(x) - cx
			dy := float64(y) - cy
			if dx*dx+dy*dy > r2 {
				continue
			}
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

func perPixelCentroid(sub []float64, nx, ny int, threshold float64) (cx, cy float64, ok bool) {
	cx, cy, ok = weightedCenter(sub, nx, ny, threshold)
	if !ok {
		return 0, 0, false
	}
	r := float64(min(nx, ny)) / 3
	if cx2, cy2, ok2 := perPixelWeightedCenterAround(sub, nx, ny, threshold, cx, cy, r); ok2 {
		return cx2, cy2, true
	}
	return cx, cy, true
}

func perPixelRadialSamples(sub []float64, nx, ny int, cx, cy, maxR float64) []gcPixel {
	maxR2 := maxR * maxR
	xlo, xhi, ylo, yhi := boundingBox(nx, ny, cx, cy, maxR)
	var pixels []gcPixel
	for y := ylo; y <= yhi; y++ {
		dy := float64(y) - cy
		dy2 := dy * dy
		row := y * nx
		for x := xlo; x <= xhi; x++ {
			dx := float64(x) - cx
			r2 := dx*dx + dy2
			if r2 > maxR2 {
				continue
			}
			pixels = append(pixels, gcPixel{r2: r2, v: sub[row+x]})
		}
	}
	return pixels
}

func perPixelPixelsWithin(nx, ny int, cx, cy, r float64) int {
	n := 0
	r2 := r * r
	xlo, xhi, ylo, yhi := boundingBox(nx, ny, cx, cy, r)
	for y := ylo; y <= yhi; y++ {
		dy := float64(y) - cy
		dy2 := dy * dy
		for x := xlo; x <= xhi; x++ {
			dx := float64(x) - cx
			if dx*dx+dy2 <= r2 {
				n++
			}
		}
	}
	return n
}

func perPixelApertureAbs(sub []float64, nx, ny int, cx, cy, rap float64) (sumAbs float64, n int) {
	r2 := rap * rap
	xlo, xhi, ylo, yhi := boundingBox(nx, ny, cx, cy, rap)
	for y := ylo; y <= yhi; y++ {
		dyp := float64(y) - cy
		dyp2 := dyp * dyp
		row := y * nx
		for x := xlo; x <= xhi; x++ {
			dxp := float64(x) - cx
			if dxp*dxp+dyp2 <= r2 {
				sumAbs += math.Abs(sub[row+x])
				n++
			}
		}
	}
	return sumAbs, n
}

func perPixelAsymmetryAt(sub []float64, nx, ny int, cx, cy, rap float64) float64 {
	var num, den float64
	r2 := rap * rap
	tx := 2 * cx
	ty := 2 * cy
	rxMin := int(math.Ceil(tx - float64(nx-1)))
	rxMax := int(math.Floor(tx))
	ryMin := int(math.Ceil(ty - float64(ny-1)))
	ryMax := int(math.Floor(ty))
	fx := tx - float64(rxMax)
	fy := ty - float64(ryMax)
	gx := 1 - fx
	gy := 1 - fy
	xlo, xhi, ylo, yhi := boundingBox(nx, ny, cx, cy, rap)
	for y := ylo; y <= yhi; y++ {
		dy := float64(y) - cy
		dy2 := dy * dy
		row := y * nx
		if y < ryMin || y > ryMax {
			continue
		}
		ry0 := ryMax - y
		ry1 := ry0 + 1
		if ry1 >= ny {
			ry1 = ny - 1
		}
		rrow0 := ry0 * nx
		rrow1 := ry1 * nx
		for x := xlo; x <= xhi; x++ {
			dx := float64(x) - cx
			if dx*dx+dy2 > r2 {
				continue
			}
			if x < rxMin || x > rxMax {
				continue
			}
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

// checkRowSpan compares rowSpan against the radius test run on every x of
// [xlo, xhi]: the span must be exactly the passing set, and lie in the row.
func checkRowSpan(t testing.TB, xlo, xhi int, cx, dy2, r2 float64) {
	t.Helper()
	a, b := rowSpan(xlo, xhi, cx, dy2, r2)
	if a > b || (a < b && (a < xlo || b > xhi+1)) {
		t.Fatalf("rowSpan(%d, %d, %v, %v, %v) = [%d, %d): not a run inside the row", xlo, xhi, cx, dy2, r2, a, b)
	}
	for x := xlo; x <= xhi; x++ {
		dx := float64(x) - cx
		if want, got := dx*dx+dy2 <= r2, x >= a && x < b; got != want {
			t.Fatalf("rowSpan(%d, %d, %v, %v, %v) = [%d, %d): x=%d in span %v, radius test %v",
				xlo, xhi, cx, dy2, r2, a, b, x, got, want)
		}
	}
}

// TestRowSpanMatchesPredicate sweeps rowSpan exhaustively: integer,
// half-integer and generic centres and centres a hair off a lattice point,
// squared radii equal to a lattice norm (the boundary pixel passes with
// equality) and a hair either side of one, rows clipped on either side or
// lying wholly off the circle, empty rows, and rows above the circle
// (r2 - dy2 < 0).
func TestRowSpanMatchesPredicate(t *testing.T) {
	hair := math.Nextafter
	centres := []float64{0, 7, 7.5, 7.3, 12.999, hair(7, 8), hair(7, 6), 7 + 1e-9, 7.5 - 1e-12, -3.5, 40}
	rows := [][2]int{{0, 15}, {0, 0}, {5, 9}, {8, 15}, {-20, 40}, {10, 9}, {20, 30}}
	for k := 0; k <= 50; k++ {
		norm := float64(k) // a lattice norm: some dx²+dy² lands on it exactly
		for _, r2 := range []float64{norm, hair(norm, 0), hair(norm, 100), norm + 0.25} {
			for dy := 0.0; dy <= 8; dy += 0.5 {
				dy2 := dy * dy
				for _, cx := range centres {
					for _, row := range rows {
						checkRowSpan(t, row[0], row[1], cx, dy2, r2)
					}
				}
			}
		}
	}
	// A circle smaller than a pixel, and far off the row.
	checkRowSpan(t, 0, 15, 7.5, 0, 0.1)
	checkRowSpan(t, 0, 15, 1e6, 0, 4)
	// Non-finite inputs never enter the kernel; rowSpan stays exact anyway.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkRowSpan(t, 0, 15, v, 1, 16)
		checkRowSpan(t, 0, 15, 7, v, 16)
		checkRowSpan(t, 0, 15, 7, 1, v)
	}
}

// FuzzRowSpan: for any row and any centre, squared row offset and squared
// radius, rowSpan is exactly the set of x the radius test passes.
func FuzzRowSpan(f *testing.F) {
	f.Add(int16(0), uint8(16), 7.5, 4.0, 25.0)
	f.Add(int16(-5), uint8(30), 7.0, 9.0, 25.0)
	f.Add(int16(3), uint8(4), math.Nextafter(7, 8), 16.0, 25.0)
	f.Add(int16(0), uint8(0), 0.0, 0.0, 0.0)
	f.Add(int16(0), uint8(200), 100.0, 30.0, 29.0)
	f.Add(int16(0), uint8(64), math.NaN(), 0.0, 100.0)
	f.Add(int16(0), uint8(64), 1e300, 0.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, xlo int16, w uint8, cx, dy2, r2 float64) {
		// w == 0 gives xhi < xlo, an empty row.
		checkRowSpan(t, int(xlo), int(xlo)+int(w)-1, cx, dy2, r2)
	})
}

// TestKernelStagesMatchPerPixelReferenceOnSurveyCutouts pins every span
// loop to its frozen per-pixel form on the benchmark's problem: the archive's
// cutouts of the seed-5 survey cluster (all 1,000; the first 100 under
// -short). Each stage is compared bit for bit on the production inputs of
// the next: border samples, centroid, growth-curve samples in raster order,
// aperture pixel count, the asymmetry statistic at each of the nine rotation
// centres, and the noise term's Σ|I| and pixel count.
func TestKernelStagesMatchPerPixelReferenceOnSurveyCutouts(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	cl := skysim.Generate(skysim.Spec{
		Name: "SURVEY", Center: wcs.New(150, 2), Redshift: 0.04, NumGalaxies: n, Seed: 77,
	})
	a := arena.Get()
	defer arena.Put(a)
	sc := new(scratch)
	same := func(id, stage string, got, want any) {
		t.Helper()
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("%s: %s = %#v, per-pixel reference %#v", id, stage, got, want)
		}
	}
	bits := func(vs ...float64) []uint64 {
		out := make([]uint64, len(vs))
		for i, v := range vs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	measured := 0
	for _, g := range cl.Galaxies {
		h := fnv.New64a() // the archive's per-galaxy noise seed
		h.Write([]byte(g.ID))
		v, err := fits.ParseView(rawBytes(t, skysim.RenderGalaxy(g, 0, int64(h.Sum64()))))
		if err != nil {
			t.Fatal(err)
		}
		a.Reset()
		nx, ny := v.Nx, v.Ny
		sub := v.ReadInto(a.Floats(v.NPix()))

		ref := perPixelBorder(sub, nx, ny)
		border := borderPixels(sub, nx, ny, a.Floats(borderSamples(nx, ny)))
		same(g.ID, "border samples", bits(border...), bits(ref...))
		bg, sigma := estimateBackground(sub, nx, ny, a.Floats(borderSamples(nx, ny)))
		wbg, wsigma := twoPassSigmaClip(ref, 3, 5)
		same(g.ID, "background", bits(bg, sigma), bits(wbg, wsigma))
		for i := range sub {
			sub[i] -= bg
		}

		cx, cy, ok := centroid(sub, nx, ny, 2*sigma)
		wx, wy, wok := perPixelCentroid(sub, nx, ny, 2*sigma)
		same(g.ID, "centroid", append(bits(cx, cy), boolBit(ok)), append(bits(wx, wy), boolBit(wok)))
		if !ok {
			continue
		}
		measured++

		maxR := maxUsableRadius(nx, ny, cx, cy)
		samples := radialSamples(sub, nx, ny, cx, cy, maxR, sc)
		refSamples := perPixelRadialSamples(sub, nx, ny, cx, cy, maxR)
		if len(samples) != len(refSamples) {
			t.Fatalf("%s: %d growth-curve samples, per-pixel reference %d", g.ID, len(samples), len(refSamples))
		}
		for i, want := range refSamples {
			if samples[i].r2 != want.r2 || math.Float64bits(samples[i].v) != math.Float64bits(want.v) {
				t.Fatalf("%s: growth-curve sample %d = %v, per-pixel reference %v", g.ID, i, samples[i], want)
			}
		}

		_, _, total, rap := growthCurve(sub, nx, ny, cx, cy, sc)
		if total <= 0 {
			continue
		}
		same(g.ID, "pixelsWithin", pixelsWithin(nx, ny, cx, cy, rap), perPixelPixelsWithin(nx, ny, cx, cy, rap))
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				rx, ry := cx+0.5*float64(dx), cy+0.5*float64(dy)
				same(g.ID, fmt.Sprintf("asymmetryAt(%+d,%+d)", dx, dy),
					bits(asymmetryAt(sub, nx, ny, rx, ry, rap)), bits(perPixelAsymmetryAt(sub, nx, ny, rx, ry, rap)))
			}
		}
		s, k := apertureAbs(sub, nx, ny, cx, cy, rap)
		ws, wk := perPixelApertureAbs(sub, nx, ny, cx, cy, rap)
		same(g.ID, "noise term", append(bits(s), uint64(k)), append(bits(ws), uint64(wk)))
	}
	if measured < n/2 {
		t.Fatalf("only %d of %d cutouts had a centroid; the sweep lost its problem", measured, n)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
