package morphology

import (
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

// refPixel is a growth-curve sample as the comparison sort saw it: the flat
// pixel index is stored and breaks ties.
type refPixel struct {
	gcPixel
	idx int32
}

// sortOrder is the pre-bucket ordering, frozen as the oracle radialOrder
// must reproduce: slices.SortFunc on (r2, idx).
func sortOrder(raster []refPixel) []refPixel {
	out := slices.Clone(raster)
	slices.SortFunc(out, func(a, b refPixel) int {
		switch {
		case a.r2 < b.r2:
			return -1
		case a.r2 > b.r2:
			return 1
		}
		return int(a.idx) - int(b.idx)
	})
	return out
}

// rasterSamples collects, independently of growthCurve, the samples within
// the largest in-image circle about (cx, cy) in raster order.
func rasterSamples(sub []float64, nx, ny int, cx, cy float64) (raster []refPixel, maxR2 float64) {
	maxR := maxUsableRadius(nx, ny, cx, cy)
	maxR2 = maxR * maxR
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			if r2 := dx*dx + dy*dy; r2 <= maxR2 {
				raster = append(raster, refPixel{gcPixel{r2: r2, v: sub[y*nx+x]}, int32(y*nx + x)})
			}
		}
	}
	return raster, maxR2
}

func samplesOf(ref []refPixel) []gcPixel {
	out := make([]gcPixel, len(ref))
	for i, p := range ref {
		out[i] = p.gcPixel
	}
	return out
}

// sortGrowthCurve is growthCurve as it stood on the comparison sort.
func sortGrowthCurve(sub []float64, nx, ny int, cx, cy float64) (r20, r80, total, rap float64) {
	maxR := maxUsableRadius(nx, ny, cx, cy)
	raster, _ := rasterSamples(sub, nx, ny, cx, cy)
	pixels := sortOrder(raster)
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

// checkRadialOrder runs one geometry through the bucket pass and the
// reference sort and returns the number of element moves the fix-up pass
// made. The pixel value is the flat index, so comparing samples compares
// pixel identities: any exchange of two equal-radius pixels shows.
func checkRadialOrder(t testing.TB, nx, ny int, cx, cy float64) (n, moves int) {
	t.Helper()
	sub := make([]float64, nx*ny)
	for i := range sub {
		sub[i] = float64(i)
	}
	raster, maxR2 := rasterSamples(sub, nx, ny, cx, cy)
	want := samplesOf(sortOrder(raster))

	sc := new(scratch)
	scattered := bucketScatter(samplesOf(raster), maxR2, sc)
	moves = insertionMoves(scattered)
	insertionByR2(scattered)
	if !slices.Equal(scattered, want) {
		for i := range want {
			if scattered[i] != want[i] {
				t.Fatalf("%dx%d about (%g,%g): sample %d of %d is pixel %v at r2=%v, reference has pixel %v at r2=%v",
					nx, ny, cx, cy, i, len(want), scattered[i].v, scattered[i].r2, want[i].v, want[i].r2)
			}
		}
	}
	// The same samples through the production entry point, reusing sc.
	if got := radialOrder(samplesOf(raster), maxR2, sc); !slices.Equal(got, want) {
		t.Fatalf("%dx%d about (%g,%g): radialOrder on a used scratch diverged from the reference", nx, ny, cx, cy)
	}
	return len(want), moves
}

// insertionMoves counts the element moves a stable insertion sort on r2
// makes on pixels — its inversions — without reordering them.
func insertionMoves(pixels []gcPixel) int {
	work := slices.Clone(pixels)
	moves := 0
	for i := 1; i < len(work); i++ {
		p := work[i]
		j := i
		for j > 0 && work[j-1].r2 > p.r2 {
			work[j] = work[j-1]
			j--
			moves++
		}
		work[j] = p
	}
	return moves
}

// orderGeometries is the sweep of the order tests: integer and half-integer
// centres (8-fold r2 ties, where only stability gives raster order), generic
// centres, centres a hair off a lattice point (the ties become near-ties in
// arbitrary order: the fix-up pass's worst case), centres within one pixel
// of each edge (maxR = 1), non-square cutouts, the smallest cutout Measure
// accepts, and 512x512.
var orderGeometries = []struct {
	nx, ny int
	cx, cy float64
}{
	{64, 64, 32, 32}, {65, 65, 32, 32}, {64, 64, 31.5, 31.5}, {64, 64, 31.5, 32},
	{64, 64, 31.37, 32.81}, {64, 64, 20.25, 40.75}, {96, 96, 47.001, 47.999},
	{64, 64, 32.0000001, 32.0000002}, {160, 160, 79.5003, 79.4998},
	{64, 64, 0.3, 30}, {64, 64, 63.2, 30}, {64, 64, 30, 0.7}, {64, 64, 30.5, 63.9}, {64, 64, 0, 0}, {64, 64, 63, 63},
	{48, 96, 20.2, 70.9}, {160, 48, 80, 23.5}, {100, 9, 50.5, 4},
	{minImageDim, minImageDim, 3.5, 3.5}, {minImageDim, minImageDim, 4, 4}, {minImageDim, minImageDim, 3.3, 4.1},
	{512, 512, 256, 256}, {512, 512, 255.5, 255.5}, {512, 512, 256.123, 254.77},
	{512, 512, 256.0000001, 256.0000002}, {512, 512, 255.50001, 255.49999},
}

// maxMovesPerSample bounds the fix-up pass. The bucket key is uniform by
// geometry, so a generic centre costs about n/4 moves for n samples
// (Poisson(1) occupancy) and a lattice-point centre none (ties are never
// moved). The worst centres sit a hair off a lattice point: the r₂(k) pixels
// of equal integer norm k share a bucket in arbitrary order, and Σ r₂(k)²
// grows as N·ln N, which measures as (2/π)·ln(n/π) moves per sample — 6.9 at
// 512x512, below 8 up to 1024x1024. Pixel values never enter. (The
// comparison sort made about log₂ n — 17.6 at 512x512 — closure-called
// comparisons per sample on every centre.)
const maxMovesPerSample = 8

func checkMoves(t testing.TB, nx, ny int, cx, cy float64, n, moves int) {
	t.Helper()
	if moves > maxMovesPerSample*n {
		t.Errorf("%dx%d about (%v,%v): %d fix-up moves for %d samples, bound %d per sample",
			nx, ny, cx, cy, moves, n, maxMovesPerSample)
	}
}

// TestRadialOrderMatchesSortInLinearMoves: on every geometry of the sweep
// the bucket pass yields the identical pixel sequence as the (r2, idx)
// comparison sort, and — its cost pinned on a count, not a clock — the
// fix-up pass stays within maxMovesPerSample, a generic centre below one.
func TestRadialOrderMatchesSortInLinearMoves(t *testing.T) {
	for _, g := range orderGeometries {
		n, moves := checkRadialOrder(t, g.nx, g.ny, g.cx, g.cy)
		checkMoves(t, g.nx, g.ny, g.cx, g.cy, n, moves)
		if g.cx == 256.123 && 2*moves > n {
			t.Errorf("generic centre: %d fix-up moves for %d samples, want about n/4", moves, n)
		}
	}
}

// TestRadialOrderClampsEveryKey: keys outside the contract (non-finite,
// negative, beyond maxR2, or scaled by a degenerate maxR2) must land in a
// bucket, never out of range; the result is still a permutation.
func TestRadialOrderClampsEveryKey(t *testing.T) {
	keys := []float64{4, math.NaN(), 0, math.Inf(1), -3, 1e300, math.Inf(-1), 2, 7, -0.0, 5e-324}
	for _, maxR2 := range []float64{9, 0, math.NaN(), math.Inf(1), -1, 5e-324} {
		in := make([]gcPixel, len(keys))
		for i, k := range keys {
			in[i] = gcPixel{r2: k, v: float64(i)}
		}
		got := radialOrder(in, maxR2, new(scratch))
		seen := make([]bool, len(keys))
		for _, p := range got {
			seen[int(p.v)] = true
		}
		if len(got) != len(keys) || slices.Contains(seen, false) {
			t.Errorf("maxR2=%v: %v is not a permutation of the input", maxR2, got)
		}
	}
	if got := radialOrder(nil, 1, new(scratch)); len(got) != 0 {
		t.Errorf("no samples ordered to %v", got)
	}
}

// blobField is a noisy off-centre blob: a field whose growth curve has
// distinct r20, r80 and aperture.
func blobField(nx, ny int, cx, cy float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	sub := make([]float64, nx*ny)
	s2 := 2 * math.Pow(float64(min(nx, ny))/8, 2)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			sub[y*nx+x] = 500*math.Exp(-(dx*dx+dy*dy)/s2) + rng.NormFloat64()*3
		}
	}
	return sub
}

func sameCurve(t *testing.T, name string, sub []float64, nx, ny int, cx, cy float64, sc *scratch) {
	t.Helper()
	r20, r80, total, rap := growthCurve(sub, nx, ny, cx, cy, sc)
	w20, w80, wtotal, wrap := sortGrowthCurve(sub, nx, ny, cx, cy)
	got := [4]uint64{math.Float64bits(r20), math.Float64bits(r80), math.Float64bits(total), math.Float64bits(rap)}
	want := [4]uint64{math.Float64bits(w20), math.Float64bits(w80), math.Float64bits(wtotal), math.Float64bits(wrap)}
	if got != want {
		t.Fatalf("%s: growthCurve (r20 r80 total rap) = %v %v %v %v, sorted reference %v %v %v %v",
			name, r20, r80, total, rap, w20, w80, wtotal, wrap)
	}
}

// TestGrowthCurveMatchesSortedReference: r20, r80, total and aperture are
// bit-identical to the comparison-sort growth curve over the geometry sweep
// (one pooled scratch reused across sizes, as a worker does).
func TestGrowthCurveMatchesSortedReference(t *testing.T) {
	sc := new(scratch)
	for i, g := range orderGeometries {
		sameCurve(t, "sweep", blobField(g.nx, g.ny, g.cx, g.cy, int64(i)), g.nx, g.ny, g.cx, g.cy, sc)
	}
}

// TestGrowthCurveMatchesSortedReferenceOnSurveyCutouts repeats the pin on
// the benchmark's problem: the archive's cutouts of the seed-5 survey
// cluster (every 1,000 of them; the first 100 under -short), each about its
// measured centroid, with the pixel sequence compared as well.
func TestGrowthCurveMatchesSortedReferenceOnSurveyCutouts(t *testing.T) {
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
	for _, g := range cl.Galaxies {
		h := fnv.New64a() // the archive's per-galaxy noise seed
		h.Write([]byte(g.ID))
		v, err := fits.ParseView(rawBytes(t, skysim.RenderGalaxy(g, 0, int64(h.Sum64()))))
		if err != nil {
			t.Fatal(err)
		}
		a.Reset()
		sub := v.ReadInto(a.Floats(v.NPix()))
		bg, sigma := estimateBackground(sub, v.Nx, v.Ny, a.Floats(borderSamples(v.Nx, v.Ny)))
		for i := range sub {
			sub[i] -= bg
		}
		cx, cy, ok := centroid(sub, v.Nx, v.Ny, 2*sigma)
		if !ok {
			continue
		}
		sameCurve(t, g.ID, sub, v.Nx, v.Ny, cx, cy, sc)
		raster, maxR2 := rasterSamples(sub, v.Nx, v.Ny, cx, cy)
		if !slices.Equal(radialOrder(samplesOf(raster), maxR2, sc), samplesOf(sortOrder(raster))) {
			t.Fatalf("%s: pixel sequence differs from the sorted reference", g.ID)
		}
	}
}

// FuzzRadialOrder: for any cutout shape and any centre, growthCurve does
// not panic; for a centre inside the image, the bucket pass is sorted, a
// permutation of its input and equal to the reference sort.
func FuzzRadialOrder(f *testing.F) {
	for _, g := range orderGeometries[:len(orderGeometries)-5] {
		f.Add(uint8(g.nx), uint8(g.ny), g.cx, g.cy)
	}
	f.Add(uint8(40), uint8(40), math.NaN(), 20.0)
	f.Add(uint8(40), uint8(40), 1e300, -1e300)
	f.Fuzz(func(t *testing.T, w, h uint8, cx, cy float64) {
		nx, ny := minImageDim+int(w)%160, minImageDim+int(h)%160
		growthCurve(blobField(nx, ny, float64(nx)/2, float64(ny)/2, 1), nx, ny, cx, cy, new(scratch))
		if !(cx >= 0 && cx <= float64(nx-1) && cy >= 0 && cy <= float64(ny-1)) {
			return
		}
		n, moves := checkRadialOrder(t, nx, ny, cx, cy)
		checkMoves(t, nx, ny, cx, cy, n, moves)
	})
}
