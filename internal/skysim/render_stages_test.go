package skysim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fits"
	"repro/internal/wcs"
)

// TestLdexpZeroIsIdentity: math.Ldexp(v, 0) gives back v's bits for every
// float64, so fracPow's y <= 1/2 branch returns Exp(y*Log(x)) as math.Pow
// does without the Ldexp. Zero, subnormals (normalized by 2^52 and rebuilt
// through the ×2^-53 path), the smallest and largest normals, infinities
// and NaN, then a million random bit patterns.
func TestLdexpZeroIsIdentity(t *testing.T) {
	edges := []uint64{
		0, 1, 2, 3, 0x0000000000000fff, 0x0008000000000000, 0x000fffffffffffff, // ±0 and subnormals
		0x0010000000000000, 0x0010000000000001, 0x001fffffffffffff, // smallest normals
		0x3fe0000000000000, 0x3ff0000000000000, 0x3fefffffffffffff, 0x4000000000000000,
		0x7fefffffffffffff, 0x7feffffffffffffe, // largest normals
		0x7ff0000000000000, 0x7ff8000000000000, 0x7ff0000000000001, 0x7fffffffffffffff, // Inf, NaNs
	}
	check := func(b uint64) {
		v := math.Float64frombits(b)
		if got := math.Float64bits(math.Ldexp(v, 0)); got != b {
			t.Fatalf("Ldexp(%#016x, 0) = %#016x", b, got)
		}
	}
	for _, b := range edges {
		check(b)
		check(b | 1<<63)
	}
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 1_000_000; i++ {
		check(rng.Uint64())
	}
}

// TestPooledScratchMatchesFresh: one scratch carried through renders of
// the largest, smallest and largest cutout size, for a galaxy of each
// type, gives the bits of a fresh scratch's render every time, so nothing
// a wider or narrower render left in the row buffers reaches the next.
func TestPooledScratchMatchesFresh(t *testing.T) {
	c := Generate(Spec{Name: "SURVEY", Center: wcs.New(150, 2), Redshift: 0.04, NumGalaxies: 1000, Seed: 77})
	sc := scratchPool.New().(*renderScratch)
	for _, typ := range []GalaxyType{Elliptical, Lenticular, Spiral, Irregular} {
		g := c.Galaxies[firstOfType(c, typ)]
		for k, size := range []int{maxCutoutPx, 48, maxCutoutPx} {
			var pooled, fresh fits.Image
			renderInto(&pooled, &g, size, int64(k), sc)
			renderInto(&fresh, &g, size, int64(k), scratchPool.New().(*renderScratch))
			sameImage(t, g.ID, &pooled, &fresh)
		}
	}
}

// TestRenderStraddlesArmsAndTruncation: a spiral whose arm radius and
// truncation radius both fall inside the frame, so the subpixels of the
// middle rows cross r = rArms and r = rTrunc within one row, matches the
// frozen loop; so does a frame wider than any cutout, which grows the column
// buffers past their first size.
func TestRenderStraddlesArmsAndTruncation(t *testing.T) {
	g := Galaxy{
		ID: "STRADDLE-1", Pos: wcs.New(150, 2), Type: Spiral, Mag: 16,
		ReArcsec: 12 * PixScaleArcsec, AxisRatio: 0.55, PA: 0.7,
		Lopside: 0.15, ArmAmp: 0.4, ClumpFrac: 0.1, StructSeed: 9,
	}
	for _, size := range []int{40, 41, maxCutoutPx + 18} {
		rArms, rTrunc := 0.3*g.ReArcsec/PixScaleArcsec, 0.42*float64(size)
		if !(0 < rArms && rArms < rTrunc && rTrunc < float64(size)/2) {
			t.Fatalf("size %d: rArms %v, rTrunc %v do not both fall inside the middle row", size, rArms, rTrunc)
		}
		sameImage(t, g.ID, RenderGalaxy(g, size, 3), legacyRenderGalaxy(g, size, 3))
	}
}

// TestCosMatchesMath holds the select-based cos to math.Cos bit for bit
// on octant boundaries and their neighbours, ±0, subnormals, values about
// reduceThreshold, infinities and NaN, then on ten million random
// operands: uniform over a few turns, over ±1e6, about reduceThreshold and
// any bit pattern.
func TestCosMatchesMath(t *testing.T) {
	check := func(x float64) {
		got, want := cos(x), math.Cos(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cos(%v [%#016x]) = %v, math.Cos %v", x, math.Float64bits(x), got, want)
		}
	}
	edges := []float64{0, 5e-324, 1e-300, 1e-8, 1, math.MaxFloat64, math.Inf(1), math.NaN(),
		reduceThreshold, math.Nextafter(reduceThreshold, 0), math.Nextafter(reduceThreshold, math.Inf(1)),
		reduceThreshold * 2, 1e300}
	for k := 0; k <= 64; k++ {
		b := float64(k) * math.Pi / 4
		edges = append(edges, b, math.Nextafter(b, 0), math.Nextafter(b, 10), math.Nextafter(math.Nextafter(b, 10), 10))
	}
	for _, x := range edges {
		check(x)
		check(-x)
	}
	rng := rand.New(rand.NewSource(22))
	const n = 10_000_000
	for i := 0; i < n; i++ {
		var x float64
		switch i % 4 {
		case 0:
			x = (rng.Float64()*2 - 1) * 8 * math.Pi
		case 1:
			x = (rng.Float64()*2 - 1) * 1e6
		case 2:
			x = reduceThreshold * (1 + (rng.Float64()*2-1)*1e-6)
		default:
			x = math.Float64frombits(rng.Uint64())
		}
		check(x)
	}
}

// FuzzCosParity holds the select-based cos to math.Cos on any operand.
func FuzzCosParity(f *testing.F) {
	for _, x := range []float64{0, math.Pi / 4, -3 * math.Pi / 4, 1e6, reduceThreshold, math.Inf(-1), math.NaN()} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		got, want := cos(x), math.Cos(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cos(%v) = %v, math.Cos %v", x, got, want)
		}
	})
}
