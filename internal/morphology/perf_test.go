package morphology

import (
	"math"
	"sync"
	"testing"

	"repro/internal/fits"
)

// TestMeasureRepeatIsBitIdentical guards the scratch-buffer reuse: pooled
// buffers must never leak state between measurements, so measuring the same
// image repeatedly — interleaved with measurements of other images, which
// share the pool — must reproduce every field bit-for-bit.
func TestMeasureRepeatIsBitIdentical(t *testing.T) {
	im := renderSersic(96, 96, 48, 48, 60000, 9, 4, 0.8, 0.4, 110, 3.5, 7)
	other := renderAsymmetric(64, 64, 9)

	ref, err := Measure(im, cfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := Measure(other, cfg()); err != nil {
			t.Fatal(err)
		}
		got, err := Measure(im, cfg())
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("repeat %d: %+v != %+v", i, got, ref)
		}
	}
}

// TestMeasureConcurrentMatchesSerial runs many concurrent measurements (the
// parallel leaf-job situation) and checks each against its serial result.
func TestMeasureConcurrentMatchesSerial(t *testing.T) {
	type tcase struct {
		im  *fits.Image
		ref Params
	}
	imgs := []*tcase{
		{im: renderSersic(80, 80, 40, 40, 50000, 8, 4, 0.9, 0, 100, 3, 1)},
		{im: renderSersic(96, 96, 47.3, 48.6, 70000, 12, 1, 0.7, 0.8, 90, 2, 2)},
		{im: renderAsymmetric(72, 72, 3)},
		{im: renderSersic(64, 64, 32, 32, 40000, 6, 2, 1, 0, 120, 4, 4)},
	}
	for _, c := range imgs {
		p, err := Measure(c.im, cfg())
		if err != nil {
			t.Fatal(err)
		}
		c.ref = p
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				c := imgs[(g+i)%len(imgs)]
				p, err := Measure(c.im, cfg())
				if err != nil || p != c.ref {
					t.Errorf("concurrent measurement diverged: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAsymmetryIndexingMatchesBilinear pins the precomputed rotation
// indexing to the reference bilinear sampler: for integer pixels the
// fractional parts of the rotated coordinates are constant, so the fast
// path must agree bit-for-bit with the general one.
func TestAsymmetryIndexingMatchesBilinear(t *testing.T) {
	im := renderAsymmetric(80, 80, 5)
	bg, _ := EstimateBackground(im)
	sub := make([]float64, len(im.Data))
	for i, v := range im.Data {
		sub[i] = v - bg
	}
	for _, center := range [][2]float64{
		{40, 40}, {39.5, 40.5}, {41.25, 38.75}, {3.5, 76.5}, {77.9, 2.1},
	} {
		cx, cy := center[0], center[1]
		for _, rap := range []float64{5, 17.5, 60} {
			got := asymmetryAt(sub, im.Nx, im.Ny, cx, cy, rap)
			want := asymmetryAtReference(sub, im.Nx, im.Ny, cx, cy, rap)
			if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Errorf("center (%g,%g) rap %g: fast %v != reference %v", cx, cy, rap, got, want)
			}
		}
	}
}

// asymmetryAtReference is the pre-optimization implementation: per-pixel
// rotated coordinates through the general bilinear sampler.
func asymmetryAtReference(sub []float64, nx, ny int, cx, cy, rap float64) float64 {
	var num, den float64
	r2 := rap * rap
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			dx := float64(x) - cx
			dy := float64(y) - cy
			if dx*dx+dy*dy > r2 {
				continue
			}
			v := sub[y*nx+x]
			rx := 2*cx - float64(x)
			ry := 2*cy - float64(y)
			rv, ok := bilinear(sub, nx, ny, rx, ry)
			if !ok {
				continue
			}
			num += math.Abs(v - rv)
			den += math.Abs(v)
		}
	}
	if den <= 0 {
		return math.Inf(1)
	}
	return num / (2 * den)
}

// bilinear samples the image at fractional coordinates; ok is false outside.
// It is the general sampler asymmetryAt's fixed-weight indexing replaces.
func bilinear(data []float64, nx, ny int, x, y float64) (float64, bool) {
	if x < 0 || y < 0 || x > float64(nx-1) || y > float64(ny-1) {
		return 0, false
	}
	x0 := int(x)
	y0 := int(y)
	x1 := x0 + 1
	y1 := y0 + 1
	if x1 >= nx {
		x1 = nx - 1
	}
	if y1 >= ny {
		y1 = ny - 1
	}
	fx := x - float64(x0)
	fy := y - float64(y0)
	v00 := data[y0*nx+x0]
	v10 := data[y0*nx+x1]
	v01 := data[y1*nx+x0]
	v11 := data[y1*nx+x1]
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy, true
}

func TestBilinear(t *testing.T) {
	data := []float64{0, 1, 2, 3} // 2x2: (0,0)=0 (1,0)=1 (0,1)=2 (1,1)=3
	if v, ok := bilinear(data, 2, 2, 0.5, 0.5); !ok || v != 1.5 {
		t.Errorf("bilinear center = %v, %v", v, ok)
	}
	if v, ok := bilinear(data, 2, 2, 0, 0); !ok || v != 0 {
		t.Errorf("bilinear corner = %v, %v", v, ok)
	}
	if _, ok := bilinear(data, 2, 2, -0.1, 0); ok {
		t.Error("outside must not be sampled")
	}
	if _, ok := bilinear(data, 2, 2, 0, 1.1); ok {
		t.Error("outside must not be sampled")
	}
}

// TestBoundingBoxCoversCircle checks the loop-narrowing helper never
// excludes a pixel that passes the radius test.
func TestBoundingBoxCoversCircle(t *testing.T) {
	const nx, ny = 33, 29
	for _, c := range [][3]float64{
		{16, 14, 5}, {0.4, 0.4, 3}, {32.6, 28.6, 7}, {16.5, 14.5, 100}, {16, 14, 0.2},
	} {
		cx, cy, r := c[0], c[1], c[2]
		xlo, xhi, ylo, yhi := boundingBox(nx, ny, cx, cy, r)
		r2 := r * r
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				dx := float64(x) - cx
				dy := float64(y) - cy
				inside := dx*dx+dy*dy <= r2
				inBox := x >= xlo && x <= xhi && y >= ylo && y <= yhi
				if inside && !inBox {
					t.Fatalf("pixel (%d,%d) inside circle (%g,%g,%g) but outside box [%d,%d]x[%d,%d]",
						x, y, cx, cy, r, xlo, xhi, ylo, yhi)
				}
			}
		}
	}
}
