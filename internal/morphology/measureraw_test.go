package morphology

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/arena"
	"repro/internal/fits"
)

// rawBytes encodes an image to its on-disk FITS form.
func rawBytes(t testing.TB, im *fits.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// heapMeasure is the original measurement prologue, frozen as the oracle
// for the arena one Measure and MeasureRaw now share: plain heap buffers, a
// subtracted copy instead of in-place subtraction, a private scratch.
func heapMeasure(im *fits.Image, cfg Config) (Params, error) {
	if im.Nx < minImageDim || im.Ny < minImageDim {
		err := fmt.Errorf("%w: %dx%d (min %d)", ErrTooSmall, im.Nx, im.Ny, minImageDim)
		return invalid(err), err
	}
	for _, v := range im.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			err := errors.New("morphology: non-finite pixel values")
			return invalid(err), err
		}
	}
	bg, sigma := estimateBackground(im.Data, im.Nx, im.Ny, make([]float64, borderSamples(im.Nx, im.Ny)))
	sub := make([]float64, len(im.Data))
	for i, v := range im.Data {
		sub[i] = v - bg
	}
	return measureSub(sub, im.Nx, im.Ny, bg, sigma, cfg, new(scratch))
}

// TestMeasureRawMatchesMeasure is the hot-path equivalence pin: for a sweep
// of synthetic galaxies and encodings, Measure over the decoded image and
// MeasureRaw over the raw bytes must both reproduce the frozen heap
// prologue exactly — same Params bits, same error text — and Measure must
// leave the caller's pixels physical.
func TestMeasureRawMatchesMeasure(t *testing.T) {
	images := []*fits.Image{
		renderSersic(64, 64, 32, 32, 50000, 5, 4, 0.8, 0.5, 100, 2, 1),
		renderSersic(48, 56, 20, 30, 20000, 3, 1, 1, 0, 50, 1, 2),
		renderAsymmetric(64, 64, 3),
		fits.NewImage(32, 32, -64), // flat zero image: measurement fails gracefully
	}
	// Integer-encoded variant: quantization changes pixels, but every path
	// must see the same quantized values.
	quant := renderSersic(40, 40, 20, 20, 30000, 4, 2, 0.9, 1.0, 100, 2, 4)
	quant.Bitpix = 16
	quant.Header.Set("BSCALE", 0.5, "")
	quant.Header.Set("BZERO", 500.0, "")
	images = append(images, quant)

	a := arena.Get()
	defer arena.Put(a)
	valid := 0
	for i, im := range images {
		raw := rawBytes(t, im)
		dec, err := fits.Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("image %d: Decode: %v", i, err)
		}
		pixels := append([]float64(nil), dec.Data...)
		want, werr := heapMeasure(dec, cfg())
		if want.Valid {
			valid++
		}
		for entry, measure := range map[string]func() (Params, error){
			"Measure":    func() (Params, error) { return Measure(dec, cfg()) },
			"MeasureRaw": func() (Params, error) { return MeasureRaw(a, raw, cfg()) },
		} {
			got, gerr := measure()
			if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("image %d: %s error diverged:\noracle: %v\ngot:    %v", i, entry, werr, gerr)
			}
			if got != want {
				t.Fatalf("image %d: %s params diverged:\noracle: %+v\ngot:    %+v", i, entry, want, got)
			}
		}
		if !slices.Equal(dec.Data, pixels) {
			t.Fatalf("image %d: Measure modified the caller's pixels", i)
		}
		a.Reset()
	}
	if valid < 3 {
		t.Fatalf("only %d sweep images measured valid; the sweep must exercise the full pipeline", valid)
	}
}

// TestMeasureRawErrorPaths pins the precheck errors of both entry points
// to their literal text.
func TestMeasureRawErrorPaths(t *testing.T) {
	a := arena.Get()
	defer arena.Put(a)
	check := func(name string, err error, want string) {
		t.Helper()
		if err == nil || err.Error() != want {
			t.Fatalf("%s: %v, want %q", name, err, want)
		}
	}

	// Garbage bytes: the FITS reader's error, verbatim.
	_, err := MeasureRaw(a, []byte("not a fits file at all"), cfg())
	check("garbage", err, "fits: malformed header: header block 0: unexpected EOF")

	// Too-small image.
	small := fits.NewImage(4, 4, -64)
	_, err = Measure(small, cfg())
	check("too small (Measure)", err, "morphology: image too small: 4x4 (min 8)")
	_, err = MeasureRaw(a, rawBytes(t, small), cfg())
	check("too small (MeasureRaw)", err, "morphology: image too small: 4x4 (min 8)")

	// Non-finite pixels.
	bad := renderSersic(32, 32, 16, 16, 500, 4, 1, 1, 0, 100, 2, 9)
	bad.Data[17] = math.NaN()
	_, err = Measure(bad, cfg())
	check("NaN pixel (Measure)", err, "morphology: non-finite pixel values")
	_, err = MeasureRaw(a, rawBytes(t, bad), cfg())
	check("NaN pixel (MeasureRaw)", err, "morphology: non-finite pixel values")

	// Hostile geometry: axis lengths whose product overflows int must be
	// refused by the reader before MeasureRaw sizes a pixel buffer from them.
	for _, n := range []int64{1 << 31, 1 << 32} {
		hostile := rawBytes(t, fits.NewImage(8, 8, -64))
		patchAxis(hostile, "NAXIS1", n)
		patchAxis(hostile, "NAXIS2", n)
		p, err := MeasureRaw(a, hostile, cfg())
		if !errors.Is(err, fits.ErrBadHeader) || !strings.Contains(err.Error(), "NAXIS1") || p.Valid {
			t.Fatalf("hostile %d-squared geometry: params %+v, err %v", n, p, err)
		}
	}
}

// patchAxis rewrites one axis-length card of an encoded image in place.
func patchAxis(raw []byte, kw string, n int64) {
	card := fmt.Sprintf("%-8s= %20d", kw, n)
	i := bytes.Index(raw[:fits.BlockSize], []byte(fmt.Sprintf("%-8s=", kw)))
	copy(raw[i:i+len(card)], card)
}

// TestMeasureRawDeterministicAcrossArenas: results must not depend on arena
// reuse state (stale slab contents must never leak into a measurement).
func TestMeasureRawDeterministicAcrossArenas(t *testing.T) {
	raw := rawBytes(t, renderSersic(64, 64, 32, 32, 50000, 5, 4, 0.8, 0.5, 100, 2, 11))
	fresh := &arena.Arena{}
	want, err := MeasureRaw(fresh, raw, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if !want.Valid {
		t.Fatalf("reference measurement invalid: %s", want.Err)
	}
	dirty := arena.Get()
	defer arena.Put(dirty)
	// Soil the arena with unrelated garbage first.
	g := dirty.Floats(64 * 64 * 2)
	rng := rand.New(rand.NewSource(99))
	for i := range g {
		g[i] = rng.NormFloat64() * 1e9
	}
	dirty.Reset()
	got, err := MeasureRaw(dirty, raw, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("params depend on arena history:\nfresh: %+v\ndirty: %+v", want, got)
	}
}
