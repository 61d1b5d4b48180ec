package fits

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// encodeRaw renders an image to its on-disk FITS bytes.
func encodeRaw(t testing.TB, im *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// testImage builds a deterministic image exercising the given encoding.
func testImage(t testing.TB, nx, ny, bitpix int, scaled bool) *Image {
	t.Helper()
	im := NewImage(nx, ny, bitpix)
	rng := rand.New(rand.NewSource(int64(nx*1000 + ny*10 + bitpix)))
	for i := range im.Data {
		switch {
		case bitpix == -64:
			im.Data[i] = rng.NormFloat64() * 1e3
		case bitpix == -32:
			im.Data[i] = float64(float32(rng.NormFloat64()))
		default:
			im.Data[i] = float64(rng.Intn(200))
		}
	}
	if scaled {
		im.Header.Set("BSCALE", 0.25, "")
		im.Header.Set("BZERO", 50.0, "")
	}
	im.Header.Set("OBJECT", "view test", "with a comment")
	return im
}

// wantPixel is the FITS definition applied by hand, the fixed expectation
// both entry points of the reader are pinned to: quantise the physical value
// the way BITPIX stores it, then physical = BZERO + BSCALE*stored.
func wantPixel(phys float64, bitpix int, bscale, bzero float64) float64 {
	stored := (phys - bzero) / bscale
	clamp := func(lo, hi float64) float64 { return math.Max(lo, math.Min(hi, math.Round(stored))) }
	switch bitpix {
	case 8:
		stored = clamp(0, 255)
	case 16:
		stored = clamp(math.MinInt16, math.MaxInt16)
	case 32:
		stored = clamp(math.MinInt32, math.MaxInt32)
	case -32:
		stored = float64(float32(stored))
	}
	return bzero + bscale*stored
}

// TestViewMatchesDecodeAcrossBitpix is the core reader contract: for every
// BITPIX (with and without BSCALE/BZERO), ParseView and Decode report the
// encoded image's geometry and yield exactly the pixels the FITS definition
// gives for the encoder's input.
func TestViewMatchesDecodeAcrossBitpix(t *testing.T) {
	for _, bp := range []int{8, 16, 32, -32, -64} {
		for _, scaled := range []bool{false, true} {
			src := testImage(t, 17, 9, bp, scaled)
			bscale, bzero := src.Header.Float("BSCALE", 1), src.Header.Float("BZERO", 0)
			raw := encodeRaw(t, src)
			dec, err := Decode(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("bitpix %d scaled %t: Decode: %v", bp, scaled, err)
			}
			v, err := ParseView(raw)
			if err != nil {
				t.Fatalf("bitpix %d scaled %t: ParseView: %v", bp, scaled, err)
			}
			if v.Nx != 17 || v.Ny != 9 || v.Bitpix != bp || dec.Nx != 17 || dec.Ny != 9 || dec.Bitpix != bp {
				t.Fatalf("bitpix %d: geometry view %dx%d/%d, decode %dx%d/%d, want 17x9/%d",
					bp, v.Nx, v.Ny, v.Bitpix, dec.Nx, dec.Ny, dec.Bitpix, bp)
			}
			got := v.ReadInto(make([]float64, v.NPix()))
			for i, phys := range src.Data {
				want := wantPixel(phys, bp, bscale, bzero)
				if got[i] != want || dec.Data[i] != want {
					t.Fatalf("bitpix %d scaled %t pixel %d: view %v, decode %v, want %v",
						bp, scaled, i, got[i], dec.Data[i], want)
				}
				if x, y := i%17, i/17; v.At(x, y) != want {
					t.Fatalf("At(%d,%d): %v != %v", x, y, v.At(x, y), want)
				}
			}
			if v.At(-1, 0) != 0 || v.At(v.Nx, 0) != 0 || v.At(0, v.Ny) != 0 {
				t.Fatal("out-of-bounds At must return 0")
			}
		}
	}
}

// TestSectionMatchesCutout sweeps interior, edge-clipped and
// negative-origin rectangles: Section and Cutout must both clip to the
// stated geometry and hold exactly the source image's pixels there, and
// Cutout must shift the WCS reference pixel by the clipped origin.
func TestSectionMatchesCutout(t *testing.T) {
	im := testImage(t, 20, 14, -64, false) // float64, unscaled: pixels round-trip exactly
	im.Header.Set("CRPIX1", 10.0, "ref x")
	im.Header.Set("CRPIX2", 7.0, "ref y")
	raw := encodeRaw(t, im)
	dec, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	v, err := ParseView(raw)
	if err != nil {
		t.Fatal(err)
	}
	rects := []struct{ x0, y0, w, h, cx, cy, cw, ch int }{
		{0, 0, 20, 14, 0, 0, 20, 14},  // identity
		{3, 2, 5, 4, 3, 2, 5, 4},      // interior
		{15, 10, 10, 9, 15, 10, 5, 4}, // clipped right/bottom
		{-4, -3, 8, 7, 0, 0, 4, 4},    // clipped left/top (negative origin)
		{-2, 5, 30, 4, 0, 5, 20, 4},   // clipped both horizontal edges
		{19, 13, 1, 1, 19, 13, 1, 1},  // single corner pixel
	}
	for _, r := range rects {
		cut, cerr := dec.Cutout(r.x0, r.y0, r.w, r.h)
		sec, serr := v.Section(r.x0, r.y0, r.w, r.h)
		if cerr != nil || serr != nil {
			t.Fatalf("rect %+v: cutout err %v, section err %v", r, cerr, serr)
		}
		if sec.X0 != r.cx || sec.Y0 != r.cy || sec.W != r.cw || sec.H != r.ch || cut.Nx != r.cw || cut.Ny != r.ch {
			t.Fatalf("rect %+v: section (%d,%d)+%dx%d, cutout %dx%d", r, sec.X0, sec.Y0, sec.W, sec.H, cut.Nx, cut.Ny)
		}
		got := sec.ReadInto(make([]float64, sec.W*sec.H))
		for y := 0; y < r.ch; y++ {
			for x := 0; x < r.cw; x++ {
				want := im.At(r.cx+x, r.cy+y)
				if got[y*r.cw+x] != want || cut.At(x, y) != want {
					t.Fatalf("rect %+v pixel (%d,%d): section %v, cutout %v, want %v", r, x, y, got[y*r.cw+x], cut.At(x, y), want)
				}
			}
		}
		if cut.Header.Float("CRPIX1", 0) != 10-float64(r.cx) || cut.Header.Float("CRPIX2", 0) != 7-float64(r.cy) {
			t.Fatalf("rect %+v: CRPIX (%v,%v) not shifted by the clipped origin", r,
				cut.Header.Float("CRPIX1", 0), cut.Header.Float("CRPIX2", 0))
		}
		if cut.Header.Str("OBJECT", "") != "view test" {
			t.Fatalf("rect %+v: cutout dropped a non-structural card", r)
		}
	}
}

// TestSectionErrorsMatchCutout pins the error text for degenerate and
// fully-outside rectangles, including the requested (not post-clip)
// coordinates, on both Cutout and Section.
func TestSectionErrorsMatchCutout(t *testing.T) {
	raw := encodeRaw(t, testImage(t, 10, 8, 16, false))
	dec, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	v, err := ParseView(raw)
	if err != nil {
		t.Fatal(err)
	}
	rects := []struct {
		x0, y0, w, h int
		want         string
	}{
		{0, 0, 0, 5, "fits: cutout size 0x5 must be positive"},
		{0, 0, 5, -1, "fits: cutout size 5x-1 must be positive"},
		{50, 50, 3, 3, "fits: cutout (50,50)+3x3 outside 10x8 image"},
		{-20, -20, 5, 5, "fits: cutout (-20,-20)+5x5 outside 10x8 image"},
	}
	for _, r := range rects {
		_, cerr := dec.Cutout(r.x0, r.y0, r.w, r.h)
		_, serr := v.Section(r.x0, r.y0, r.w, r.h)
		if cerr == nil || serr == nil || cerr.Error() != r.want || serr.Error() != r.want {
			t.Fatalf("rect (%d,%d)+%dx%d: cutout %v, section %v, want %q", r.x0, r.y0, r.w, r.h, cerr, serr, r.want)
		}
	}
}

// TestCutoutErrorReportsRequestedRect pins the OOB message to the
// coordinates the caller asked for — an all-negative rectangle used to be
// reported as the clipped (0,0), hiding what the caller did wrong.
func TestCutoutErrorReportsRequestedRect(t *testing.T) {
	raw := encodeRaw(t, testImage(t, 10, 8, 16, false))
	dec, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, cerr := dec.Cutout(-20, -30, 5, 5)
	const want = "fits: cutout (-20,-30)+5x5 outside 10x8 image"
	if cerr == nil || cerr.Error() != want {
		t.Fatalf("Cutout error = %v, want %q", cerr, want)
	}
}

// TestViewTornTrailingBlock checks truncation semantics match Decode: lost
// trailing padding is tolerated, truncated pixel data is the same error.
func TestViewTornTrailingBlock(t *testing.T) {
	im := testImage(t, 7, 5, -64, false) // 7*5*8 = 280 data bytes, 2600 padding
	raw := encodeRaw(t, im)
	dataBytes := im.Nx * im.Ny * 8

	// Tear off the padding, down to the exact data end.
	for _, keep := range []int{len(raw) - 1, len(raw) - BlockSize/2, len(raw) - BlockSize + dataBytes} {
		torn := raw[:keep]
		want, werr := Decode(bytes.NewReader(torn))
		v, verr := ParseView(torn)
		if werr != nil || verr != nil {
			t.Fatalf("keep %d: decode err %v, view err %v", keep, werr, verr)
		}
		got := v.ReadInto(make([]float64, v.NPix()))
		for i := range want.Data {
			if got[i] != want.Data[i] {
				t.Fatalf("keep %d pixel %d: %v != %v", keep, i, got[i], want.Data[i])
			}
		}
	}

	// Truncate into (or before) the pixel data: identical failure text,
	// both for a partial array (unexpected EOF) and a missing one (EOF).
	for _, keep := range []int{len(raw) - BlockSize, len(raw) - BlockSize + 1, len(raw) - BlockSize + dataBytes - 1} {
		torn := raw[:keep]
		_, werr := Decode(bytes.NewReader(torn))
		_, verr := ParseView(torn)
		if werr == nil || verr == nil {
			t.Fatalf("keep %d: expected errors, decode=%v view=%v", keep, werr, verr)
		}
		if werr.Error() != verr.Error() {
			t.Fatalf("keep %d: error text diverged:\ndecode: %s\nview:   %s", keep, werr, verr)
		}
	}
}

// TestViewTruncatedHeader checks header-block truncation fails like Decode.
func TestViewTruncatedHeader(t *testing.T) {
	raw := encodeRaw(t, testImage(t, 4, 4, 16, false))
	for _, keep := range []int{0, 1, BlockSize - 1} {
		_, werr := Decode(bytes.NewReader(raw[:keep]))
		_, verr := ParseView(raw[:keep])
		if werr == nil || verr == nil {
			t.Fatalf("keep %d: expected errors", keep)
		}
		if werr.Error() != verr.Error() {
			t.Fatalf("keep %d: error text diverged:\ndecode: %s\nview:   %s", keep, werr, verr)
		}
	}
}

// TestViewRejectsWhatDecodeRejects spot-checks structured corruption.
func TestViewRejectsWhatDecodeRejects(t *testing.T) {
	raw := encodeRaw(t, testImage(t, 4, 4, 16, false))
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), raw...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"not simple":   corrupt(func(b []byte) { copy(b, "SIMPLE  =                    F") }),
		"wrong magic":  corrupt(func(b []byte) { copy(b, "BOGUS   = 1") }),
		"unterminated": corrupt(func(b []byte) { copy(b[80:], `OBJECT  = 'never ends`+"          ") }),
	}
	for name, b := range cases {
		_, werr := Decode(bytes.NewReader(b))
		_, verr := ParseView(b)
		if werr == nil {
			t.Fatalf("%s: Decode unexpectedly succeeded", name)
		}
		if verr == nil {
			t.Fatalf("%s: ParseView accepted what Decode rejected: %v", name, werr)
		}
		if werr.Error() != verr.Error() {
			t.Fatalf("%s: error text diverged:\ndecode: %s\nview:   %s", name, werr, verr)
		}
	}
}

// TestSectionReadInto checks the row-striped section read against At.
func TestSectionReadInto(t *testing.T) {
	raw := encodeRaw(t, testImage(t, 12, 10, -32, false))
	v, err := ParseView(raw)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := v.Section(-3, 4, 9, 20) // clipped on two sides
	if err != nil {
		t.Fatal(err)
	}
	got := sec.ReadInto(make([]float64, sec.W*sec.H))
	for y := 0; y < sec.H; y++ {
		for x := 0; x < sec.W; x++ {
			if want := v.At(sec.X0+x, sec.Y0+y); got[y*sec.W+x] != want {
				t.Fatalf("section pixel (%d,%d): %v != %v", x, y, got[y*sec.W+x], want)
			}
		}
	}
}

// FuzzView holds the one-reader contract over arbitrary bytes: Decode
// accepts an input exactly when ParseView does, rejections carry identical
// error text, and accepted inputs agree on geometry and on every pixel bit.
func FuzzView(f *testing.F) {
	f.Add(encodeRaw(f, testImage(f, 4, 3, -64, false)))
	f.Add(encodeRaw(f, testImage(f, 3, 4, 16, true)))
	f.Add(encodeRaw(f, testImage(f, 2, 2, 8, false)))
	short := encodeRaw(f, testImage(f, 5, 5, -32, false))
	f.Add(short[:len(short)-BlockSize])
	f.Add(hostileGeometry(f, 1<<31))
	f.Add([]byte("SIMPLE  =                    T"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		im, derr := Decode(bytes.NewReader(raw))
		v, verr := ParseView(raw)
		if derr != nil || verr != nil {
			if derr == nil || verr == nil || derr.Error() != verr.Error() {
				t.Fatalf("acceptance diverged:\ndecode: %v\nview:   %v", derr, verr)
			}
			return
		}
		if v.Nx != im.Nx || v.Ny != im.Ny || v.Bitpix != im.Bitpix {
			t.Fatalf("geometry: view %dx%d/%d, decode %dx%d/%d",
				v.Nx, v.Ny, v.Bitpix, im.Nx, im.Ny, im.Bitpix)
		}
		got := v.ReadInto(make([]float64, v.NPix()))
		for i := range im.Data {
			if math.Float64bits(got[i]) != math.Float64bits(im.Data[i]) {
				t.Fatalf("pixel %d: view %v != decode %v", i, got[i], im.Data[i])
			}
		}
	})
}

// hostileGeometry builds a 5,760-byte file (one header record, one data
// record) whose header declares an n-by-n float64 image.
func hostileGeometry(t testing.TB, n int64) []byte {
	t.Helper()
	h := NewHeader()
	h.Set("SIMPLE", true, "")
	h.Set("BITPIX", -64, "")
	h.Set("NAXIS", 2, "")
	h.Set("NAXIS1", n, "")
	h.Set("NAXIS2", n, "")
	var buf bytes.Buffer
	if err := writeHeader(&buf, h); err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, BlockSize))
	return buf.Bytes()
}

// TestHostileGeometryRejected feeds every entry point a header whose axis
// lengths overflow the pixel-count arithmetic (2^31 squared times 8 bytes
// wraps to 0, as does 2^32 squared): each must fail with ErrBadHeader naming
// the axes before sizing anything from them — never accept, panic in make,
// or (SplitStream) take the bogus image's segment to be its header alone.
func TestHostileGeometryRejected(t *testing.T) {
	for _, n := range []int64{1 << 31, 1 << 32} {
		raw := hostileGeometry(t, n)
		want := fmt.Sprintf("fits: malformed header: NAXIS1=%d NAXIS2=%d", n, n)
		check := func(entry string, err error) {
			t.Helper()
			if !errors.Is(err, ErrBadHeader) || !strings.HasSuffix(err.Error(), want) {
				t.Errorf("n=%d: %s = %v, want ...%q", n, entry, err, want)
			}
		}
		_, err := ParseView(raw)
		check("ParseView", err)
		_, err = Decode(bytes.NewReader(raw))
		check("Decode", err)
		stream := append(append([]byte(nil), raw...), encodeRaw(t, testImage(t, 4, 4, 16, false))...)
		segs, err := SplitStream(stream)
		check("SplitStream", err)
		if segs != nil {
			t.Errorf("n=%d: SplitStream delimited %d segments of a hostile stream", n, len(segs))
		}
	}
}

// TestParseViewAllocBudget pins the header-scan cost: parsing a view of a
// typical image allocates nothing — numeric values parse off stack strings
// and no Header is built — whatever the pixel count.
func TestParseViewAllocBudget(t *testing.T) {
	raw := encodeRaw(t, testImage(t, 64, 64, -64, true))
	buf := make([]float64, 64*64)
	allocs := testing.AllocsPerRun(200, func() {
		v, err := ParseView(raw)
		if err != nil {
			t.Fatal(err)
		}
		_ = v.ReadInto(buf)
	})
	if allocs > 0 {
		t.Fatalf("ParseView+ReadInto allocates %.1f times per image; want 0", allocs)
	}
}
