package fits

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/wcs"
)

func TestHeaderSetGet(t *testing.T) {
	h := NewHeader()
	h.Set("OBJECT", "Abell 2256", "target")
	h.Set("EXPTIME", 300.5, "seconds")
	h.Set("NCOMBINE", 4, "")
	h.Set("GOODWCS", true, "")

	if got := h.Str("OBJECT", ""); got != "Abell 2256" {
		t.Errorf("Str(OBJECT) = %q", got)
	}
	if got := h.Float("EXPTIME", 0); got != 300.5 {
		t.Errorf("Float(EXPTIME) = %v", got)
	}
	if got := h.Int("NCOMBINE", 0); got != 4 {
		t.Errorf("Int(NCOMBINE) = %v", got)
	}
	if !h.Bool("GOODWCS", false) {
		t.Error("Bool(GOODWCS) = false")
	}
	// Replacement keeps a single card.
	n := h.Len()
	h.Set("OBJECT", "Abell 2255", "retarget")
	if h.Len() != n {
		t.Errorf("replacing card grew header: %d -> %d", n, h.Len())
	}
	if got := h.Str("OBJECT", ""); got != "Abell 2255" {
		t.Errorf("after replace, Str(OBJECT) = %q", got)
	}
}

func TestHeaderCommentsAccumulate(t *testing.T) {
	h := NewHeader()
	h.Set("COMMENT", nil, "first")
	h.Set("COMMENT", nil, "second")
	h.Set("HISTORY", nil, "processed")
	count := 0
	for _, c := range h.Cards() {
		if c.Keyword == "COMMENT" {
			count++
		}
	}
	if count != 2 {
		t.Errorf("COMMENT cards = %d, want 2", count)
	}
}

func TestHeaderDefaults(t *testing.T) {
	h := NewHeader()
	if h.Int("NOPE", 7) != 7 || h.Float("NOPE", 2.5) != 2.5 || h.Str("NOPE", "d") != "d" || !h.Bool("NOPE", true) {
		t.Error("missing keywords must return defaults")
	}
}

func TestImagePixelAccess(t *testing.T) {
	im := NewImage(4, 3, -32)
	im.SetAt(2, 1, 5.5)
	if got := im.At(2, 1); got != 5.5 {
		t.Errorf("At(2,1) = %v", got)
	}
	if got := im.Data[1*4+2]; got != 5.5 {
		t.Errorf("row-major layout violated: Data[6] = %v", got)
	}
	// Out-of-range access is a no-op / zero.
	im.SetAt(-1, 0, 9)
	im.SetAt(0, 99, 9)
	if im.At(-1, 0) != 0 || im.At(4, 0) != 0 || im.At(0, 3) != 0 {
		t.Error("out-of-range At must return 0")
	}
}

func encodeDecode(t *testing.T, im *Image) *Image {
	t.Helper()
	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if buf.Len()%BlockSize != 0 {
		t.Fatalf("encoded length %d not a multiple of %d", buf.Len(), BlockSize)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return out
}

func TestRoundTripFloat64(t *testing.T) {
	im := NewImage(17, 9, -64)
	rng := rand.New(rand.NewSource(1))
	for i := range im.Data {
		im.Data[i] = rng.NormFloat64() * 1e3
	}
	im.Header.Set("OBJECT", "it's a test", "quote escaping")
	im.Header.Set("REDSHIFT", 0.027886, "z")

	out := encodeDecode(t, im)
	if out.Nx != 17 || out.Ny != 9 || out.Bitpix != -64 {
		t.Fatalf("geometry mismatch: %dx%d bitpix %d", out.Nx, out.Ny, out.Bitpix)
	}
	for i := range im.Data {
		if im.Data[i] != out.Data[i] {
			t.Fatalf("pixel %d: %v != %v", i, im.Data[i], out.Data[i])
		}
	}
	if got := out.Header.Str("OBJECT", ""); got != "it's a test" {
		t.Errorf("OBJECT = %q", got)
	}
	if got := out.Header.Float("REDSHIFT", 0); got != 0.027886 {
		t.Errorf("REDSHIFT = %v", got)
	}
}

func TestRoundTripFloat32(t *testing.T) {
	im := NewImage(5, 5, -32)
	for i := range im.Data {
		im.Data[i] = float64(float32(float64(i) * 0.125))
	}
	out := encodeDecode(t, im)
	for i := range im.Data {
		if im.Data[i] != out.Data[i] {
			t.Fatalf("pixel %d: %v != %v", i, im.Data[i], out.Data[i])
		}
	}
}

func TestRoundTripIntegerBitpix(t *testing.T) {
	for _, bp := range []int{8, 16, 32} {
		im := NewImage(3, 2, bp)
		im.Data = []float64{0, 1, 2, 100, 200, 255}
		out := encodeDecode(t, im)
		for i := range im.Data {
			if im.Data[i] != out.Data[i] {
				t.Errorf("bitpix %d pixel %d: %v != %v", bp, i, im.Data[i], out.Data[i])
			}
		}
	}
}

func TestBscaleBzero(t *testing.T) {
	im := NewImage(2, 2, 16)
	im.Header.Set("BSCALE", 0.01, "")
	im.Header.Set("BZERO", 100.0, "")
	im.Data = []float64{100, 100.01, 99.99, 105}
	out := encodeDecode(t, im)
	for i := range im.Data {
		if math.Abs(im.Data[i]-out.Data[i]) > 0.005 {
			t.Errorf("pixel %d: %v != %v", i, im.Data[i], out.Data[i])
		}
	}
}

func TestIntegerSaturation(t *testing.T) {
	im := NewImage(2, 1, 8)
	im.Data = []float64{-5, 300}
	out := encodeDecode(t, im)
	if out.Data[0] != 0 || out.Data[1] != 255 {
		t.Errorf("saturation failed: %v", out.Data)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			vals = []float64{0}
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		im := NewImage(len(vals), 1, -64)
		copy(im.Data, vals)
		var buf bytes.Buffer
		if err := im.Encode(&buf); err != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil {
			return false
		}
		for i := range vals {
			if out.Data[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWCSRoundTrip(t *testing.T) {
	im := NewImage(512, 512, -32)
	p := wcs.NewTanProjection(wcs.New(210.25, -12.5), 512, 512, 1.7/3600)
	im.SetWCS(p)
	out := encodeDecode(t, im)
	q, ok := out.WCS()
	if !ok {
		t.Fatal("WCS lost in round trip")
	}
	if q.Center.Separation(p.Center) > 1e-9 || q.RefX != p.RefX || q.ScaleY != p.ScaleY {
		t.Errorf("WCS mismatch: got %+v want %+v", q, p)
	}
}

func TestWCSMissing(t *testing.T) {
	im := NewImage(8, 8, -32)
	if _, ok := im.WCS(); ok {
		t.Error("image without CTYPE1 must not report a WCS")
	}
}

func TestCutout(t *testing.T) {
	im := NewImage(10, 10, -64)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			im.SetAt(x, y, float64(y*10+x))
		}
	}
	p := wcs.NewTanProjection(wcs.New(50, 50), 10, 10, 1.0/3600)
	im.SetWCS(p)

	cut, err := im.Cutout(3, 4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Nx != 4 || cut.Ny != 3 {
		t.Fatalf("cutout is %dx%d", cut.Nx, cut.Ny)
	}
	if got := cut.At(0, 0); got != 43 {
		t.Errorf("cut(0,0) = %v, want 43", got)
	}
	if got := cut.At(3, 2); got != 66 {
		t.Errorf("cut(3,2) = %v, want 66", got)
	}
	// WCS consistency: the same sky position must map into both frames.
	q, ok := cut.WCS()
	if !ok {
		t.Fatal("cutout lost WCS")
	}
	sky := p.PixelToSky(5, 6)
	cx, cy, _ := q.SkyToPixel(sky)
	if math.Abs(cx-(5-3)) > 1e-9 || math.Abs(cy-(6-4)) > 1e-9 {
		t.Errorf("cutout WCS maps to (%v,%v), want (2,2)", cx, cy)
	}
}

func TestCutoutClipping(t *testing.T) {
	im := NewImage(10, 10, -32)
	cut, err := im.Cutout(-5, -5, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Nx != 3 || cut.Ny != 3 {
		t.Errorf("clipped cutout is %dx%d, want 3x3", cut.Nx, cut.Ny)
	}
	if _, err := im.Cutout(20, 20, 5, 5); err == nil {
		t.Error("fully outside cutout must fail")
	}
	if _, err := im.Cutout(0, 0, 0, 5); err == nil {
		t.Error("zero-size cutout must fail")
	}
}

func TestStats(t *testing.T) {
	im := NewImage(2, 2, -64)
	im.Data = []float64{1, 2, 3, 4}
	min, max, mean, sd := im.Stats()
	if min != 1 || max != 4 || mean != 2.5 {
		t.Errorf("Stats = %v %v %v", min, max, mean)
	}
	if math.Abs(sd-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("stddev = %v", sd)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader(strings.Repeat("x", BlockSize))); err == nil {
		t.Error("garbage must not decode")
	}
	if _, err := Decode(strings.NewReader("short")); err == nil {
		t.Error("short input must not decode")
	}
}

func TestDecodeTruncatedData(t *testing.T) {
	im := NewImage(100, 100, -64)
	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:BlockSize*2] // header + less data than needed
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Error("truncated data must not decode")
	}
}

func TestHeaderLargerThanOneBlock(t *testing.T) {
	im := NewImage(2, 2, -32)
	for i := 0; i < 60; i++ { // > 36 cards forces a second header block
		im.Header.Set("HISTORY", nil, "step")
	}
	out := encodeDecode(t, im)
	if out.Nx != 2 || out.Ny != 2 {
		t.Errorf("multi-block header broke geometry: %dx%d", out.Nx, out.Ny)
	}
}

func TestParseCardDExponent(t *testing.T) {
	card := make([]byte, CardSize)
	copy(card, "REDSHIFT=            2.788D-2 / z                                       ")
	for i := len("REDSHIFT=            2.788D-2 / z"); i < CardSize; i++ {
		card[i] = ' '
	}
	var c Card
	sv, err := parseCard([]byte("REDSHIFT"), card, &c)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Value.(float64); !ok || math.Abs(v-0.02788) > 1e-12 {
		t.Errorf("D-exponent parsed as %v", c.Value)
	}
	if sv.toFloat(0) != c.Value || c.Keyword != "REDSHIFT" || c.Comment != "z" {
		t.Errorf("scan value %+v / card %+v disagree", sv, c)
	}
}

func BenchmarkEncode256(b *testing.B) {
	im := NewImage(256, 256, -32)
	for i := range im.Data {
		im.Data[i] = float64(i % 251)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := im.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode256(b *testing.B) {
	im := NewImage(256, 256, -32)
	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCutout(b *testing.B) {
	im := NewImage(1024, 1024, -32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := im.Cutout(400, 400, 64, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSplitStream(t *testing.T) {
	var stream bytes.Buffer
	sizes := [][2]int{{8, 8}, {16, 4}, {10, 10}}
	for i, sz := range sizes {
		im := NewImage(sz[0], sz[1], -32)
		im.Header.Set("IMGNUM", i, "")
		if err := im.Encode(&stream); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := SplitStream(stream.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("segments = %d", len(segs))
	}
	for i, seg := range segs {
		im, err := Decode(bytes.NewReader(seg))
		if err != nil {
			t.Fatal(err)
		}
		if im.Nx != sizes[i][0] || int(im.Header.Int("IMGNUM", -1)) != i {
			t.Errorf("segment %d: %dx%d num=%d", i, im.Nx, im.Ny, im.Header.Int("IMGNUM", -1))
		}
	}
	if _, err := SplitStream(nil); err == nil {
		t.Error("empty stream must fail")
	}
	if _, err := SplitStream([]byte("garbage that is not FITS at all")); err == nil {
		t.Error("garbage must fail")
	}
}
