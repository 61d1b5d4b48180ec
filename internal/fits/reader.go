// The one FITS reader. Every way into the package — Decode over an
// io.Reader, ParseView over raw bytes, SplitStream over a concatenation —
// runs the same header scanner (scanHeader + parseCard), the same geometry
// check and the same pixel kernel (View.decode), so they accept exactly the
// same streams, fail with the same error text and produce bit-identical
// pixels (physical = BZERO + BSCALE*stored, one expression). FuzzView holds
// that equivalence over arbitrary bytes.
//
// A View wraps the raw encoded bytes of one FITS file and decodes pixels on
// demand, straight out of the 2880-byte logical records — no intermediate
// full-image []float64, no Header allocation. It is what the request hot
// path reads through: the webservice's per-galaxy measurement parses a View
// over the staged bytes and streams the pixels into an arena-backed buffer.
// Decode is the materialising form for callers that want the full Header.

package fits

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// View is a zero-copy window over one encoded FITS image. The raw bytes
// must not be mutated while the View is in use.
type View struct {
	raw     []byte
	dataOff int // offset of the data array (header blocks end here)

	Nx, Ny int
	Bitpix int     // 8, 16, 32, -32 or -64
	Bscale float64 // linear scaling: physical = Bzero + Bscale*stored
	Bzero  float64
}

// Header-value slots the geometry check consults.
const (
	kwSimple = iota
	kwBitpix
	kwNaxis
	kwNaxis1
	kwNaxis2
	kwBscale
	kwBzero
	numKW
)

// scanVal is one header value in the shape Header.Int/Float/Bool see it:
// typed, with absence and type mismatches falling back to defaults.
type scanVal struct {
	kind byte // 0 absent/valueless, 'b' bool, 'i' int, 'f' float, 's' string
	b    bool
	i    int64
	f    float64
}

func (v scanVal) toBool(def bool) bool {
	if v.kind == 'b' {
		return v.b
	}
	return def
}

func (v scanVal) toInt(def int64) int64 {
	switch v.kind {
	case 'i':
		return v.i
	case 'f':
		return int64(v.f)
	}
	return def
}

func (v scanVal) toFloat(def float64) float64 {
	switch v.kind {
	case 'f':
		return v.f
	case 'i':
		return float64(v.i)
	}
	return def
}

// value is the Card.Value form of a non-string scanVal.
func (v scanVal) value() any {
	switch v.kind {
	case 'b':
		return v.b
	case 'i':
		return v.i
	case 'f':
		return v.f
	}
	return nil
}

// ParseView validates raw as a single-HDU two-dimensional FITS image and
// returns a zero-copy view over it. Trailing padding may be absent (lenient
// writers drop it); a data array shorter than the header declares is
// ErrShortData. The scan allocates only when parsing numeric card values
// (strconv needs a string); it never builds a Header.
func ParseView(raw []byte) (View, error) {
	vals, blocks, err := scanHeader(func(n int) ([]byte, error) {
		switch rest := len(raw) - n*BlockSize; {
		case rest <= 0:
			return nil, io.EOF
		case rest < BlockSize:
			return nil, io.ErrUnexpectedEOF
		}
		return raw[n*BlockSize : (n+1)*BlockSize], nil
	}, nil)
	if err != nil {
		return View{}, err
	}
	v, err := geometry(&vals)
	if err != nil {
		return View{}, err
	}
	v.raw, v.dataOff = raw, blocks*BlockSize
	if avail := len(raw) - v.dataOff; avail < v.dataLen() {
		return View{}, shortData(avail, io.EOF)
	}
	return v, nil
}

// Decode reads a single-HDU FITS image, materialising the full Header and
// pixel array. It consumes r one 2880-byte logical record at a time — every
// legal pixel width divides BlockSize, so no pixel straddles a record —
// and never buffers the encoded stream.
func Decode(r io.Reader) (*Image, error) {
	blockBuf := getBlock()
	defer putBlock(blockBuf)
	block := *blockBuf
	h := NewHeader()
	vals, _, err := scanHeader(func(int) ([]byte, error) {
		_, err := io.ReadFull(r, block)
		return block, err
	}, h)
	if err != nil {
		return nil, err
	}
	v, err := geometry(&vals)
	if err != nil {
		return nil, err
	}
	im := &Image{Header: h, Nx: v.Nx, Ny: v.Ny, Bitpix: v.Bitpix, Data: make([]float64, v.NPix())}
	bytesPerPix, dataLen := v.bytesPerPix(), v.dataLen()
	for read := 0; read < dataLen; {
		chunk := min(dataLen-read, BlockSize)
		if _, err := io.ReadFull(r, block[:chunk]); err != nil {
			return nil, shortData(read, err)
		}
		v.decode(im.Data[read/bytesPerPix:(read+chunk)/bytesPerPix], block)
		read += chunk
	}
	// Trailing padding may be absent in lenient writers; ignore errors here.
	if pad := paddedLen(dataLen) - dataLen; pad > 0 {
		_, _ = io.ReadFull(r, block[:pad])
	}
	return im, nil
}

// shortData reports a data array that ended after got bytes: a completely
// absent array is io.EOF, a mid-array truncation an unexpected EOF, however
// the reads happened to be chunked.
func shortData(got int, err error) error {
	if err == io.EOF && got > 0 {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %v", ErrShortData, err)
}

// paddedLen rounds a data length up to whole logical records.
func paddedLen(n int) int { return (n + BlockSize - 1) / BlockSize * BlockSize }

// maxPixels bounds NAXIS1*NAXIS2 so that neither the padded byte length of
// the widest encoding nor a decoded []float64 of the image overflows int.
const maxPixels = (math.MaxInt - BlockSize) / 8

// geometry is the one image-geometry check: SIMPLE, NAXIS, the two axis
// lengths, BITPIX and the data-length arithmetic. Axis lengths come from
// bytes an external archive wrote, so their product is checked for overflow
// here, before anything is sized from it. The returned View carries the
// geometry and scaling only; ParseView adds the bytes.
func geometry(vals *[numKW]scanVal) (View, error) {
	if !vals[kwSimple].toBool(false) {
		return View{}, ErrNotFITS
	}
	if naxis := vals[kwNaxis].toInt(0); naxis != 2 {
		return View{}, fmt.Errorf("%w: NAXIS=%d (only 2-D images supported)", ErrUnsupported, naxis)
	}
	nx, ny := vals[kwNaxis1].toInt(0), vals[kwNaxis2].toInt(0)
	if nx <= 0 || ny <= 0 || nx > maxPixels/ny {
		return View{}, fmt.Errorf("%w: NAXIS1=%d NAXIS2=%d", ErrBadHeader, nx, ny)
	}
	bitpix := int(vals[kwBitpix].toInt(0))
	switch bitpix {
	case 8, 16, 32, -32, -64:
	default:
		return View{}, fmt.Errorf("%w: BITPIX %d", ErrUnsupported, bitpix)
	}
	return View{
		Nx:     int(nx),
		Ny:     int(ny),
		Bitpix: bitpix,
		Bscale: vals[kwBscale].toFloat(1),
		Bzero:  vals[kwBzero].toFloat(0),
	}, nil
}

// scanHeader walks header records — next(n) yields the n-th 2880-byte
// record — until an END card, validating every card and extracting the
// values the geometry check consults. With a non-nil h it also fills in the
// full Header; without one it allocates nothing beyond parseCard's numeric
// strings. It returns the number of records the header occupies.
func scanHeader(next func(n int) ([]byte, error), h *Header) (vals [numKW]scanVal, blocks int, err error) {
	var c *Card
	if h != nil {
		c = new(Card)
	}
	for blockNum := 0; ; blockNum++ {
		block, err := next(blockNum)
		if err != nil {
			return vals, 0, fmt.Errorf("%w: header block %d: %v", ErrBadHeader, blockNum, err)
		}
		for i := 0; i < cardsPerBlock; i++ {
			card := block[i*CardSize : (i+1)*CardSize]
			// The keyword is the 8-byte field right-trimmed of spaces (and
			// only spaces), original case preserved.
			kw := bytes.TrimRight(card[:8], " ")
			if bytes.Equal(kw, kwEND) {
				return vals, blockNum + 1, nil
			}
			if blockNum == 0 && i == 0 && !bytes.Equal(kw, kwSIMPLE) {
				return vals, 0, ErrNotFITS
			}
			if len(kw) == 0 {
				continue
			}
			sv, err := parseCard(kw, card, c)
			if err != nil {
				return vals, 0, err
			}
			if idx := kwIndex(kw); idx >= 0 {
				// Header.Set replaces on duplicate keywords, so lookups see
				// the last card's value; overwriting mirrors that.
				vals[idx] = sv
			}
			if h != nil {
				h.Set(c.Keyword, c.Value, c.Comment)
			}
		}
	}
}

var (
	kwEND     = []byte("END")
	kwSIMPLE  = []byte("SIMPLE")
	kwCOMMENT = []byte("COMMENT")
	kwHISTORY = []byte("HISTORY")
)

// kwIndex maps a raw keyword (scanHeader form) to the value slot the
// geometry check consults, or -1, under Header.Set's normalization. The
// conversion stays on the stack and ToUpper returns an already upper-case
// keyword unchanged, so conforming headers match without allocating.
func kwIndex(kw []byte) int {
	switch strings.ToUpper(strings.TrimSpace(string(kw))) {
	case "SIMPLE":
		return kwSimple
	case "BITPIX":
		return kwBitpix
	case "NAXIS":
		return kwNaxis
	case "NAXIS1":
		return kwNaxis1
	case "NAXIS2":
		return kwNaxis2
	case "BSCALE":
		return kwBscale
	case "BZERO":
		return kwBzero
	}
	return -1
}

// parseCard interprets the value-indicator syntax of one 80-byte card and
// returns its typed value. With a non-nil c it also fills in the card's
// Header form — string values and comment text, which a bare scan never
// needs; without one it allocates only the string strconv needs for numeric
// values (and the error paths).
func parseCard(kw, card []byte, c *Card) (scanVal, error) {
	if c != nil {
		*c = Card{Keyword: string(kw)}
	}
	if bytes.Equal(kw, kwCOMMENT) || bytes.Equal(kw, kwHISTORY) {
		if c != nil {
			c.Comment = strings.TrimRight(string(card[8:]), " ")
		}
		return scanVal{}, nil
	}
	if card[8] != '=' {
		// Valueless card; keep the text as a comment.
		if c != nil {
			c.Comment = strings.TrimSpace(string(card[8:]))
		}
		return scanVal{}, nil
	}
	body := card[10:]
	if rest := bytes.TrimLeft(body, " "); len(rest) > 0 && rest[0] == '\'' {
		// String value: find the closing quote, honoring '' escapes.
		rest = rest[1:]
		for i := 0; i < len(rest); i++ {
			if rest[i] != '\'' {
				continue
			}
			if i+1 < len(rest) && rest[i+1] == '\'' {
				i++
				continue
			}
			if c != nil {
				c.Value = strings.TrimRight(strings.ReplaceAll(string(rest[:i]), "''", "'"), " ")
				c.Comment = cardComment(rest[i+1:])
			}
			return scanVal{kind: 's'}, nil
		}
		return scanVal{}, fmt.Errorf("%w: unterminated string in card %q", ErrBadHeader, kw)
	}

	// Non-string: value runs to '/' or end.
	valPart := body
	if slash := bytes.IndexByte(body, '/'); slash >= 0 {
		valPart = body[:slash]
	}
	var sv scanVal
	switch valStr := bytes.TrimSpace(valPart); {
	case len(valStr) == 0:
	case len(valStr) == 1 && valStr[0] == 'T':
		sv = scanVal{kind: 'b', b: true}
	case len(valStr) == 1 && valStr[0] == 'F':
		sv = scanVal{kind: 'b', b: false}
	default:
		s := string(valStr)
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			sv = scanVal{kind: 'i', i: i}
		} else if f, err := strconv.ParseFloat(strings.ReplaceAll(s, "D", "E"), 64); err == nil {
			// FITS permits 'D' exponents in double-precision values.
			sv = scanVal{kind: 'f', f: f}
		} else {
			return scanVal{}, fmt.Errorf("%w: unparsable value %q in card %q", ErrBadHeader, s, kw)
		}
	}
	if c != nil {
		c.Value = sv.value()
		c.Comment = cardComment(body)
	}
	return sv, nil
}

// cardComment returns the text after the first '/' of a card's value field.
func cardComment(after []byte) string {
	if slash := bytes.IndexByte(after, '/'); slash >= 0 {
		return strings.TrimSpace(string(after[slash+1:]))
	}
	return ""
}

// NPix returns the number of pixels in the image.
func (v *View) NPix() int { return v.Nx * v.Ny }

// bytesPerPix is the stored width of one pixel.
func (v *View) bytesPerPix() int { return abs(v.Bitpix) / 8 }

// dataLen is the unpadded byte length of the data array.
func (v *View) dataLen() int { return v.NPix() * v.bytesPerPix() }

// At returns the pixel at 0-based (x, y); out-of-range coordinates return
// 0, like Image.At.
//
//nvo:hotpath
func (v *View) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= v.Nx || y >= v.Ny {
		return 0
	}
	var px [1]float64
	v.readRange(px[:], y*v.Nx+x, 1)
	return px[0]
}

// ReadInto decodes the full pixel array into dst, which must have capacity
// for Nx*Ny values, and returns dst[:Nx*Ny]. Values are bit-identical to
// Decode's Image.Data.
//
//nvo:hotpath
func (v *View) ReadInto(dst []float64) []float64 {
	return v.readRange(dst, 0, v.Nx*v.Ny)
}

// readRange decodes pixels [start, start+n) of the flat array into dst.
//
//nvo:hotpath
func (v *View) readRange(dst []float64, start, n int) []float64 {
	dst = dst[:n]
	v.decode(dst, v.raw[v.dataOff+start*v.bytesPerPix():])
	return dst
}

// decode is the one pixel kernel: it converts len(dst) big-endian stored
// values from the front of src to physical values, bzero + bscale*stored.
// One loop per BITPIX keeps the per-pixel work branch-free.
//
//nvo:hotpath
func (v *View) decode(dst []float64, src []byte) {
	bs, bz := v.Bscale, v.Bzero
	switch v.Bitpix {
	case 8:
		for i := range dst {
			dst[i] = bz + bs*float64(src[i])
		}
	case 16:
		for i := range dst {
			dst[i] = bz + bs*float64(int16(binary.BigEndian.Uint16(src[2*i:])))
		}
	case 32:
		for i := range dst {
			dst[i] = bz + bs*float64(int32(binary.BigEndian.Uint32(src[4*i:])))
		}
	case -32:
		for i := range dst {
			dst[i] = bz + bs*float64(math.Float32frombits(binary.BigEndian.Uint32(src[4*i:])))
		}
	case -64:
		for i := range dst {
			dst[i] = bz + bs*math.Float64frombits(binary.BigEndian.Uint64(src[8*i:]))
		}
	}
}

// SplitStream cuts a concatenation of FITS files into the raw byte segments
// of its constituents, using the format's self-delimiting 2880-byte record
// structure. Each returned segment decodes independently. Batched image
// services deliver many cutouts as one such stream. Segments are delimited
// by walking headers only — the geometry keywords give each data array's
// extent — so splitting never decodes a pixel.
func SplitStream(data []byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty stream", ErrShortData)
	}
	var out [][]byte
	for len(data) > 0 {
		v, err := ParseView(data)
		if err != nil {
			return nil, fmt.Errorf("fits: stream segment %d: %w", len(out), err)
		}
		// A truncated trailing padding record is tolerated, as in ParseView.
		n := min(v.dataOff+paddedLen(v.dataLen()), len(data))
		out = append(out, data[:n])
		data = data[n:]
	}
	return out, nil
}

// clipRect clips the w-by-h rectangle whose lower-left corner is at 0-based
// (x0, y0) to an nx-by-ny image and returns the clipped origin and size.
// Empty requests and regions entirely outside the image yield an error; the
// latter names the rectangle the caller asked for, not the clipped
// coordinates (which degenerate to (0,0) for any fully off-image request).
func clipRect(x0, y0, w, h, nx, ny int) (cx, cy, cw, ch int, err error) {
	if w <= 0 || h <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("fits: cutout size %dx%d must be positive", w, h)
	}
	x1, y1 := min(x0+w, nx), min(y0+h, ny)
	cx, cy = max(x0, 0), max(y0, 0)
	if cx >= x1 || cy >= y1 {
		return 0, 0, 0, 0, fmt.Errorf("fits: cutout (%d,%d)+%dx%d outside %dx%d image", x0, y0, w, h, nx, ny)
	}
	return cx, cy, x1 - cx, y1 - cy, nil
}

// Section is a zero-copy rectangular window into a View — the cutout
// operation without the intermediate full-image decode.
type Section struct {
	view *View
	// Clipped 0-based geometry, Cutout semantics.
	X0, Y0, W, H int
}

// Section selects the w-by-h window whose lower-left corner is at 0-based
// (x0, y0), clipping to the image bounds exactly as Image.Cutout does.
func (v *View) Section(x0, y0, w, h int) (Section, error) {
	cx, cy, cw, ch, err := clipRect(x0, y0, w, h, v.Nx, v.Ny)
	if err != nil {
		return Section{}, err
	}
	return Section{view: v, X0: cx, Y0: cy, W: cw, H: ch}, nil
}

// ReadInto decodes the section into dst, which must have capacity for W*H
// values, and returns dst[:W*H]. Rows decode directly from the underlying
// record bytes; the values are bit-identical to Cutout's Image.Data.
//
//nvo:hotpath
func (s Section) ReadInto(dst []float64) []float64 {
	dst = dst[:s.W*s.H]
	for y := 0; y < s.H; y++ {
		s.view.readRange(dst[y*s.W:(y+1)*s.W], (s.Y0+y)*s.view.Nx+s.X0, s.W)
	}
	return dst
}
