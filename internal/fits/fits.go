// Package fits implements the subset of the Flexible Image Transport System
// (FITS, Hanisch et al. 2001) that the NVO galaxy-morphology prototype
// exchanges: single-HDU two-dimensional images with integer or IEEE floating
// point pixels, including the linear-scaling keywords BSCALE/BZERO and the
// tangent-plane WCS keywords that tie pixels to the sky.
//
// A FITS file is a sequence of 2880-byte logical records. The header is a
// series of 80-character "cards" (KEYWORD = value / comment), terminated by
// an END card and padded with blanks to a record boundary. The data array
// follows in big-endian order, padded with zero bytes to a record boundary.
package fits

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/wcs"
)

// BlockSize is the FITS logical record length in bytes.
const BlockSize = 2880

// CardSize is the length of one header card in bytes.
const CardSize = 80

// cardsPerBlock is the number of header cards per logical record.
const cardsPerBlock = BlockSize / CardSize

// blockPool recycles the 2880-byte record buffers Encode, Decode and the
// header reader work through. Every galaxy measured and every cutout
// written cycles at least two of these; pooling keeps the block traffic
// off the per-request allocation budget.
var blockPool = sync.Pool{New: func() any {
	b := make([]byte, BlockSize)
	return &b
}}

func getBlock() *[]byte  { return blockPool.Get().(*[]byte) }
func putBlock(b *[]byte) { blockPool.Put(b) }

// Errors returned by the decoder.
var (
	ErrNotFITS     = errors.New("fits: not a FITS file (missing SIMPLE card)")
	ErrBadHeader   = errors.New("fits: malformed header")
	ErrUnsupported = errors.New("fits: unsupported feature")
	ErrShortData   = errors.New("fits: truncated data array")
)

// Card is one 80-character header record. Value holds one of: nil (comment
// or valueless card), bool, int64, float64 or string.
type Card struct {
	Keyword string
	Value   any
	Comment string
}

// Header is an ordered collection of cards with keyword lookup. Keyword
// comparisons are case-sensitive; FITS keywords are upper case by convention
// and this package always writes them that way.
type Header struct {
	cards []Card
	index map[string]int // keyword -> first occurrence in cards
}

// NewHeader returns an empty header.
func NewHeader() *Header {
	return &Header{index: make(map[string]int)}
}

// Len returns the number of cards (excluding the END card, which is implicit).
func (h *Header) Len() int { return len(h.cards) }

// Cards returns the cards in order. The returned slice must not be modified.
func (h *Header) Cards() []Card { return h.cards }

// Set appends or replaces the card for keyword. COMMENT and HISTORY keywords
// are always appended (FITS allows many of each).
func (h *Header) Set(keyword string, value any, comment string) {
	keyword = strings.ToUpper(strings.TrimSpace(keyword))
	c := Card{Keyword: keyword, Value: normalizeValue(value), Comment: comment}
	if keyword != "COMMENT" && keyword != "HISTORY" && keyword != "" {
		if i, ok := h.index[keyword]; ok {
			h.cards[i] = c
			return
		}
	}
	if h.index == nil {
		h.index = make(map[string]int)
	}
	if _, ok := h.index[keyword]; !ok {
		h.index[keyword] = len(h.cards)
	}
	h.cards = append(h.cards, c)
}

// normalizeValue widens native numeric types so lookups behave uniformly.
func normalizeValue(v any) any {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case float32:
		return float64(x)
	default:
		return v
	}
}

// Get returns the value for keyword and whether it is present.
func (h *Header) Get(keyword string) (any, bool) {
	i, ok := h.index[strings.ToUpper(strings.TrimSpace(keyword))]
	if !ok {
		return nil, false
	}
	return h.cards[i].Value, true
}

// Int returns the integer value of keyword, or def if absent or non-integer.
func (h *Header) Int(keyword string, def int64) int64 {
	if v, ok := h.Get(keyword); ok {
		switch x := v.(type) {
		case int64:
			return x
		case float64:
			return int64(x)
		}
	}
	return def
}

// Float returns the float value of keyword, or def if absent or non-numeric.
func (h *Header) Float(keyword string, def float64) float64 {
	if v, ok := h.Get(keyword); ok {
		switch x := v.(type) {
		case float64:
			return x
		case int64:
			return float64(x)
		}
	}
	return def
}

// Str returns the string value of keyword, or def if absent or non-string.
func (h *Header) Str(keyword, def string) string {
	if v, ok := h.Get(keyword); ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return def
}

// Bool returns the logical value of keyword, or def if absent or non-logical.
func (h *Header) Bool(keyword string, def bool) bool {
	if v, ok := h.Get(keyword); ok {
		if b, ok := v.(bool); ok {
			return b
		}
	}
	return def
}

// Image is a two-dimensional FITS image. Pixels are stored as float64
// regardless of on-disk BITPIX; Bitpix controls the encoding used on write.
// The pixel at column x (0-based, fastest axis / NAXIS1) and row y (0-based,
// NAXIS2) is Data[y*Nx+x].
type Image struct {
	Header *Header
	Nx, Ny int
	Bitpix int // 8, 16, 32, -32 or -64
	Data   []float64
}

// NewImage allocates a zeroed nx-by-ny image with the given BITPIX and a
// minimal mandatory header.
func NewImage(nx, ny, bitpix int) *Image {
	h := NewHeader()
	h.Set("SIMPLE", true, "conforms to FITS standard")
	h.Set("BITPIX", bitpix, "bits per pixel")
	h.Set("NAXIS", 2, "number of axes")
	h.Set("NAXIS1", nx, "axis 1 length")
	h.Set("NAXIS2", ny, "axis 2 length")
	return &Image{
		Header: h,
		Nx:     nx,
		Ny:     ny,
		Bitpix: bitpix,
		Data:   make([]float64, nx*ny),
	}
}

// At returns the pixel at 0-based (x, y); out-of-range coordinates return 0.
func (im *Image) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= im.Nx || y >= im.Ny {
		return 0
	}
	return im.Data[y*im.Nx+x]
}

// SetAt stores v at 0-based (x, y); out-of-range coordinates are ignored.
func (im *Image) SetAt(x, y int, v float64) {
	if x < 0 || y < 0 || x >= im.Nx || y >= im.Ny {
		return
	}
	im.Data[y*im.Nx+x] = v
}

// SetWCS records a tangent-plane projection in the standard WCS keywords.
func (im *Image) SetWCS(p wcs.TanProjection) {
	im.Header.Set("CTYPE1", "RA---TAN", "gnomonic projection")
	im.Header.Set("CTYPE2", "DEC--TAN", "gnomonic projection")
	im.Header.Set("CRVAL1", p.Center.RA, "reference RA (deg)")
	im.Header.Set("CRVAL2", p.Center.Dec, "reference Dec (deg)")
	im.Header.Set("CRPIX1", p.RefX, "reference pixel, axis 1")
	im.Header.Set("CRPIX2", p.RefY, "reference pixel, axis 2")
	im.Header.Set("CDELT1", p.ScaleX, "deg/pixel, axis 1")
	im.Header.Set("CDELT2", p.ScaleY, "deg/pixel, axis 2")
}

// WCS reconstructs the tangent-plane projection from header keywords. The
// second return is false if the image carries no TAN projection.
func (im *Image) WCS() (wcs.TanProjection, bool) {
	if im.Header.Str("CTYPE1", "") != "RA---TAN" {
		return wcs.TanProjection{}, false
	}
	return wcs.TanProjection{
		Center: wcs.New(im.Header.Float("CRVAL1", 0), im.Header.Float("CRVAL2", 0)),
		RefX:   im.Header.Float("CRPIX1", 1),
		RefY:   im.Header.Float("CRPIX2", 1),
		ScaleX: im.Header.Float("CDELT1", -1.0/3600),
		ScaleY: im.Header.Float("CDELT2", 1.0/3600),
	}, true
}

// Cutout extracts the w-by-h sub-image whose lower-left corner is at 0-based
// (x0, y0), clipping to the image bounds. Regions entirely outside the image
// yield an error. WCS reference pixels are shifted so the cutout's projection
// still maps pixels to the correct sky positions — this is the operation the
// NVO "image cutout service" performs for each galaxy.
func (im *Image) Cutout(x0, y0, w, h int) (*Image, error) {
	x0, y0, w, h, err := clipRect(x0, y0, w, h, im.Nx, im.Ny)
	if err != nil {
		return nil, err
	}
	out := NewImage(w, h, im.Bitpix)
	for y := 0; y < h; y++ {
		copy(out.Data[y*w:(y+1)*w], im.Data[(y0+y)*im.Nx+x0:])
	}
	// Copy non-structural cards and shift the WCS reference pixel.
	for _, c := range im.Header.Cards() {
		switch c.Keyword {
		case "SIMPLE", "BITPIX", "NAXIS", "NAXIS1", "NAXIS2", "END":
			continue
		case "CRPIX1":
			out.Header.Set("CRPIX1", im.Header.Float("CRPIX1", 1)-float64(x0), c.Comment)
		case "CRPIX2":
			out.Header.Set("CRPIX2", im.Header.Float("CRPIX2", 1)-float64(y0), c.Comment)
		default:
			out.Header.Set(c.Keyword, c.Value, c.Comment)
		}
	}
	return out, nil
}

// Stats returns the minimum, maximum, mean and standard deviation of the
// pixel values.
func (im *Image) Stats() (min, max, mean, stddev float64) {
	if len(im.Data) == 0 {
		return 0, 0, 0, 0
	}
	min, max = im.Data[0], im.Data[0]
	var sum, sum2 float64
	for _, v := range im.Data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
		sum2 += v * v
	}
	n := float64(len(im.Data))
	mean = sum / n
	variance := sum2/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return min, max, mean, math.Sqrt(variance)
}

// Encode writes the image as a standards-conformant FITS file. Integer
// BITPIX values are rounded; values outside the integer range saturate.
func (im *Image) Encode(w io.Writer) error {
	if len(im.Data) != im.Nx*im.Ny {
		return fmt.Errorf("fits: data length %d != %d*%d", len(im.Data), im.Nx, im.Ny)
	}
	// Refresh the mandatory cards so they reflect the actual geometry.
	im.Header.Set("SIMPLE", true, "conforms to FITS standard")
	im.Header.Set("BITPIX", im.Bitpix, "bits per pixel")
	im.Header.Set("NAXIS", 2, "number of axes")
	im.Header.Set("NAXIS1", im.Nx, "axis 1 length")
	im.Header.Set("NAXIS2", im.Ny, "axis 2 length")

	if err := writeHeader(w, im.Header); err != nil {
		return err
	}
	return writeData(w, im)
}

// writeHeader emits the cards in canonical order (mandatory cards first) and
// pads to a record boundary.
func writeHeader(w io.Writer, h *Header) error {
	var buf []byte
	emit := func(c Card) {
		buf = append(buf, formatCard(c)...)
	}
	// Mandatory cards in required order.
	for _, k := range []string{"SIMPLE", "BITPIX", "NAXIS", "NAXIS1", "NAXIS2"} {
		if i, ok := h.index[k]; ok {
			emit(h.cards[i])
		}
	}
	for _, c := range h.cards {
		switch c.Keyword {
		case "SIMPLE", "BITPIX", "NAXIS", "NAXIS1", "NAXIS2", "END":
			continue
		}
		emit(c)
	}
	buf = append(buf, formatCard(Card{Keyword: "END"})...)
	for len(buf)%BlockSize != 0 {
		buf = append(buf, ' ')
	}
	_, err := w.Write(buf)
	return err
}

// formatCard renders one 80-byte card.
func formatCard(c Card) []byte {
	card := make([]byte, CardSize)
	for i := range card {
		card[i] = ' '
	}
	copy(card, c.Keyword)
	if c.Keyword == "COMMENT" || c.Keyword == "HISTORY" || c.Keyword == "" {
		copy(card[8:], c.Comment)
		return card
	}
	if c.Keyword == "END" {
		return card
	}
	card[8] = '='
	var val string
	switch v := c.Value.(type) {
	case nil:
		val = ""
	case bool:
		if v {
			val = "T"
		} else {
			val = "F"
		}
		val = fmt.Sprintf("%20s", val)
	case int64:
		val = fmt.Sprintf("%20d", v)
	case float64:
		val = fmt.Sprintf("%20s", formatFloat(v))
	case string:
		s := strings.ReplaceAll(v, "'", "''")
		val = fmt.Sprintf("'%-8s'", s)
	default:
		val = fmt.Sprintf("%20v", v)
	}
	pos := 10
	copy(card[pos:], val)
	pos += len(val)
	if c.Comment != "" && pos+3 < CardSize {
		copy(card[pos+1:], "/ ")
		copy(card[pos+3:], c.Comment)
	}
	return card
}

// formatFloat renders a float in a FITS-legal form that always round-trips.
func formatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'G', 17, 64)
	if !strings.ContainsAny(s, ".E") {
		s += "."
	}
	return s
}

// writeData emits the big-endian data array with BSCALE/BZERO applied
// inversely (physical = BZERO + BSCALE*stored, so stored = (physical-BZERO)/BSCALE).
// Pixels are encoded one 2880-byte logical record at a time — every legal
// pixel width divides BlockSize, so no pixel straddles a record — keeping
// the encoder's memory constant regardless of image size.
func writeData(w io.Writer, im *Image) error {
	bscale := im.Header.Float("BSCALE", 1)
	bzero := im.Header.Float("BZERO", 0)
	if bscale == 0 {
		return fmt.Errorf("%w: BSCALE = 0", ErrBadHeader)
	}
	switch im.Bitpix {
	case 8, 16, 32, -32, -64:
	default:
		return fmt.Errorf("%w: BITPIX %d", ErrUnsupported, im.Bitpix)
	}

	bytesPerPix := abs(im.Bitpix) / 8
	blockBuf := getBlock()
	defer putBlock(blockBuf)
	block := *blockBuf
	fill := 0
	for _, phys := range im.Data {
		stored := (phys - bzero) / bscale
		switch im.Bitpix {
		case 8:
			block[fill] = uint8(clampRound(stored, 0, 255))
		case 16:
			binary.BigEndian.PutUint16(block[fill:], uint16(int16(clampRound(stored, math.MinInt16, math.MaxInt16))))
		case 32:
			binary.BigEndian.PutUint32(block[fill:], uint32(int32(clampRound(stored, math.MinInt32, math.MaxInt32))))
		case -32:
			binary.BigEndian.PutUint32(block[fill:], math.Float32bits(float32(stored)))
		case -64:
			binary.BigEndian.PutUint64(block[fill:], math.Float64bits(stored))
		}
		fill += bytesPerPix
		if fill == BlockSize {
			if _, err := w.Write(block); err != nil {
				return err
			}
			fill = 0
		}
	}
	if fill > 0 {
		// Zero-pad the final partial record.
		for i := fill; i < BlockSize; i++ {
			block[i] = 0
		}
		if _, err := w.Write(block); err != nil {
			return err
		}
	}
	return nil
}

func clampRound(v, lo, hi float64) int64 {
	r := math.Round(v)
	if r < lo {
		r = lo
	}
	if r > hi {
		r = hi
	}
	return int64(r)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
