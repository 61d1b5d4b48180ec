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
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/wcs"
)

// BlockSize is the FITS logical record length in bytes.
const BlockSize = 2880

// CardSize is the length of one header card in bytes.
const CardSize = 80

// cardsPerBlock is the number of header cards per logical record.
const cardsPerBlock = BlockSize / CardSize

// blockPool recycles the 2880-byte record buffers Decode and the header
// reader work through. Every galaxy decoded cycles at least one of these;
// pooling keeps the block traffic off the per-request allocation budget.
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

// Card is one 80-character header record: a keyword, a value and a
// comment. The value is held unboxed, in the one form the header scan also
// reads values in: none, or one bool, int64, float64 or string. A Header
// gives it back (Get, Int, Float, Str, Bool).
type Card struct {
	Keyword string
	val     value
	Comment string
}

// value is one header value, unboxed: what a Card holds, what the header
// scan reads for the geometry check, and what Header.Int/Float/Str/Bool
// read, with absence and type mismatches falling back to defaults.
type value struct {
	kind byte // 0 absent/valueless, 'b' bool, 'i' int, 'f' float, 's' string, '?' a type no card holds
	b    bool
	i    int64
	f    float64
	s    string // the string; for '?', the name of the value's type
}

// valueOf is Header.Set's value v unboxed. It keeps no reference to v.
func valueOf(v any) value {
	switch x := v.(type) {
	case nil:
		return value{}
	case bool:
		return value{kind: 'b', b: x}
	case int:
		return value{kind: 'i', i: int64(x)}
	case int32:
		return value{kind: 'i', i: int64(x)}
	case int64:
		return value{kind: 'i', i: x}
	case float32:
		return value{kind: 'f', f: float64(x)}
	case float64:
		return value{kind: 'f', f: x}
	case string:
		return value{kind: 's', s: x}
	}
	return value{kind: '?', s: reflect.TypeOf(v).String()}
}

func (v value) toBool(def bool) bool {
	if v.kind == 'b' {
		return v.b
	}
	return def
}

func (v value) toInt(def int64) int64 {
	switch v.kind {
	case 'i':
		return v.i
	case 'f':
		return int64(v.f)
	}
	return def
}

func (v value) toFloat(def float64) float64 {
	switch v.kind {
	case 'f':
		return v.f
	case 'i':
		return float64(v.i)
	}
	return def
}

func (v value) toStr(def string) string {
	if v.kind == 's' {
		return v.s
	}
	return def
}

// boxed is v as Header.Get gives it: nil, bool, int64, float64 or string.
func (v value) boxed() any {
	switch v.kind {
	case 'b':
		return v.b
	case 'i':
		return v.i
	case 'f':
		return v.f
	case 's':
		return v.s
	}
	return nil
}

// Header is an ordered collection of cards with keyword lookup. Keyword
// comparisons are case-sensitive; FITS keywords are upper case by convention
// and this package always writes them that way. A header holds tens of
// cards, so lookups scan them instead of keeping an index.
type Header struct {
	cards []Card
}

// headerCards is the card capacity a header starts with: the five
// mandatory cards, the eight WCS cards and a few more, so a typical header
// (a cutout's holds 16) never regrows.
const headerCards = 16

// NewHeader returns an empty header.
func NewHeader() *Header {
	return &Header{}
}

// Len returns the number of cards (excluding the END card, which is implicit).
func (h *Header) Len() int { return len(h.cards) }

// Cards returns the cards in order. The returned slice must not be modified.
func (h *Header) Cards() []Card { return h.cards }

// Set appends or replaces the card for keyword. COMMENT and HISTORY keywords
// are always appended (FITS allows many of each). v is nil (no value), a
// bool, an int, int32 or int64 (held as int64), a float32 or float64 (held
// as float64) or a string; of a value of any other type the card keeps only
// the type's name, and the encoder refuses it. Set keeps no reference to v,
// so a number boxed for the call stays on the caller's stack.
func (h *Header) Set(keyword string, v any, comment string) {
	h.set(Card{Keyword: keyword, val: valueOf(v), Comment: comment})
}

// set is Set for a card already built: it normalizes the keyword and
// appends or replaces the card.
func (h *Header) set(c Card) {
	c.Keyword = strings.ToUpper(strings.TrimSpace(c.Keyword))
	if c.Keyword != "COMMENT" && c.Keyword != "HISTORY" && c.Keyword != "" {
		if i := h.find(c.Keyword); i >= 0 {
			h.cards[i] = c
			return
		}
	}
	if h.cards == nil {
		h.cards = make([]Card, 0, headerCards)
	}
	h.cards = append(h.cards, c)
}

// find returns the index of keyword's first card, or -1.
func (h *Header) find(keyword string) int {
	for i := range h.cards {
		if h.cards[i].Keyword == keyword {
			return i
		}
	}
	return -1
}

// lookup returns keyword's value, or no value when it is absent.
func (h *Header) lookup(keyword string) (value, bool) {
	i := h.find(strings.ToUpper(strings.TrimSpace(keyword)))
	if i < 0 {
		return value{}, false
	}
	return h.cards[i].val, true
}

// Get returns the value for keyword (nil, bool, int64, float64 or string)
// and whether it is present. A card whose value was of a type no card holds
// gives nil.
func (h *Header) Get(keyword string) (any, bool) {
	v, ok := h.lookup(keyword)
	return v.boxed(), ok
}

// Int returns the integer value of keyword, or def if absent or non-integer.
func (h *Header) Int(keyword string, def int64) int64 {
	v, _ := h.lookup(keyword)
	return v.toInt(def)
}

// Float returns the float value of keyword, or def if absent or non-numeric.
func (h *Header) Float(keyword string, def float64) float64 {
	v, _ := h.lookup(keyword)
	return v.toFloat(def)
}

// Str returns the string value of keyword, or def if absent or non-string.
func (h *Header) Str(keyword, def string) string {
	v, _ := h.lookup(keyword)
	return v.toStr(def)
}

// Bool returns the logical value of keyword, or def if absent or non-logical.
func (h *Header) Bool(keyword string, def bool) bool {
	v, _ := h.lookup(keyword)
	return v.toBool(def)
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
	im := &Image{}
	im.Reset(nx, ny, bitpix)
	return im
}

// Reset makes im what NewImage(nx, ny, bitpix) gives: zeroed pixels and a
// header of the five mandatory cards alone. It reuses im's pixel array and
// card slice when they are large enough, so resetting a frame allocates
// nothing.
func (im *Image) Reset(nx, ny, bitpix int) {
	if im.Header == nil {
		im.Header = NewHeader()
	}
	h := im.Header
	clear(h.cards)
	h.cards = h.cards[:0]
	h.Set("SIMPLE", true, "conforms to FITS standard")
	h.Set("BITPIX", bitpix, "bits per pixel")
	h.Set("NAXIS", 2, "number of axes")
	h.Set("NAXIS1", nx, "axis 1 length")
	h.Set("NAXIS2", ny, "axis 2 length")
	im.Nx, im.Ny, im.Bitpix = nx, ny, bitpix
	if cap(im.Data) < nx*ny {
		im.Data = make([]float64, nx*ny)
		return
	}
	im.Data = im.Data[:nx*ny]
	clear(im.Data)
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
			out.Header.set(c)
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

// Encode writes the image as a standards-conformant FITS file: the bytes
// AppendEncode gives, in one Write.
func (im *Image) Encode(w io.Writer) error {
	buf, err := im.AppendEncode(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// mandatoryKeywords are the cards every header starts with, in the order
// the standard requires.
var mandatoryKeywords = [...]string{"SIMPLE", "BITPIX", "NAXIS", "NAXIS1", "NAXIS2"}

// AppendEncode appends the image's FITS encoding to dst and returns the
// extended slice: the header in canonical order (mandatory cards first,
// refreshed from the geometry) padded with blanks to a record boundary,
// then the big-endian data array with BSCALE/BZERO applied inversely
// (physical = BZERO + BSCALE*stored, so stored = (physical-BZERO)/BSCALE)
// padded with zero bytes. Integer BITPIX values are rounded; values outside
// the integer range saturate. A card Decode would not give back as it is
// is refused (cardError) with an error that names its keyword. dst grows
// at most once, to exactly the encoded length; on error it comes back
// unchanged.
//
//nvo:hotpath
func (im *Image) AppendEncode(dst []byte) ([]byte, error) {
	if len(im.Data) != im.Nx*im.Ny {
		return dst, fmt.Errorf("fits: data length %d != %d*%d", len(im.Data), im.Nx, im.Ny)
	}
	switch im.Bitpix {
	case 8, 16, 32, -32, -64:
	default:
		return dst, fmt.Errorf("%w: BITPIX %d", ErrUnsupported, im.Bitpix)
	}
	h := im.Header
	bscale := h.Float("BSCALE", 1)
	bzero := h.Float("BZERO", 0)
	if bscale == 0 {
		return dst, fmt.Errorf("%w: BSCALE = 0", ErrBadHeader)
	}
	h.Set("SIMPLE", true, "conforms to FITS standard")
	h.Set("BITPIX", im.Bitpix, "bits per pixel")
	h.Set("NAXIS", 2, "number of axes")
	h.Set("NAXIS1", im.Nx, "axis 1 length")
	h.Set("NAXIS2", im.Ny, "axis 2 length")

	cards := 0
	for _, c := range h.cards {
		if c.Keyword != "END" {
			cards++
		}
	}
	out, err := h.appendTo(grow(dst, EncodedLen(cards, im.Nx, im.Ny, im.Bitpix)))
	if err != nil {
		return dst, err
	}
	return appendData(out, im, bscale, bzero), nil
}

// appendTo appends the header's cards in canonical order (the mandatory
// cards present first, then the rest as set, END last) and pads them with
// blank cards to a record boundary. It stops at the first card appendCard
// refuses.
//
//nvo:hotpath
func (h *Header) appendTo(dst []byte) ([]byte, error) {
	start := len(dst)
	var err error
	for _, k := range mandatoryKeywords {
		if i := h.find(k); i >= 0 {
			if dst, err = appendCard(dst, h.cards[i]); err != nil {
				return dst, err
			}
		}
	}
	for _, c := range h.cards {
		switch c.Keyword {
		case "SIMPLE", "BITPIX", "NAXIS", "NAXIS1", "NAXIS2", "END":
			continue
		}
		if dst, err = appendCard(dst, c); err != nil {
			return dst, err
		}
	}
	dst = append(dst, "END"...)
	dst = append(dst, blankCard[3:]...)
	for (len(dst)-start)%BlockSize != 0 {
		dst = append(dst, blankCard...)
	}
	return dst, nil
}

// EncodedLen returns the length in bytes of the FITS encoding of an
// nx-by-ny image of the given BITPIX whose header holds cards cards (the
// END card not counted): header and data each padded to whole records.
func EncodedLen(cards, nx, ny, bitpix int) int {
	return wholeBlocks((cards+1)*CardSize) + wholeBlocks(nx*ny*abs(bitpix)/8)
}

// wholeBlocks rounds n bytes up to whole logical records.
func wholeBlocks(n int) int {
	return (n + BlockSize - 1) / BlockSize * BlockSize
}

// grow returns dst with room for n more bytes, reallocating at most once
// and then to exactly len(dst)+n.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), len(dst)+n)
	copy(out, dst)
	return out
}

// blankCard is one card of blanks: the card template, and the padding that
// fills the header's last record.
const blankCard = "                                                                                "

// appendCard appends one 80-byte card. The keyword, the "= " indicator, the
// value and the "/ comment" are laid over a blank card in that order, each
// cut at the card's end: a value of n bytes puts the comment at column
// 13+n, and a value too long for the card leaves no room for one. Numbers
// are right-justified in columns 11-30 (wider ones run on); a string is
// quoted with its quotes doubled and padded to at least eight characters; a
// card with no value, or of a type no card holds, writes none.
// The bytes are appended whatever the card; the error is cardError's.
//
//nvo:hotpath
func appendCard(dst []byte, c Card) ([]byte, error) {
	start := len(dst)
	dst = append(dst, blankCard...)
	card := dst[start : start+CardSize]
	copy(card, c.Keyword)
	switch c.Keyword {
	case "COMMENT", "HISTORY", "":
		copy(card[8:], c.Comment)
		return dst, cardError(c, 8)
	case "END":
		return dst, cardError(c, 8)
	}
	card[8] = '='
	w := cardWriter{card: card, pos: 10}
	var num [32]byte
	switch v := c.val; v.kind {
	case 'b':
		flag := byte('F')
		if v.b {
			flag = 'T'
		}
		num[0] = flag
		w.right(num[:1])
	case 'i':
		w.right(strconv.AppendInt(num[:0], v.i, 10))
	case 'f':
		w.right(appendFloat(num[:0], v.f))
	case 's':
		w.quoted(v.s)
	}
	if pos := w.pos; c.Comment != "" && pos+3 < CardSize {
		copy(card[pos+1:], "/ ")
		copy(card[pos+3:], c.Comment)
	}
	return dst, cardError(c, w.pos)
}

// cardError is why Decode would not give c back as it is, or nil; end is
// the column c's value ends at (8, where the text of a COMMENT or HISTORY
// card starts). Decode skips a blank keyword and stops at END, reads the
// 8-byte keyword field as Header.Set stores keywords, gives no value for
// COMMENT and HISTORY and only the Card value kinds otherwise, parses no
// non-finite float as written, needs a string's closing quote on the card,
// trims a string's trailing blanks and the white space around a comment (a
// commentary card's trailing blanks), and reads a comment only as far as
// the card goes.
func cardError(c Card, end int) error {
	if why := cardFault(c, end); why != "" {
		return fmt.Errorf("%w: card %q does not read back: %s", ErrBadHeader, c.Keyword, why)
	}
	return nil
}

// cardFault is cardError's reason, or "".
func cardFault(c Card, end int) string {
	k, text := c.Keyword, c.Comment
	if k == "" || k == "END" || len(k) > 8 || k != strings.ToUpper(strings.TrimSpace(k)) {
		return "keyword is not one 8-byte upper-case field"
	}
	from, trimmed := end+3, strings.TrimSpace(text) // "/ " precedes the comment
	if k == "COMMENT" || k == "HISTORY" {
		if c.val.kind != 0 {
			return "commentary card with a value"
		}
		from, trimmed = end, strings.TrimRight(text, " ")
	}
	switch v := c.val; v.kind {
	case 'f':
		if math.IsNaN(v.f) || math.IsInf(v.f, 0) {
			return "value is not finite" // written NaN. or Inf., which no reader parses
		}
	case 's':
		if strings.TrimRight(v.s, " ") != v.s {
			return "string value ends in blanks"
		}
		if end > CardSize {
			return "string value runs past the card"
		}
	case '?':
		return "value of type " + v.s
	}
	if text != "" && (from+len(text) > CardSize || trimmed != text) {
		return "comment cut at the card's end or with surrounding blanks"
	}
	return ""
}

// cardWriter lays a value over a card from column pos on. Bytes past the
// card's end are dropped but still advance pos, which is where the value
// would have ended.
type cardWriter struct {
	card []byte
	pos  int
}

func (w *cardWriter) put(b byte) {
	if w.pos < CardSize {
		w.card[w.pos] = b
	}
	w.pos++
}

func (w *cardWriter) raw(s []byte) {
	for _, b := range s {
		w.put(b)
	}
}

// right writes s (ASCII) right-justified in a 20-character field.
func (w *cardWriter) right(s []byte) {
	for pad := 20 - len(s); pad > 0; pad-- {
		w.put(' ')
	}
	w.raw(s)
}

// quoted writes s as a FITS string: in quotes, each quote doubled, padded
// with blanks to at least eight characters (runes, as fmt's %-8s counts).
func (w *cardWriter) quoted(s string) {
	w.put('\'')
	for i := 0; i < len(s); i++ {
		w.put(s[i])
		if s[i] == '\'' {
			w.put('\'')
		}
	}
	for pad := 8 - utf8.RuneCountInString(s) - strings.Count(s, "'"); pad > 0; pad-- {
		w.put(' ')
	}
	w.put('\'')
}

// appendFloat appends v in a FITS-legal form that always round-trips: 17
// significant digits, with a '.' added when the digits hold neither a
// point nor an exponent.
func appendFloat(dst []byte, v float64) []byte {
	start := len(dst)
	dst = strconv.AppendFloat(dst, v, 'G', 17, 64)
	if !bytes.ContainsAny(dst[start:], ".E") {
		dst = append(dst, '.')
	}
	return dst
}

// appendData appends the data array and its zero padding. The caller has
// made room for both.
func appendData(dst []byte, im *Image, bscale, bzero float64) []byte {
	start := len(dst)
	n := len(im.Data) * abs(im.Bitpix) / 8
	dst = dst[:start+wholeBlocks(n)]
	out := dst[start:]
	for i, phys := range im.Data {
		stored := (phys - bzero) / bscale
		switch im.Bitpix {
		case 8:
			out[i] = uint8(clampRound(stored, 0, 255))
		case 16:
			binary.BigEndian.PutUint16(out[2*i:], uint16(int16(clampRound(stored, math.MinInt16, math.MaxInt16))))
		case 32:
			binary.BigEndian.PutUint32(out[4*i:], uint32(int32(clampRound(stored, math.MinInt32, math.MaxInt32))))
		case -32:
			binary.BigEndian.PutUint32(out[4*i:], math.Float32bits(float32(stored)))
		case -64:
			binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(stored))
		}
	}
	clear(out[n:])
	return dst
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
