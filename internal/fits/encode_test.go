package fits

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wcs"
)

// legacyFormatCard is formatCard as it stood before cards were appended
// with strconv: a fresh 80-byte slice per card and an fmt.Sprintf per value.
// Frozen as the oracle appendCard must match byte for byte.
func legacyFormatCard(c Card) []byte {
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
	switch v := c.val.boxed().(type) {
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
		val = fmt.Sprintf("%20s", legacyFormatFloat(v))
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

func legacyFormatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'G', 17, 64)
	if !strings.ContainsAny(s, ".E") {
		s += "."
	}
	return s
}

// mkCard is the card a literal of the boxed-value Card type gave: keyword
// and comment as they are, the value as Header.Set holds it.
func mkCard(keyword string, v any, comment string) Card {
	return Card{Keyword: keyword, val: valueOf(v), Comment: comment}
}

// parityCards covers every value kind and the edges of the card layout:
// long keywords, values and comments that run past column 80, quotes,
// multi-byte runes, and the float forms that need a '.' added.
var parityCards = []Card{
	mkCard("SIMPLE", true, "conforms to FITS standard"),
	mkCard("EXTEND", false, ""),
	mkCard("BITPIX", int64(-32), "bits per pixel"),
	mkCard("BIG", int64(math.MinInt64), "a comment that is long enough to be cut off at the end of the card"),
	mkCard("CRVAL1", 150.00012345678901, "reference RA (deg)"),
	mkCard("CDELT1", -2.831933107035062e-4, ""),
	mkCard("TINY", -4.9406564584124654e-324, "x"),
	mkCard("WHOLE", 1e15, ""),
	mkCard("NAN", math.NaN(), ""),
	mkCard("INF", math.Inf(-1), "c"),
	mkCard("OBJECT", "SURVEY-000010", "galaxy identifier"),
	mkCard("QUOTE", "it's", "doubled"),
	mkCard("RUNES", "ÅÄÖ", "padded by runes"),
	mkCard("BAD", "\xe2'\xff", ""),
	mkCard("LONGSTR", strings.Repeat("x", 75), "no room"),
	mkCard("EDGE", strings.Repeat("y", 64), "just fits"),
	mkCard("NOVALUE", nil, "nil value"),
	mkCard("KEYWORDLONGERTHANEIGHT", int64(7), "overlaps"),
	mkCard("COMMENT", nil, "free text "+strings.Repeat("z", 80)),
	mkCard("HISTORY", int64(1), "value ignored"),
	mkCard("", nil, "blank keyword"),
	mkCard("END", int64(3), "ignored"),
	mkCard("NEGZERO", math.Copysign(0, -1), "signed zero"),
}

func TestAppendCardMatchesLegacy(t *testing.T) {
	prefix := []byte("prefix")
	for _, c := range parityCards {
		got, _ := appendCard(append([]byte(nil), prefix...), c)
		want := append(append([]byte(nil), prefix...), legacyFormatCard(c)...)
		if !bytes.Equal(got, want) {
			t.Errorf("%#v:\n got %q\nwant %q", c, got, want)
		}
	}
}

// decodeCard is what Decode's header scan (scanHeader) makes of one card:
// nothing for a blank keyword or END, else the card Header.Set stores.
func decodeCard(card []byte) (Card, bool, error) {
	kw := bytes.TrimRight(card[:8], " ")
	if len(kw) == 0 || bytes.Equal(kw, kwEND) {
		return Card{}, false, nil
	}
	var c Card
	if _, err := parseCard(kw, card, &c); err != nil {
		return Card{}, false, err
	}
	h := NewHeader()
	h.set(c)
	return h.cards[0], true, nil
}

// readsBack reports whether Decode gives the card c back as it is from the
// bytes the frozen formatCard lays out for it.
func readsBack(c Card) bool {
	got, ok, err := decodeCard(legacyFormatCard(c))
	return err == nil && ok && got == c
}

func TestAppendCardRefusesExactlyWhatDoesNotReadBack(t *testing.T) {
	refused := 0
	for _, c := range parityCards {
		_, err := appendCard(nil, c)
		if (err == nil) != readsBack(c) {
			t.Errorf("%#v: appendCard error %v, reads back %v", c, err, readsBack(c))
		}
		if err != nil {
			refused++
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", c.Keyword)) {
				t.Errorf("%#v: error %q does not name the keyword", c, err)
			}
		}
	}
	if refused == 0 || refused == len(parityCards) {
		t.Fatalf("%d of %d parity cards refused; the set should hold both kinds", refused, len(parityCards))
	}
}

// TestEncodeRoundTripsOrRefuses encodes an image whose header holds each
// parity card that Header.Set can store: Encode refuses, naming the
// keyword, a card Decode would not give back as it is, and Decode returns
// every other one unchanged.
func TestEncodeRoundTripsOrRefuses(t *testing.T) {
	for _, c := range append(parityCards,
		mkCard("LONGKEYWORD", int64(5), ""),
		mkCard("TRAIL", "x  ", ""),
		mkCard("PADDED", int64(1), " c"),
		mkCard("UINT8", uint8(200), "no card holds it"),
	) {
		switch c.Keyword {
		case "SIMPLE", "BITPIX", "END", "":
			continue // the encoder writes these itself, or never
		}
		im := NewImage(2, 2, 16)
		im.Header.set(c)
		set := im.Header.Cards()[im.Header.Len()-1]
		var buf bytes.Buffer
		err := im.Encode(&buf)
		if want := readsBack(set); (err == nil) != want {
			t.Errorf("%#v: Encode error %v, reads back %v", set, err, want)
			continue
		}
		if err != nil {
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", set.Keyword)) || buf.Len() != 0 {
				t.Errorf("%#v: error %q must name the keyword and write nothing (%d bytes)", set, err, buf.Len())
			}
			continue
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%#v: Decode: %v", set, err)
		}
		if got := back.Header.Cards(); len(got) != im.Header.Len() || got[len(got)-1] != set {
			t.Errorf("%#v: decoded cards %#v", set, got)
		}
	}
}

// setCards are header values of every kind a card holds, set the way a
// caller sets them: Go ints and float32s are widened, and the floats run
// through the signed zeros, the largest and smallest magnitudes and the
// whole numbers that need a '.' added; the strings through empty, quoted,
// multi-byte and the longest that fit the card.
var setCards = []struct {
	keyword string
	v       any
}{
	{"T", true}, {"F", false},
	{"I0", int64(0)}, {"IMAX", int64(math.MaxInt64)}, {"IMIN", int64(math.MinInt64)}, {"INT", -7}, {"INT32", int32(math.MaxInt32)},
	{"FZERO", 0.0}, {"FNEGZERO", math.Copysign(0, -1)}, {"FMAX", math.MaxFloat64}, {"FNEGMAX", -math.MaxFloat64},
	{"FTINY", math.SmallestNonzeroFloat64}, {"FNORMMIN", 2.2250738585072014e-308}, {"FWHOLE", 1e15},
	{"FBIG", 1e21}, {"FTHIRD", 1.0 / 3}, {"F32", float32(0.1)}, {"CRVAL1", 150.00012345678901},
	{"S0", ""}, {"SQUOTE", "it's"}, {"SRUNES", "ÅÄÖ"}, {"SLONG", strings.Repeat("x", 68)},
	{"SQUOTES", strings.Repeat("'", 34)}, {"SMIXED", strings.Repeat("a'", 22) + "z"},
}

// TestAppendEncodeCardsMatchLegacy encodes an image whose header holds one
// card of each setCards value through AppendEncode, holds every card of
// the encoded header to the frozen formatCard's bytes for the value as the
// boxed header held it, and decodes each value back as it was set.
func TestAppendEncodeCardsMatchLegacy(t *testing.T) {
	im := NewImage(3, 2, -32)
	for _, c := range setCards {
		comment := "c " + c.keyword
		if s, ok := c.v.(string); ok && len(s)+strings.Count(s, "'") > 40 {
			comment = "" // no room left on the card
		}
		im.Header.Set(c.keyword, c.v, comment)
	}
	got, err := im.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	cards := im.Header.Cards()[len(mandatoryKeywords):]
	for i, c := range setCards {
		at := (len(mandatoryKeywords) + i) * CardSize
		want := legacyFormatCard(mkCard(c.keyword, widened(c.v), cards[i].Comment))
		if g := got[at : at+CardSize]; !bytes.Equal(g, want) {
			t.Errorf("%s:\n got %q\nwant %q", c.keyword, g, want)
		}
	}
	back, err := Decode(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range setCards {
		v, _ := back.Header.Get(c.keyword)
		if want := widened(c.v); fmt.Sprintf("%#v", v) != fmt.Sprintf("%#v", want) {
			t.Errorf("%s decodes as %#v, set as %#v", c.keyword, v, want)
		}
	}
}

// widened is v as the boxed header stored it: Go ints and int32s as int64,
// float32s as float64.
func widened(v any) any {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case float32:
		return float64(x)
	}
	return v
}

// TestSetHoldsOtherTypesByName: of a value of a type no card holds, the
// card keeps only the type's name: Get gives nil, Int its default, and the
// encoder refuses the card by keyword and type, as it refused the boxed
// value.
func TestSetHoldsOtherTypesByName(t *testing.T) {
	im := NewImage(2, 2, 16)
	im.Header.Set("UINT8", uint8(200), "")
	if v, ok := im.Header.Get("UINT8"); !ok || v != nil {
		t.Errorf("Get(UINT8) = %#v, %v; want nil, true", v, ok)
	}
	if got := im.Header.Int("UINT8", -1); got != -1 {
		t.Errorf("Int(UINT8) = %d, want the default", got)
	}
	if _, err := im.AppendEncode(nil); err == nil || !strings.Contains(err.Error(), `"UINT8"`) ||
		!strings.Contains(err.Error(), "value of type uint8") {
		t.Errorf("AppendEncode error %v; want the card refused as a uint8", err)
	}
}

// TestSetAllocatesNothing: a header with room for its cards stores a
// number, a flag or a string without allocating — the value is held
// unboxed, so the box Set's caller makes stays on its stack — and a cutout's
// WCS cards cost nothing. While cards held their values boxed, SetWCS cost
// three allocations.
func TestSetAllocatesNothing(t *testing.T) {
	im := NewImage(4, 4, -32)
	p := wcs.NewTanProjection(wcs.New(150, 2), 4, 4, 1.0/3600)
	id, z := "SURVEY-000010", 0.0412
	allocs := testing.AllocsPerRun(100, func() {
		im.Header.Set("OBJECT", id, "galaxy identifier")
		im.Header.Set("REDSHIFT", z, "redshift")
		im.Header.Set("NCOMBINE", len(id), "")
		im.Header.Set("GOODWCS", z > 0, "")
		im.SetWCS(p)
	})
	if allocs != 0 {
		t.Errorf("setting cards allocates %.1f times, want 0", allocs)
	}
}

// FuzzAppendCardParity holds appendCard to the frozen formatCard over any
// keyword, comment and value of each kind a header stores: the bytes match
// for every card, and appendCard refuses exactly the cards whose frozen
// bytes Decode would not give back unchanged.
func FuzzAppendCardParity(f *testing.F) {
	for _, c := range parityCards {
		var kind uint8
		var b bool
		var i int64
		var x float64
		var s string
		switch v := c.val.boxed().(type) {
		case bool:
			kind, b = 1, v
		case int64:
			kind, i = 2, v
		case float64:
			kind, x = 3, v
		case string:
			kind, s = 4, v
		}
		f.Add(c.Keyword, c.Comment, kind, b, i, x, s)
	}
	f.Fuzz(func(t *testing.T, keyword, comment string, kind uint8, b bool, i int64, x float64, s string) {
		var v any
		switch kind % 5 {
		case 1:
			v = b
		case 2:
			v = i
		case 3:
			v = x
		case 4:
			v = s
		}
		c := mkCard(keyword, v, comment)
		got, err := appendCard([]byte("p"), c)
		want := append([]byte("p"), legacyFormatCard(c)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("%#v:\n got %q\nwant %q", c, got, want)
		}
		if (err == nil) != readsBack(c) {
			t.Fatalf("%#v: appendCard error %v, reads back %v", c, err, readsBack(c))
		}
	})
}

// TestAppendEncodeGrowsOnce checks the encoder's buffer contract: from nil
// it allocates exactly the encoded length, it appends after what dst holds,
// it does not reallocate a dst with room, and on error dst comes back as it
// was.
func TestAppendEncodeGrowsOnce(t *testing.T) {
	im := NewImage(37, 11, -32)
	for i := range im.Data {
		im.Data[i] = float64(i) * 1.5
	}
	im.Header.Set("OBJECT", "grow", "")
	var ref bytes.Buffer
	if err := im.Encode(&ref); err != nil {
		t.Fatal(err)
	}
	if want := EncodedLen(im.Header.Len(), im.Nx, im.Ny, im.Bitpix); ref.Len() != want {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", ref.Len(), want)
	}
	got, err := im.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cap(got) || !bytes.Equal(got, ref.Bytes()) {
		t.Fatalf("from nil: len %d cap %d, equal %v", len(got), cap(got), bytes.Equal(got, ref.Bytes()))
	}
	dst := make([]byte, 3, 3+ref.Len())
	copy(dst, "abc")
	got, err = im.AppendEncode(dst)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] || string(got[:3]) != "abc" || !bytes.Equal(got[3:], ref.Bytes()) {
		t.Fatal("an encode into a dst with room must append in place")
	}
	im.Bitpix = 12
	got, err = im.AppendEncode(dst)
	if !errors.Is(err, ErrUnsupported) || len(got) != 3 {
		t.Fatalf("bad BITPIX: %d bytes, err %v", len(got), err)
	}
}
