package fits

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
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

// parityCards covers every value kind and the edges of the card layout:
// long keywords, values and comments that run past column 80, quotes,
// multi-byte runes, and the float forms that need a '.' added.
var parityCards = []Card{
	{Keyword: "SIMPLE", Value: true, Comment: "conforms to FITS standard"},
	{Keyword: "EXTEND", Value: false},
	{Keyword: "BITPIX", Value: int64(-32), Comment: "bits per pixel"},
	{Keyword: "BIG", Value: int64(math.MinInt64), Comment: "a comment that is long enough to be cut off at the end of the card"},
	{Keyword: "CRVAL1", Value: 150.00012345678901, Comment: "reference RA (deg)"},
	{Keyword: "CDELT1", Value: -2.831933107035062e-4},
	{Keyword: "TINY", Value: -4.9406564584124654e-324, Comment: "x"},
	{Keyword: "WHOLE", Value: 1e15},
	{Keyword: "NAN", Value: math.NaN()},
	{Keyword: "INF", Value: math.Inf(-1), Comment: "c"},
	{Keyword: "OBJECT", Value: "SURVEY-000010", Comment: "galaxy identifier"},
	{Keyword: "QUOTE", Value: "it's", Comment: "doubled"},
	{Keyword: "RUNES", Value: "ÅÄÖ", Comment: "padded by runes"},
	{Keyword: "BAD", Value: "\xe2'\xff"},
	{Keyword: "LONGSTR", Value: strings.Repeat("x", 75), Comment: "no room"},
	{Keyword: "EDGE", Value: strings.Repeat("y", 64), Comment: "just fits"},
	{Keyword: "NOVALUE", Comment: "nil value"},
	{Keyword: "KEYWORDLONGERTHANEIGHT", Value: int64(7), Comment: "overlaps"},
	{Keyword: "COMMENT", Comment: "free text " + strings.Repeat("z", 80)},
	{Keyword: "HISTORY", Value: int64(1), Comment: "value ignored"},
	{Keyword: "", Comment: "blank keyword"},
	{Keyword: "END", Value: int64(3), Comment: "ignored"},
	{Keyword: "UINT8", Value: uint8(200), Comment: "not normalized"},
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
	h.Set(c.Keyword, c.Value, c.Comment)
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
		Card{Keyword: "LONGKEYWORD", Value: int64(5)},
		Card{Keyword: "TRAIL", Value: "x  "},
		Card{Keyword: "PADDED", Value: int64(1), Comment: " c"},
	) {
		switch c.Keyword {
		case "SIMPLE", "BITPIX", "END", "":
			continue // the encoder writes these itself, or never
		}
		im := NewImage(2, 2, 16)
		im.Header.Set(c.Keyword, c.Value, c.Comment)
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
		switch v := c.Value.(type) {
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
		c := Card{Keyword: keyword, Comment: comment}
		switch kind % 5 {
		case 1:
			c.Value = b
		case 2:
			c.Value = i
		case 3:
			c.Value = x
		case 4:
			c.Value = s
		}
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
