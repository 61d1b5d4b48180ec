package fits

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// legacyParseCard is parseCard as it stood before numeric values were
// parsed without allocating: every numeric value went through a heap string
// and a ParseInt attempt first. Frozen as the oracle parseCard must match on
// every card — FuzzView cannot see a drift here, because ParseView and
// Decode share one parseCard.
func legacyParseCard(kw, card []byte, c *Card) (scanVal, error) {
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
		if c != nil {
			c.Comment = strings.TrimSpace(string(card[8:]))
		}
		return scanVal{}, nil
	}
	body := card[10:]
	if rest := bytes.TrimLeft(body, " "); len(rest) > 0 && rest[0] == '\'' {
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

// card80 pads (or cuts) text to one 80-byte card.
func card80(text string) []byte {
	card := bytes.Repeat([]byte{' '}, CardSize)
	copy(card, text)
	return card
}

// valueCards are the parity seeds: integer syntax at and past int64's range
// (ErrRange falls back to a float), every float spelling strconv accepts or
// refuses that a header can carry, a bare sign, a value longer than the
// compiler's 32-byte stack buffer for string conversions, a comment right
// after the value, and a value with no space after '='.
var valueCards = []string{
	"NAXIS1  =                   64 / axis",
	"A       = +5",
	"A       = -0",
	"A       = 007",
	"A       = 9223372036854775807",
	"A       = -9223372036854775808",
	"A       = 9223372036854775808",
	"A       = 12345678901234567890",
	"A       = -99999999999999999999",
	"A       = 1D3",
	"A       = 1d3",
	"A       = 2.788D-2 / z",
	"A       = 0x1p-2",
	"A       = Inf",
	"A       = +inf",
	"A       = NaN",
	"A       = 1_0",
	"A       = 1.5e400",
	"A       = +",
	"A       = -",
	"A       = 1.000000000000000000000000000000000000001",
	"A       = 1234567890123456789012345678901234567890",
	"A       = 1234567890123456789012345678901234567D+9",
	"A       = 12/comment",
	"A       =12",
	"A       = 1 2",
	"A       = T",
	"A       = F / flag",
	"A       = TRUE",
	"A       =",
	"A       = / only a comment",
	"A       = 'O''Hara  ' / quoted",
	"A       = 'unterminated",
	"COMMENT   free text",
	"HISTORY = 12",
	"A         no value indicator",
}

// TestNumericCardKinds pins what the parity seeds are for: a value with
// integer syntax that fits int64 parses as an int, every other number as a
// float.
func TestNumericCardKinds(t *testing.T) {
	for text, kind := range map[string]byte{
		"A       = -0": 'i', "A       = 007": 'i', "A       = 9223372036854775808": 'f',
		"A       = 1D3": 'f', "A       = +inf": 'f', "A       = 1234567890123456789012345678901234567890": 'f',
	} {
		if sv, err := parseCard([]byte("A"), card80(text), nil); err != nil || sv.kind != kind {
			t.Errorf("%q parsed as kind %q (%v), want %q", text, sv.kind, err, kind)
		}
	}
}

// FuzzParseCardParity: on any 80-byte card, parseCard and the frozen
// legacyParseCard agree, bare and into a Card, on the typed value (floats
// bit for bit), the Card and the error text.
func FuzzParseCardParity(f *testing.F) {
	for _, text := range valueCards {
		f.Add(card80(text))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		card := card80(string(data))
		kw := bytes.TrimRight(card[:8], " ")
		for _, full := range []bool{false, true} {
			var got, want *Card
			if full {
				got, want = new(Card), new(Card)
			}
			gv, gerr := parseCard(kw, card, got)
			wv, werr := legacyParseCard(kw, card, want)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("card %q: error %v, legacy %v", card, gerr, werr)
			}
			if gv.kind != wv.kind || gv.b != wv.b || gv.i != wv.i || math.Float64bits(gv.f) != math.Float64bits(wv.f) {
				t.Fatalf("card %q: value %+v, legacy %+v", card, gv, wv)
			}
			if full && fmt.Sprintf("%#v", *got) != fmt.Sprintf("%#v", *want) {
				t.Fatalf("card %q: Card %#v, legacy %#v", card, *got, *want)
			}
		}
	})
}
