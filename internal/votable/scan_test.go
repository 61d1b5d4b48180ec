package votable

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"
)

// TestNameTablesMatchEncodingXML pins the scanner's XML name classes to
// encoding/xml's rune for rune: a rune may start a name exactly when
// encoding/xml accepts it as a one-character element name, and may follow
// a first letter exactly when encoding/xml accepts that two-character name.
// Both sets lie in the Basic Multilingual Plane; two supplementary runes
// stand for the rest.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	accepts := func(name string) bool {
		var v struct{}
		return xml.Unmarshal([]byte("<"+name+"/>"), &v) == nil
	}
	runes := []rune{0x10000, utf8.MaxRune}
	for r := rune(0); r <= 0xFFFF; r++ {
		if utf8.ValidRune(r) && (r >= utf8.RuneSelf || isNameByte(byte(r))) {
			runes = append(runes, r)
		}
	}
	for _, r := range runes {
		c := string(r)
		if got, want := isName([]byte(c)), accepts(c); got != want {
			t.Fatalf("isName(%U) = %v, encoding/xml %v", r, got, want)
		}
		if got, want := isName([]byte("a"+c)), accepts("a"+c); got != want {
			t.Fatalf("isName(a%U) = %v, encoding/xml %v", r, got, want)
		}
	}
}

// allocDoc is a 1,000-row table of 8 filled columns, the shape of the
// catalogs and results a request moves between services.
func allocDoc(t *testing.T) []byte {
	t.Helper()
	tab := NewTable("catalog")
	for c := 0; c < 8; c++ {
		tab.Fields = append(tab.Fields, Field{Name: fmt.Sprintf("c%d", c), Datatype: TypeDouble})
	}
	for i := 0; i < 1000; i++ {
		row := make([]string, 8)
		for c := range row {
			row[c] = FormatFloat(float64(i*8+c) / 7)
		}
		tab.Rows = append(tab.Rows, row)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeAllocsPerRow is the decoder's allocation gate on a 1,000-row,
// 8-column table. ReadTable keeps a table's rows in one block and its cell
// text in one string, so it stays within 0.1 allocations per row (it reads
// 0.03, all of them per document; 2.07 while each row was its own string
// and []string). DecodeRows hands each row to its callback as its own
// string and []string and stays within 3.
func TestDecodeAllocsPerRow(t *testing.T) {
	raw := allocDoc(t)
	const rows, readBudget, streamBudget = 1000, 0.1, 3.0
	read := testing.AllocsPerRun(10, func() {
		if _, err := ReadTable(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	}) / rows
	stream := testing.AllocsPerRun(10, func() {
		err := DecodeRows(bytes.NewReader(raw), nil, func(*TableMeta, []string) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}) / rows
	t.Logf("allocations per row: ReadTable %.3f, DecodeRows %.3f", read, stream)
	if read > readBudget || stream > streamBudget {
		t.Errorf("allocations per row: ReadTable %.3f (budget %.1f), DecodeRows %.3f (budget %.0f)",
			read, readBudget, stream, streamBudget)
	}
}

// TestScannerMatchesLegacyOnMutations goes past FuzzStreamingParity's
// accept/reject check: on seeded mutations of documents that exercise the
// whole grammar, the scanner and legacyRead give the same document or the
// same error text, line number included, whether the input arrives whole
// or one byte per read.
func TestScannerMatchesLegacyOnMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var seeds [][]byte
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, randomDocument(rng)); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	seeds = append(seeds,
		[]byte("<?xml version=\"1.0\" encoding='UTF-8'?>\r\n<!DOCTYPE x [<!ENTITY a \"b>\"> <!-- c -> -->]>"+
			"<VOTABLE xmlns:v='u'><!-- hi --><v:RESOURCE x:name=\"r&amp;&#x41;&#66;\"><TABLE name='t'>"+
			"<FIELD name='a' datatype='char'><DESCRIPTION>d<![CDATA[<x>]]>e</DESCRIPTION></FIELD><DATA><TABLEDATA>"+
			"<TR><TD>a<!-- c --><![CDATA[b]]]]><?pi x?>c\r\nd\re</TD><TD/><a:TD>q</a:TD></TR>"+
			"</TABLEDATA></DATA></TABLE></v:RESOURCE></VOTABLE>trailing"),
		[]byte("<?xml version='1.0'?><VOTABLE><DESCRIPTION>x<é/>y</DESCRIPTION>"+
			"<RESOURCE name='a' name=\"b\" xmlns:name='c'><TABLE>"+
			"<PARAM name='p' datatype='char' value='&#xD800;&#1114111;&lt;&gt;&apos;&quot;' unit=\"\r\n\r\"/>"+
			"<FIELD name='a' datatype='char'><DESCRIPTION>one</DESCRIPTION><DESCRIPTION>two<x>no</x></DESCRIPTION></FIELD>"+
			"<DATA><TABLEDATA><TR><TD>&#0;</TD><TD>é末\u00a0</TD><x><TD>hidden</TD></x></TR><TR/>"+
			"<TR><TD><TD>nested</TD></TD></TR></TABLEDATA></DATA>"+
			"<DATA><TABLEDATA><TR><TD>more</TD></TR></TABLEDATA></DATA></TABLE></RESOURCE></VOTABLE>"),
		[]byte("<VOTABLE><RESOURCE><TABLE><DATA><TABLEDATA><TR><TD>"+strings.Repeat("abc&amp;", 1500)+
			"</TD></TR></TABLEDATA></DATA></TABLE></RESOURCE></VOTABLE>"),
		[]byte(`<?xml version="1.1"?><VOTABLE/>`),
		[]byte(`<?xml encoding="ISO-8859-1"?><VOTABLE/>`),
		[]byte("<:VOTABLE/>"), []byte("<a:b:c/>"), []byte("<VOTABLE:/>"), []byte("<\u00e9l\u0300/>"),
	)
	alphabet := []byte("\xe3\x80\x85\xcc\x80<>&;#x/'\"!-[]?:\r\n\t =aAD\x00\xc3\xa9\xff")
	for it := 0; it < 20000; it++ {
		raw := append([]byte(nil), seeds[rng.Intn(len(seeds))]...)
		for m := 0; m < 1+rng.Intn(3) && len(raw) > 0; m++ {
			p := rng.Intn(len(raw))
			switch rng.Intn(4) {
			case 0:
				raw[p] = alphabet[rng.Intn(len(alphabet))]
			case 1:
				raw = append(raw[:p], raw[p+1:]...)
			case 2:
				raw = append(raw[:p], append([]byte{alphabet[rng.Intn(len(alphabet))]}, raw[p:]...)...)
			case 3:
				raw = raw[:p+rng.Intn(len(raw)-p)]
			}
		}
		var r io.Reader = bytes.NewReader(raw)
		if it%2 == 1 {
			r = iotest.OneByteReader(r)
		}
		oldDoc, oldErr := legacyRead(bytes.NewReader(raw))
		newDoc, newErr := Read(r)
		switch {
		case (oldErr == nil) != (newErr == nil):
			t.Fatalf("accept/reject disagreement on %q:\nlegacy=%v\nscanner=%v", raw, oldErr, newErr)
		case oldErr != nil && oldErr.Error() != newErr.Error():
			t.Fatalf("error text diverged on %q:\nlegacy:  %v\nscanner: %v", raw, oldErr, newErr)
		case oldErr == nil && !reflect.DeepEqual(oldDoc, newDoc):
			t.Fatalf("decode disagreement on %q:\nlegacy:  %#v\nscanner: %#v", raw, oldDoc, newDoc)
		}
	}
}
