package votable

// Parity suite for the streaming codec: the pre-streaming struct-marshal
// implementations of Read/Write are frozen below (legacyRead/legacyWrite)
// and every test asserts the streaming reimplementation agrees with them —
// byte-identical output, deep-equal documents, and matching accept/reject
// decisions on malformed input.

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The struct-marshal wire types of the pre-streaming codec; only the
// frozen oracle below still marshals through them.

// xmlVOTable mirrors the VOTable 1.0/1.1 document structure.
type xmlVOTable struct {
	XMLName     xml.Name      `xml:"VOTABLE"`
	Version     string        `xml:"version,attr,omitempty"`
	Description string        `xml:"DESCRIPTION,omitempty"`
	Resources   []xmlResource `xml:"RESOURCE"`
}

type xmlResource struct {
	Name   string     `xml:"name,attr,omitempty"`
	Tables []xmlTable `xml:"TABLE"`
}

type xmlTable struct {
	Name        string     `xml:"name,attr,omitempty"`
	Description string     `xml:"DESCRIPTION,omitempty"`
	Params      []xmlParam `xml:"PARAM"`
	Fields      []xmlField `xml:"FIELD"`
	Data        *xmlData   `xml:"DATA"`
}

type xmlData struct {
	TableData xmlTableData `xml:"TABLEDATA"`
}

type xmlTableData struct {
	Rows []xmlTR `xml:"TR"`
}

type xmlTR struct {
	Cells []string `xml:"TD"`
}

type xmlParam struct {
	Name     string `xml:"name,attr"`
	Datatype string `xml:"datatype,attr"`
	Value    string `xml:"value,attr"`
	Unit     string `xml:"unit,attr,omitempty"`
	UCD      string `xml:"ucd,attr,omitempty"`
}

type xmlField struct {
	ID          string `xml:"ID,attr,omitempty"`
	Name        string `xml:"name,attr"`
	Datatype    string `xml:"datatype,attr"`
	Unit        string `xml:"unit,attr,omitempty"`
	UCD         string `xml:"ucd,attr,omitempty"`
	Description string `xml:"DESCRIPTION,omitempty"`
}

// legacyWrite is the struct-marshal Write as it existed before the
// streaming encoder, kept verbatim as the byte-identity oracle.
func legacyWrite(w io.Writer, doc *Document) error {
	x := xmlVOTable{Version: "1.1", Description: doc.Description}
	for _, res := range doc.Resources {
		xr := xmlResource{Name: res.Name}
		for _, t := range res.Tables {
			xt := xmlTable{Name: t.Name, Description: t.Description}
			for _, p := range t.Params {
				xt.Params = append(xt.Params, xmlParam(p))
			}
			for _, f := range t.Fields {
				xt.Fields = append(xt.Fields, xmlField(f))
			}
			xt.Data = &xmlData{}
			for _, r := range t.Rows {
				xt.Data.TableData.Rows = append(xt.Data.TableData.Rows, xmlTR{Cells: r})
			}
			xr.Tables = append(xr.Tables, xt)
		}
		x.Resources = append(x.Resources, xr)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(x); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// legacyRead is the whole-document struct-unmarshal Read, the semantic
// oracle for the streaming decoder.
func legacyRead(r io.Reader) (*Document, error) {
	var x xmlVOTable
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&x); err != nil {
		return nil, fmt.Errorf("votable: parse: %w", err)
	}
	doc := &Document{Description: strings.TrimSpace(x.Description)}
	for _, xr := range x.Resources {
		res := Resource{Name: xr.Name}
		for _, xt := range xr.Tables {
			t := Table{Name: xt.Name, Description: strings.TrimSpace(xt.Description)}
			for _, p := range xt.Params {
				t.Params = append(t.Params, Param(p))
			}
			for _, f := range xt.Fields {
				t.Fields = append(t.Fields, Field(f))
			}
			if xt.Data != nil {
				for _, tr := range xt.Data.TableData.Rows {
					row := tr.Cells
					for len(row) < len(t.Fields) {
						row = append(row, "")
					}
					if len(row) > len(t.Fields) {
						return nil, fmt.Errorf("%w: table %q row has %d cells for %d fields",
							ErrRaggedRow, t.Name, len(row), len(t.Fields))
					}
					t.Rows = append(t.Rows, row)
				}
			}
			res.Tables = append(res.Tables, t)
		}
		doc.Resources = append(doc.Resources, res)
	}
	return doc, nil
}

func randomDocument(rng *rand.Rand) *Document {
	randStr := func(allowEmpty bool) string {
		alphabet := []rune("abz <>&\"'\n\té\u00a0末0")
		n := rng.Intn(8)
		if !allowEmpty && n == 0 {
			n = 1
		}
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	doc := &Document{}
	if rng.Intn(2) == 0 {
		doc.Description = randStr(false)
	}
	for r := 0; r < rng.Intn(3); r++ {
		res := Resource{}
		if rng.Intn(2) == 0 {
			res.Name = randStr(false)
		}
		for t := 0; t < rng.Intn(3); t++ {
			tab := Table{Name: randStr(true), Description: randStr(true)}
			for p := 0; p < rng.Intn(3); p++ {
				tab.Params = append(tab.Params, Param{
					Name: "p", Datatype: TypeChar, Value: randStr(true),
					Unit: randStr(true), UCD: randStr(true),
				})
			}
			nc := rng.Intn(4)
			for c := 0; c < nc; c++ {
				tab.Fields = append(tab.Fields, Field{
					ID: randStr(true), Name: fmt.Sprintf("c%d", c), Datatype: TypeChar,
					Unit: randStr(true), UCD: randStr(true), Description: randStr(true),
				})
			}
			for r := 0; r < rng.Intn(5); r++ {
				row := make([]string, nc)
				for c := range row {
					row[c] = randStr(true)
				}
				tab.Rows = append(tab.Rows, row)
			}
			res.Tables = append(res.Tables, tab)
		}
		doc.Resources = append(doc.Resources, res)
	}
	return doc
}

// TestStreamingWriteByteIdentical pins the tentpole invariant: the token
// streaming encoder emits exactly the bytes the struct marshaler did, for
// documents spanning empties, escaping, params, field descriptions and
// multi-resource layouts.
func TestStreamingWriteByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		doc := randomDocument(rng)
		var oldBuf, newBuf bytes.Buffer
		if err := legacyWrite(&oldBuf, doc); err != nil {
			t.Fatal(err)
		}
		if err := Write(&newBuf, doc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(oldBuf.Bytes(), newBuf.Bytes()) {
			t.Fatalf("doc %d: streaming write diverged\n--- legacy ---\n%s\n--- streaming ---\n%s",
				i, oldBuf.String(), newBuf.String())
		}
	}
}

// TestStreamingReadMatchesLegacy round-trips random documents and asserts
// the streaming decoder reconstructs exactly what the struct decoder did.
func TestStreamingReadMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		doc := randomDocument(rng)
		var buf bytes.Buffer
		if err := Write(&buf, doc); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		oldDoc, oldErr := legacyRead(bytes.NewReader(raw))
		newDoc, newErr := Read(bytes.NewReader(raw))
		if (oldErr == nil) != (newErr == nil) {
			t.Fatalf("doc %d: error disagreement: legacy=%v streaming=%v", i, oldErr, newErr)
		}
		if oldErr != nil {
			continue
		}
		if !reflect.DeepEqual(oldDoc, newDoc) {
			t.Fatalf("doc %d: decode disagreement\nlegacy:    %#v\nstreaming: %#v", i, oldDoc, newDoc)
		}
	}
}

// checkParity is the shared property: both decoders accept or both reject;
// on accept the documents are deep-equal and re-encode byte-identically.
func checkParity(t *testing.T, raw []byte) {
	t.Helper()
	oldDoc, oldErr := legacyRead(bytes.NewReader(raw))
	newDoc, newErr := Read(bytes.NewReader(raw))
	if (oldErr == nil) != (newErr == nil) {
		t.Fatalf("accept/reject disagreement on %q:\nlegacy=%v\nstreaming=%v", raw, oldErr, newErr)
	}
	checkDecodeRows(t, raw, newDoc, newErr)
	if oldErr != nil {
		return
	}
	if !reflect.DeepEqual(oldDoc, newDoc) {
		t.Fatalf("decode disagreement on %q:\nlegacy:    %#v\nstreaming: %#v", raw, oldDoc, newDoc)
	}
	var oldBuf, newBuf bytes.Buffer
	if err := legacyWrite(&oldBuf, oldDoc); err != nil {
		return
	}
	if err := Write(&newBuf, newDoc); err != nil {
		t.Fatalf("streaming write failed where legacy succeeded on %q: %v", raw, err)
	}
	if !bytes.Equal(oldBuf.Bytes(), newBuf.Bytes()) {
		t.Fatalf("re-encode diverged on %q:\n--- legacy ---\n%s\n--- streaming ---\n%s",
			raw, oldBuf.String(), newBuf.String())
	}
}

// checkDecodeRows holds DecodeRows to what Read made of raw: it rejects
// whatever Read rejects; where Read accepts, each table's meta ends up as
// Read's table without its rows, and unless a FIELD follows the table's
// DATA (DecodeRows pads a row to the fields declared before it, Read to
// all of them), the rows are Read's padded rows.
func checkDecodeRows(t *testing.T, raw []byte, doc *Document, readErr error) {
	t.Helper()
	var metas []*TableMeta
	var rows [][][]string
	err := DecodeRows(bytes.NewReader(raw), func(meta *TableMeta) error {
		metas = append(metas, meta)
		rows = append(rows, nil)
		return nil
	}, func(meta *TableMeta, cells []string) error {
		if len(metas) == 0 || meta != metas[len(metas)-1] {
			t.Fatalf("row of an unannounced table on %q", raw)
		}
		rows[len(rows)-1] = append(rows[len(rows)-1], cells)
		return nil
	})
	late := readErr == nil && fieldAfterData(raw)
	switch {
	case readErr != nil && err == nil:
		t.Fatalf("DecodeRows accepted %q, which Read rejects: %v", raw, readErr)
	case readErr != nil, err != nil && late:
		return
	case err != nil:
		t.Fatalf("DecodeRows rejected %q, which Read accepts: %v", raw, err)
	}
	var tables []Table
	for _, res := range doc.Resources {
		tables = append(tables, res.Tables...)
	}
	if len(metas) != len(tables) {
		t.Fatalf("DecodeRows announced %d tables of %q, Read made %d", len(metas), raw, len(tables))
	}
	for i := range tables {
		if want := tables[i].Meta(); !reflect.DeepEqual(*metas[i], want) {
			t.Fatalf("table %d of %q: DecodeRows meta %#v, Read %#v", i, raw, *metas[i], want)
		}
		if !late && !reflect.DeepEqual(rows[i], tables[i].Rows) {
			t.Fatalf("table %d of %q: DecodeRows rows %q, Read %q", i, raw, rows[i], tables[i].Rows)
		}
	}
}

// fieldAfterData reports whether, in the well-formed document raw, a FIELD
// follows a DATA among the children of some TABLE of a RESOURCE.
func fieldAfterData(raw []byte) bool {
	dec := xml.NewDecoder(bytes.NewReader(raw))
	var path []string
	data := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			path = append(path, tok.Name.Local)
			if len(path) == 3 {
				data = false
			}
			if len(path) == 4 && path[1] == "RESOURCE" && path[2] == "TABLE" {
				switch tok.Name.Local {
				case "DATA":
					data = true
				case "FIELD":
					if data {
						return true
					}
				}
			}
		case xml.EndElement:
			if path = path[:len(path)-1]; len(path) == 0 {
				return false
			}
		}
	}
}

// FuzzStreamingParity feeds arbitrary bytes to both decoders: same
// accept/reject decision, same document, byte-identical re-encode.
func FuzzStreamingParity(f *testing.F) {
	var buf bytes.Buffer
	doc := randomDocument(rand.New(rand.NewSource(3)))
	_ = Write(&buf, doc)
	f.Add(buf.Bytes())
	f.Add([]byte(`<?xml version="1.0"?><VOTABLE><RESOURCE><TABLE name="t"><FIELD name="a" datatype="char"/><DATA><TABLEDATA><TR><TD>x</TD></TR></TABLEDATA></DATA></TABLE></RESOURCE></VOTABLE>`))
	f.Add([]byte(`<VOTABLE><RESOURCE><TABLE><DATA><TABLEDATA><TR><TD>x</TD><TD>y</TD></TR></TABLEDATA></DATA><FIELD name="late" datatype="char"/></TABLE></RESOURCE></VOTABLE>`))
	f.Add([]byte(`<VOTABLE><DESCRIPTION> two </DESCRIPTION><DESCRIPTION>second</DESCRIPTION><UNKNOWN><TABLE/></UNKNOWN></VOTABLE>`))
	f.Add([]byte(`<NOTVOTABLE/>`))
	f.Add([]byte(`<VOTABLE><RESOURCE><TABLE><DATA><TABLEDATA><TR></TR></TABLEDATA></DATA><DATA><TABLEDATA><TR><TD/></TR></TABLEDATA></DATA></TABLE></RESOURCE></VOTABLE>`))
	f.Add([]byte("this is not xml"))
	f.Add([]byte(""))
	// The byte scanner's grammar, one construct per seed.
	const tr = `<VOTABLE><RESOURCE><TABLE name="t"><FIELD name="a" datatype="char"/><FIELD name="b" datatype="char"/><DATA><TABLEDATA><TR>%s</TR></TABLEDATA></DATA></TABLE></RESOURCE></VOTABLE>`
	for _, row := range []string{
		`<TD>a<![CDATA[<b>&amp;]]>c<!-- note -->d</TD>`,
		`<TD>&#x41;&#66;&amp;</TD><TD>&foo;</TD>`,
		`<a:TD>x</a:TD><TD>y</TD>`,
		"<TD>line\r\nbreak\rcr</TD>",
		`<TD/><TD/>`,
		"<TD>bad \xff\xfe utf-8</TD>",
		`<TD>x</TR></TD>`,
		`<unknown><TD>hidden</TD></unknown><TD>shown<b>skipped</b></TD>`,
		`<TD>` + strings.Repeat("0123456789", 10_000) + `</TD>`,
	} {
		f.Add([]byte(fmt.Sprintf(tr, row)))
	}
	f.Add([]byte(`<VOTABLE><RESOURCE x:name="prefixed" name='single'><TABLE name='q&apos;s'><PARAM name="p" datatype="char" value="a` + "\r\nb\rc" + `"/></TABLE></RESOURCE></VOTABLE>`))
	f.Add([]byte(`<!DOCTYPE VOTABLE [<!ENTITY gt ">"> <!-- a > b -->]><VOTABLE/>`))
	f.Add([]byte(`<?xml version="1.1"?><VOTABLE/>`))
	f.Add([]byte(`<?xml version="1.0" encoding="ISO-8859-1"?><VOTABLE/>`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkParity(t, raw)
	})
}

// TestStreamingMalformedParity pins the exact error text for the canonical
// malformed-input cases so the streaming decoder can never drift from the
// historical messages.
func TestStreamingMalformedParity(t *testing.T) {
	cases := []string{
		"",
		"this is not xml",
		"<NOTVOTABLE/>",
		"<VOTABLE><RESOURCE><TABLE name=\"t\"><FIELD name=\"a\" datatype=\"char\"/><DATA><TABLEDATA><TR><TD>x</TD><TD>y</TD></TR></TABLEDATA></DATA></TABLE></RESOURCE></VOTABLE>",
		"<VOTABLE><RESOURCE><TABLE><DATA><TABLEDATA><TR><TD>unclosed",
		"<VOTABLE version=\"1.1\"",
		"<VOTABLE><RESOURCE></TABLE></VOTABLE>",
		"<VOTABLE><DESCRIPTION>&foo;</DESCRIPTION></VOTABLE>",
		"<VOTABLE><!-- never closed",
		"<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?><VOTABLE/>",
	}
	for _, raw := range cases {
		_, oldErr := legacyRead(strings.NewReader(raw))
		_, newErr := Read(strings.NewReader(raw))
		if oldErr == nil || newErr == nil {
			t.Fatalf("case %q: expected both to fail, legacy=%v streaming=%v", raw, oldErr, newErr)
		}
		if oldErr.Error() != newErr.Error() {
			t.Errorf("case %q: error text diverged:\nlegacy:    %v\nstreaming: %v", raw, oldErr, newErr)
		}
	}
	// The wide-row rejection keeps its sentinel.
	wide := "<VOTABLE><RESOURCE><TABLE name=\"t\"><FIELD name=\"a\" datatype=\"char\"/><DATA><TABLEDATA><TR><TD>x</TD><TD>y</TD></TR></TABLEDATA></DATA></TABLE></RESOURCE></VOTABLE>"
	if _, err := Read(strings.NewReader(wide)); !errors.Is(err, ErrRaggedRow) {
		t.Errorf("wide row error = %v, want ErrRaggedRow", err)
	}
}

// TestEncoderStreamsWithoutTableInMemory drives the encoder row by row and
// checks the result against an equivalent in-memory WriteTable.
func TestEncoderStreamsWithoutTableInMemory(t *testing.T) {
	tab := NewTable("stream",
		Field{Name: "id", Datatype: TypeChar},
		Field{Name: "v", Datatype: TypeDouble, Unit: "deg"},
	)
	tab.Description = "streamed"
	tab.SetParam(Param{Name: "cluster", Datatype: TypeChar, Value: "COMA"})
	for i := 0; i < 100; i++ {
		_ = tab.AppendRow(fmt.Sprintf("G%03d", i), FormatFloat(float64(i)/7))
	}

	var want bytes.Buffer
	if err := WriteTable(&want, tab); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	enc := NewEncoder(&got)
	if err := enc.BeginDocument(""); err != nil {
		t.Fatal(err)
	}
	if err := enc.BeginResource(tab.Name); err != nil {
		t.Fatal(err)
	}
	if err := enc.BeginTable(tab.Meta()); err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if err := enc.Row(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.EndTable(); err != nil {
		t.Fatal(err)
	}
	if err := enc.EndResource(); err != nil {
		t.Fatal(err)
	}
	if err := enc.End(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("row-by-row encode diverged from WriteTable:\n--- want ---\n%s\n--- got ---\n%s",
			want.String(), got.String())
	}
}

// streamPeakHeapMB pushes rows through the streaming encoder into a pipe and
// back through DecodeRows, never holding the document or a Table's rows, and returns the peak growth of the GC'd live heap in MB.
func streamPeakHeapMB(t *testing.T, rows int) float64 {
	t.Helper()
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := liveHeap()
	pr, pw := io.Pipe()
	go func() {
		enc := NewEncoder(pw)
		err := enc.BeginDocument("survey")
		if err == nil {
			err = enc.BeginResource("r")
		}
		if err == nil {
			err = enc.BeginTable(TableMeta{Name: "catalog", Fields: []Field{
				{Name: "id", Datatype: TypeChar}, {Name: "ra", Datatype: TypeDouble},
				{Name: "dec", Datatype: TypeDouble}, {Name: "z", Datatype: TypeDouble},
			}})
		}
		cells := []string{"", "195.1250", "28.2500", "0.0231"}
		for i := 0; i < rows && err == nil; i++ {
			cells[0] = fmt.Sprintf("g%06d", i)
			err = enc.Row(cells)
		}
		if err == nil {
			err = enc.EndTable()
		}
		if err == nil {
			err = enc.EndResource()
		}
		if err == nil {
			err = enc.End()
		}
		pw.CloseWithError(err)
	}()
	got, peak := 0, base
	err := DecodeRows(pr, nil, func(*TableMeta, []string) error {
		if got++; got%(rows/8) == 0 {
			if h := liveHeap(); h > peak {
				peak = h
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != rows {
		t.Fatalf("streamed %d rows, want %d", got, rows)
	}
	return float64(peak-base) / (1 << 20) // peak starts at base
}

// TestStreamingCodecHeapFlat is the survey-scale claim of the streaming
// codec: peak live heap stays flat while the row count grows 50x.
func TestStreamingCodecHeapFlat(t *testing.T) {
	small, large := streamPeakHeapMB(t, 1000), streamPeakHeapMB(t, 50000)
	if large > 4*small+4 {
		t.Errorf("codec peak heap not flat: %.2f MB at 1k rows vs %.2f MB at 50k rows", small, large)
	}
}

// TestEncoderMisuse checks state tracking: out-of-order calls fail and the
// encoder stays failed.
func TestEncoderMisuse(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Row([]string{"x"}); err == nil {
		t.Fatal("Row before BeginDocument must fail")
	}
	if err := enc.BeginDocument(""); err == nil {
		t.Fatal("encoder must stay failed after misuse")
	}
}

// TestDecodeRowsNormalization checks the normalized streaming path: short
// rows padded, wide rows rejected with the historical message, metadata
// delivered before the first row.
func TestDecodeRowsNormalization(t *testing.T) {
	raw := `<VOTABLE><RESOURCE><TABLE name="t">
<FIELD name="a" datatype="char"/><FIELD name="b" datatype="char"/>
<DATA><TABLEDATA><TR><TD>x</TD></TR><TR><TD>1</TD><TD>2</TD></TR></TABLEDATA></DATA>
</TABLE></RESOURCE></VOTABLE>`
	var rows [][]string
	var metaAtFirstRow int
	err := DecodeRows(strings.NewReader(raw),
		func(meta *TableMeta) error {
			metaAtFirstRow = len(meta.Fields)
			return nil
		},
		func(meta *TableMeta, cells []string) error {
			rows = append(rows, cells)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if metaAtFirstRow != 2 {
		t.Errorf("fields at announce = %d, want 2", metaAtFirstRow)
	}
	if len(rows) != 2 || rows[0][1] != "" || rows[1][0] != "1" {
		t.Errorf("rows = %v", rows)
	}

	wide := `<VOTABLE><RESOURCE><TABLE name="t"><FIELD name="a" datatype="char"/>
<DATA><TABLEDATA><TR><TD>x</TD><TD>y</TD></TR></TABLEDATA></DATA></TABLE></RESOURCE></VOTABLE>`
	err = DecodeRows(strings.NewReader(wide), nil, nil)
	if !errors.Is(err, ErrRaggedRow) {
		t.Errorf("wide row in DecodeRows = %v, want ErrRaggedRow", err)
	}
}

// TestDecodeCallbackErrorsPassThrough ensures callback errors surface
// verbatim, without the parse wrapping.
func TestDecodeCallbackErrorsPassThrough(t *testing.T) {
	sentinel := errors.New("stop here")
	raw := `<VOTABLE><RESOURCE><TABLE name="t"><FIELD name="a" datatype="char"/><DATA><TABLEDATA><TR><TD>x</TD></TR></TABLEDATA></DATA></TABLE></RESOURCE></VOTABLE>`
	err := DecodeRows(strings.NewReader(raw), nil, func(*TableMeta, []string) error { return sentinel })
	if err != sentinel {
		t.Fatalf("callback error = %v, want sentinel verbatim", err)
	}
}

func BenchmarkStreamingWrite10kRows(b *testing.B) {
	meta := TableMeta{Name: "bench", Fields: []Field{
		{Name: "id", Datatype: TypeChar},
		{Name: "v", Datatype: TypeDouble},
	}}
	row := []string{"G000001", "0.123456"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := NewEncoder(io.Discard)
		_ = enc.BeginDocument("")
		_ = enc.BeginResource("bench")
		_ = enc.BeginTable(meta)
		for r := 0; r < 10000; r++ {
			_ = enc.Row(row)
		}
		_ = enc.EndTable()
		_ = enc.EndResource()
		_ = enc.End()
	}
}

func BenchmarkStreamingRead10kRows(b *testing.B) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	_ = enc.BeginDocument("")
	_ = enc.BeginResource("bench")
	_ = enc.BeginTable(TableMeta{Name: "bench", Fields: []Field{
		{Name: "id", Datatype: TypeChar},
		{Name: "v", Datatype: TypeDouble},
	}})
	for r := 0; r < 10000; r++ {
		_ = enc.Row([]string{"G000001", "0.123456"})
	}
	_ = enc.EndTable()
	_ = enc.EndResource()
	_ = enc.End()
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := DecodeRows(bytes.NewReader(raw), nil, func(_ *TableMeta, cells []string) error {
			n += len(cells)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
