package services

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/faults"
	"repro/internal/skysim"
	"repro/internal/votable"
)

// cutoutAllocBudget bounds the heap allocations of one CutoutFITS call:
// the returned galaxy and the one output buffer come to 2, and the budget is
// that plus 1. Under -race sync.Pool drops a quarter of its puts, and a
// dropped frame (5) or render scratch (7) is rebuilt: it reads 5 there, and
// the budget gains raceRefills. It read 11 while the header cards held their
// values boxed (nine of them), 16 while every render took a fresh frame,
// its pixels, header and cards, and 109 while every card went through
// fmt.Sprintf and a fresh 80-byte slice, the output regrew, and each render
// built two random sources, a blur temporary and a header index map.
const (
	cutoutAllocBudget = 3
	raceRefills       = 4
)

// TestCutoutAllocBudget holds CutoutFITS to its allocation budget on the
// first SURVEY galaxy of each type and on the largest SURVEY cutout. Fifty
// runs a galaxy keep the pool's dropped puts under -race from swinging the
// mean by more than about half an allocation.
func TestCutoutAllocBudget(t *testing.T) {
	c := skysim.Generate(surveySpec())
	a := NewArchive("budget", c)
	picked := map[skysim.GalaxyType]bool{}
	var ids []string
	largest := c.Galaxies[0]
	for _, g := range c.Galaxies {
		if !picked[g.Type] {
			picked[g.Type] = true
			ids = append(ids, g.ID)
		}
		if skysim.CutoutSizePx(g) > skysim.CutoutSizePx(largest) {
			largest = g
		}
	}
	ids = append(ids, largest.ID)
	budget := float64(cutoutAllocBudget)
	if raceEnabled {
		budget += raceRefills
	}
	var worst float64
	for _, id := range ids {
		n := testing.AllocsPerRun(50, func() {
			if _, _, err := a.CutoutFITS(id); err != nil {
				t.Fatal(err)
			}
		})
		worst = max(worst, n)
		if n > budget {
			t.Errorf("%s: %.0f allocations per CutoutFITS, budget %.0f", id, n, budget)
		}
	}
	t.Logf("CutoutFITS: at most %.0f allocations per call (budget %.0f)", worst, budget)
}

// TestWriteBodySharesContentType: a FITS answer's header costs two
// allocations, the Content-Length text and its value slice; the
// Content-Type value is the one shared slice. It was three while each
// answer set a fresh Content-Type slice.
func TestWriteBodySharesContentType(t *testing.T) {
	data := make([]byte, 23040)
	w := &discardWriter{header: http.Header{"Content-Type": nil, "Content-Length": nil}}
	allocs := testing.AllocsPerRun(100, func() { writeBody(w, data, false) })
	if allocs != 2 {
		t.Errorf("writeBody allocates %.0f times, want 2", allocs)
	}
	if got := w.header.Get("Content-Type"); got != "application/fits" {
		t.Errorf("Content-Type %q", got)
	}
}

// TestCutoutHandlerServesGoldenBytes: the /cutout handler renders into a
// pooled frame and encodes into a pooled buffer, and gives the bytes
// CutoutFITS gives. Every SURVEY galaxy in catalog order hashes to the
// golden cutouts; a largest → smallest → largest sequence through one
// galaxy of each type gives each galaxy its own fresh cutout, so nothing of
// a reused frame or buffer leaks into the next answer; a corrupted answer
// is the first half. Each answer declares its length.
func TestCutoutHandlerServesGoldenBytes(t *testing.T) {
	c := skysim.Generate(surveySpec())
	a := NewArchive("golden", c)
	h := a.Handler()
	get := func(id string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cutout?id="+url.QueryEscape(id), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /cutout?id=%s: status %d: %s", id, rec.Code, rec.Body)
		}
		body := rec.Body.Bytes()
		if n := rec.Header().Get("Content-Length"); n != strconv.Itoa(len(body)) {
			t.Fatalf("GET /cutout?id=%s: Content-Length %q for %d bytes", id, n, len(body))
		}
		return body
	}

	sum := sha256.New()
	total := 0
	for _, g := range c.Galaxies {
		body := get(g.ID)
		sum.Write(body)
		total += len(body)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenSurveyCutouts || total != goldenSurveyCutoutBytes {
		t.Errorf("SURVEY cutouts through the handler: sha256 %s over %d bytes, want %s over %d",
			got, total, goldenSurveyCutouts, goldenSurveyCutoutBytes)
	}

	largest, smallest := c.Galaxies[0], c.Galaxies[0]
	firstOfType := map[skysim.GalaxyType]skysim.Galaxy{}
	for _, g := range c.Galaxies {
		if skysim.CutoutSizePx(g) > skysim.CutoutSizePx(largest) {
			largest = g
		}
		if skysim.CutoutSizePx(g) < skysim.CutoutSizePx(smallest) {
			smallest = g
		}
		if _, ok := firstOfType[g.Type]; !ok {
			firstOfType[g.Type] = g
		}
	}
	if skysim.CutoutSizePx(largest) == skysim.CutoutSizePx(smallest) || len(firstOfType) != 4 {
		t.Fatalf("SURVEY: cutouts of %d to %d pixels, %d galaxy types; the sequence needs two sizes and four types",
			skysim.CutoutSizePx(smallest), skysim.CutoutSizePx(largest), len(firstOfType))
	}
	seq := []skysim.Galaxy{largest, smallest, largest}
	for typ := skysim.GalaxyType(0); int(typ) < len(firstOfType); typ++ {
		seq = append(seq, firstOfType[typ], smallest, largest)
	}
	for _, g := range seq {
		_, want, err := a.CutoutFITS(g.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := get(g.ID); !bytes.Equal(got, want) {
			t.Errorf("%s (%s, %d px): the handler's %d bytes differ from CutoutFITS's %d",
				g.ID, g.Type, skysim.CutoutSizePx(g), len(got), len(want))
		}
	}

	a.SetInjector(faults.New(1, faults.Rule{Name: OpCutout, Kind: faults.KindCorruption}))
	for _, g := range []skysim.Galaxy{largest, smallest} {
		_, want, err := a.CutoutFITS(g.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := get(g.ID); !bytes.Equal(got, want[:len(want)/2]) {
			t.Errorf("%s under corruption: %d bytes, want the first %d of the cutout", g.ID, len(got), len(want)/2)
		}
	}
}

// TestQueryValueMatchesParseQuery: queryValue gives what
// url.ParseQuery(q).Get(key) gives, on well-formed queries and on the pairs
// ParseQuery refuses.
func TestQueryValueMatchesParseQuery(t *testing.T) {
	for _, q := range []string{
		"", "id", "id=", "=x", "&&", "id=SURVEY-000001", "id=a&id=b", "x=1&id=a",
		"id=a%20b", "id=a+b", "id%3D=x&id=y", "i%64=z", "id=%zz&id=ok", "id;=x&id=y",
		"id=a;b&id=c", "id=%", "%zz=1&id=q", "ID=up&id=low", "id==x", "id=x=y", "&id=&id=second",
	} {
		want := ""
		if v, _ := url.ParseQuery(q); v != nil {
			want = v.Get("id")
		}
		if got := queryValue(q, "id"); got != want {
			t.Errorf("queryValue(%q, \"id\") = %q, ParseQuery gives %q", q, got, want)
		}
	}
}

// TestCutoutBatchIsConcatenation checks that a 64-id batch is byte-equal to
// the 64 single cutouts concatenated, and that it was written into one
// buffer sized up front (no regrowth: capacity equals length).
func TestCutoutBatchIsConcatenation(t *testing.T) {
	c := skysim.Generate(surveySpec())
	a := NewArchive("batch", c)
	var ids []string
	var want []byte
	for i := 0; i < 64; i++ {
		g := c.Galaxies[i*15]
		ids = append(ids, g.ID)
		_, data, err := a.CutoutFITS(g.ID)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, data...)
	}
	got, err := a.CutoutBatchFITS(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch of %d bytes differs from the %d concatenated bytes of its cutouts", len(got), len(want))
	}
	if cap(got) != len(got) {
		t.Errorf("batch buffer: len %d, cap %d; it was not sized up front", len(got), cap(got))
	}
}

// BenchmarkCutoutFITS serves the SURVEY galaxies' cutouts in catalog order:
// render plus encode, as the archive's /cutout endpoint does per request.
func BenchmarkCutoutFITS(b *testing.B) {
	c := skysim.Generate(surveySpec())
	a := NewArchive("bench", c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.CutoutFITS(c.Galaxies[i%len(c.Galaxies)].ID); err != nil {
			b.Fatal(err)
		}
	}
}

// answerAllocBudget bounds the heap allocations per row of a Cone Search or
// cutout SIA answer, from the archive's table to its bytes (the page's table
// build plus votable.WriteTable). They read about 0.05 and 0.07: the hit
// list, its sort and the encoder are per answer, and the rows are one
// RowBuilder's, whose text (and, for the cutout answer, cell offsets) grow
// as append grows them.
// They read 7.04 and 8.03 while every cell was a string of its own.
const answerAllocBudget = 0.1

// TestAnswerAllocsPerRow holds the unpaged SURVEY /cone and /siacut answers
// to answerAllocBudget allocations per row.
func TestAnswerAllocsPerRow(t *testing.T) {
	c := skysim.Generate(surveySpec())
	a := NewArchive("budget", c)
	radius := 8*c.CoreRadiusDeg + 0.01
	for _, q := range []struct {
		name  string
		table func() *votable.Table
	}{
		{"ConeSearchPage", func() *votable.Table { return a.ConeSearchPage(c.Center, radius, 0, -1) }},
		{"SIAQueryCutoutsPage", func() *votable.Table { return a.SIAQueryCutoutsPage(c.Center, 2*radius, 0, -1) }},
	} {
		rows := q.table().NumRows()
		if rows != len(c.Galaxies) {
			t.Fatalf("%s: %d rows, want %d", q.name, rows, len(c.Galaxies))
		}
		perRow := testing.AllocsPerRun(10, func() {
			if err := votable.WriteTable(io.Discard, q.table()); err != nil {
				t.Fatal(err)
			}
		}) / float64(rows)
		t.Logf("%s + WriteTable: %.3f allocations per row (budget %.1f)", q.name, perRow, answerAllocBudget)
		if perRow > answerAllocBudget {
			t.Errorf("%s + WriteTable: %.3f allocations per row, budget %.1f", q.name, perRow, answerAllocBudget)
		}
	}
}

// TestSmallConeAllocatesByHits: an answer allocates by the cone's hits, not
// by the archive. A cone on a small cluster costs the same bytes whether
// the archive holds that cluster alone or the 1,000-galaxy SURVEY beside
// it.
func TestSmallConeAllocatesByHits(t *testing.T) {
	small := skysim.Generate(skysim.StandardClusters()[0])
	radius := 8*small.CoreRadiusDeg + 0.01
	bytesPerCall := func(a *Archive, query func(*Archive) *votable.Table) uint64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			query(a)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	alone := NewArchive("alone", small)
	beside := NewArchive("beside", small, skysim.Generate(surveySpec()))
	for _, q := range []struct {
		name  string
		query func(*Archive) *votable.Table
	}{
		{"ConeSearchPage", func(a *Archive) *votable.Table { return a.ConeSearchPage(small.Center, radius, 0, -1) }},
		{"SIAQueryCutoutsPage", func(a *Archive) *votable.Table { return a.SIAQueryCutoutsPage(small.Center, 2*radius, 0, -1) }},
	} {
		if n, m := q.query(alone).NumRows(), q.query(beside).NumRows(); n != len(small.Galaxies) || m != n {
			t.Fatalf("%s: %d and %d rows, want %d", q.name, n, m, len(small.Galaxies))
		}
		a, b := bytesPerCall(alone, q.query), bytesPerCall(beside, q.query)
		t.Logf("%s: %d bytes a call on the cluster alone, %d beside the survey", q.name, a, b)
		if b > a+1024 {
			t.Errorf("%s: %d bytes a call beside the survey, %d on the cluster alone", q.name, b, a)
		}
	}
}
