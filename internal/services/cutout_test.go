package services

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/skysim"
	"repro/internal/votable"
)

// cutoutAllocBudget bounds the heap allocations of one CutoutFITS call: the
// image, its pixels, its header and cards, the boxed values of eleven
// header cards, the returned galaxy and the one output buffer come to 16;
// the rest is headroom for sync.Pool, which drops a quarter of its puts
// under -race. It read 109 while every card went through fmt.Sprintf and a
// fresh 80-byte slice, the output regrew, and each render built two random
// sources, a blur temporary and a header index map.
const cutoutAllocBudget = 20

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
	var worst float64
	for _, id := range ids {
		n := testing.AllocsPerRun(50, func() {
			if _, _, err := a.CutoutFITS(id); err != nil {
				t.Fatal(err)
			}
		})
		worst = max(worst, n)
		if n > cutoutAllocBudget {
			t.Errorf("%s: %.0f allocations per CutoutFITS, budget %d", id, n, cutoutAllocBudget)
		}
	}
	t.Logf("CutoutFITS: at most %.0f allocations per call (budget %d)", worst, cutoutAllocBudget)
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
