package services

import (
	"bytes"
	"testing"

	"repro/internal/skysim"
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
