package catalog

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/votable"
	"repro/internal/wcs"
)

func seeded(n int, seed int64) *Catalog {
	c := New("test", "mag")
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		rec := Record{
			ID:    fmt.Sprintf("SRC%05d", i),
			Pos:   wcs.New(rng.Float64()*360, rng.Float64()*180-90),
			Props: map[string]string{"mag": fmt.Sprintf("%.2f", 14+rng.Float64()*8)},
		}
		if err := c.Add(rec); err != nil {
			panic(err)
		}
	}
	return c
}

func TestAddGet(t *testing.T) {
	c := New("t", "mag")
	r := Record{ID: "A", Pos: wcs.New(10, 10), Props: map[string]string{"mag": "15"}}
	if err := c.Add(r); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("A")
	if !ok || got.Prop("mag") != "15" {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if err := c.Add(r); err == nil {
		t.Error("duplicate ID must fail")
	}
	if _, ok := c.Get("B"); ok {
		t.Error("missing ID must not be found")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestConeSearchMatchesBruteForce(t *testing.T) {
	c := seeded(2000, 7)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		center := wcs.New(rng.Float64()*360, rng.Float64()*160-80)
		radius := rng.Float64() * 5
		got := c.ConeSearch(center, radius)

		want := map[string]bool{}
		for _, r := range c.All() {
			if center.Separation(r.Pos) <= radius {
				want[r.ID] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: cone %v r=%v: got %d, brute force %d", trial, center, radius, len(got), len(want))
		}
		for _, r := range got {
			if !want[r.ID] {
				t.Fatalf("trial %d: unexpected record %s", trial, r.ID)
			}
		}
	}
}

func TestConeSearchNearPoles(t *testing.T) {
	c := New("polar")
	_ = c.Add(Record{ID: "N", Pos: wcs.New(0, 89.9)})
	_ = c.Add(Record{ID: "S", Pos: wcs.New(0, -89.9)})
	hits := c.ConeSearch(wcs.New(180, 89.8), 1)
	if len(hits) != 1 || hits[0].ID != "N" {
		t.Errorf("polar search = %+v", hits)
	}
	// Radius reaching over the pole.
	hits = c.ConeSearch(wcs.New(0, 90), 0.2)
	if len(hits) != 1 {
		t.Errorf("over-pole search = %+v", hits)
	}
}

func TestConeSearchSorted(t *testing.T) {
	c := New("s")
	_ = c.Add(Record{ID: "far", Pos: wcs.New(10, 2)})
	_ = c.Add(Record{ID: "near", Pos: wcs.New(10, 0.5)})
	_ = c.Add(Record{ID: "mid", Pos: wcs.New(10, 1)})
	hits := c.ConeSearch(wcs.New(10, 0), 3)
	if len(hits) != 3 || hits[0].ID != "near" || hits[1].ID != "mid" || hits[2].ID != "far" {
		t.Errorf("order = %v", ids(hits))
	}
}

func ids(rs []Record) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func TestConeSearchNegativeRadius(t *testing.T) {
	c := seeded(10, 1)
	if hits := c.ConeSearch(wcs.New(0, 0), -1); hits != nil {
		t.Errorf("negative radius should return nil, got %d", len(hits))
	}
}

func TestVOTableRoundTrip(t *testing.T) {
	c := seeded(50, 3)
	tab := c.ToVOTable(c.All())
	if tab.NumRows() != 50 || tab.NumCols() != 4 {
		t.Fatalf("table shape %dx%d", tab.NumRows(), tab.NumCols())
	}
	var buf bytes.Buffer
	if err := votable.WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	tab2, err := votable.ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := FromVOTable("copy", tab2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("round trip lost records: %d != %d", c2.Len(), c.Len())
	}
	for _, r := range c.All() {
		got, ok := c2.Get(r.ID)
		if !ok {
			t.Fatalf("lost %s", r.ID)
		}
		if got.Pos.Separation(r.Pos) > 1e-6 {
			t.Errorf("%s moved by %v deg", r.ID, got.Pos.Separation(r.Pos))
		}
		if got.Prop("mag") != r.Prop("mag") {
			t.Errorf("%s mag %q != %q", r.ID, got.Prop("mag"), r.Prop("mag"))
		}
	}
}

func TestFromVOTableErrors(t *testing.T) {
	bad := votable.NewTable("bad", votable.Field{Name: "x", Datatype: votable.TypeChar})
	if _, err := FromVOTable("b", bad); err == nil {
		t.Error("table without id/ra/dec must fail")
	}
	t2 := votable.NewTable("bad2",
		votable.Field{Name: "id", Datatype: votable.TypeChar},
		votable.Field{Name: "ra", Datatype: votable.TypeDouble},
		votable.Field{Name: "dec", Datatype: votable.TypeDouble},
	)
	_ = t2.AppendRow("a", "not-a-number", "0")
	if _, err := FromVOTable("b", t2); err == nil {
		t.Error("unparsable position must fail")
	}
	t3 := votable.NewTable("dup",
		votable.Field{Name: "id", Datatype: votable.TypeChar},
		votable.Field{Name: "ra", Datatype: votable.TypeDouble},
		votable.Field{Name: "dec", Datatype: votable.TypeDouble},
	)
	_ = t3.AppendRow("a", "1", "2")
	_ = t3.AppendRow("a", "3", "4")
	if _, err := FromVOTable("b", t3); err == nil {
		t.Error("duplicate IDs must fail")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New("conc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = c.Add(Record{ID: fmt.Sprintf("g%d-%d", g, i), Pos: wcs.New(float64(i), float64(g))})
				c.ConeSearch(wcs.New(50, 4), 10)
				c.Get(fmt.Sprintf("g%d-%d", g, i/2))
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 800 {
		t.Errorf("Len = %d, want 800", c.Len())
	}
}

func TestFormatDeg(t *testing.T) {
	cases := map[float64]string{
		0:          "0",
		180:        "180",
		10.5:       "10.5",
		10.1234567: "10.1234567",
	}
	for in, want := range cases {
		if got := formatDeg(in); got != want {
			t.Errorf("formatDeg(%v) = %q, want %q", in, got, want)
		}
	}
}

func BenchmarkConeSearch(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := seeded(n, 11)
			center := wcs.New(180, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ConeSearch(center, 1)
			}
		})
	}
}

func BenchmarkAdd(b *testing.B) {
	b.ReportAllocs()
	c := New("bench")
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < b.N; i++ {
		_ = c.Add(Record{ID: fmt.Sprint(i), Pos: wcs.New(rng.Float64()*360, rng.Float64()*180-90)})
	}
}

func TestNameAndColumns(t *testing.T) {
	c := New("ned", "mag", "z")
	if c.Name() != "ned" {
		t.Errorf("Name = %q", c.Name())
	}
	cols := c.Columns()
	if len(cols) != 2 || cols[0] != "mag" {
		t.Errorf("Columns = %v", cols)
	}
	// The returned slice is a copy.
	cols[0] = "mutated"
	if c.Columns()[0] != "mag" {
		t.Error("Columns must return a copy")
	}
}
