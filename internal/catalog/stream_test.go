package catalog

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/votable"
	"repro/internal/wcs"
)

// TestVisitMatchesAll pins the copy-free iterator against All, including
// early stop.
func TestVisitMatchesAll(t *testing.T) {
	c := seeded(500, 3)
	var visited []Record
	c.Visit(func(r Record) bool {
		visited = append(visited, r)
		return true
	})
	if !reflect.DeepEqual(visited, c.All()) {
		t.Fatal("Visit order/content diverges from All")
	}
	n := 0
	c.Visit(func(Record) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d records, want 7", n)
	}
}

// TestConeSearchVisitMatchesConeSearch pins the streaming cone search
// against the slice-returning one: same records, same deterministic order,
// separations within the radius and non-decreasing.
func TestConeSearchVisitMatchesConeSearch(t *testing.T) {
	c := seeded(2000, 7)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		center := wcs.New(rng.Float64()*360, rng.Float64()*160-80)
		radius := rng.Float64() * 5
		want := c.ConeSearch(center, radius)
		var got []Record
		lastSep := -1.0
		c.ConeSearchVisit(center, radius, func(r Record, sep float64) bool {
			if sep > radius || sep < lastSep {
				t.Fatalf("separation %v out of order (last %v, radius %v)", sep, lastSep, radius)
			}
			lastSep = sep
			got = append(got, r)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: visit found %d, slice found %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("trial %d: order diverges at %d: %q vs %q", trial, i, got[i].ID, want[i].ID)
			}
		}
	}
}

// TestConeSearchPageReassembles checks that concatenating pages of any size
// reproduces the unpaged result exactly, with a stable total.
func TestConeSearchPageReassembles(t *testing.T) {
	c := seeded(2000, 7)
	center := wcs.New(180, 0)
	const radius = 20.0
	want := c.ConeSearch(center, radius)
	for _, pageSize := range []int{1, 3, 7, 100, len(want), len(want) + 5} {
		var got []Record
		for offset := 0; ; offset += pageSize {
			page, total := c.ConeSearchPage(center, radius, offset, pageSize)
			if total != len(want) {
				t.Fatalf("page size %d offset %d: total = %d, want %d", pageSize, offset, total, len(want))
			}
			got = append(got, page...)
			if len(page) < pageSize {
				break
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("page size %d: reassembled pages diverge from unpaged search", pageSize)
		}
	}
	// Negative limit streams to the end; out-of-range offset is empty.
	all, total := c.ConeSearchPage(center, radius, 0, -1)
	if len(all) != total || total != len(want) {
		t.Errorf("limit -1: %d records, total %d, want %d", len(all), total, len(want))
	}
	none, total := c.ConeSearchPage(center, radius, total+10, 5)
	if len(none) != 0 || total != len(want) {
		t.Errorf("past-the-end page: %d records, total %d", len(none), total)
	}
}

// TestStreamingExportMatchesToVOTable checks that TableMeta+AppendRowCells
// through a votable.Encoder produce exactly the bytes of the in-memory
// ToVOTable+WriteTable path.
func TestStreamingExportMatchesToVOTable(t *testing.T) {
	c := seeded(200, 5)
	recs := c.All()

	var want bytes.Buffer
	if err := votable.WriteTable(&want, c.ToVOTable(recs)); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	enc := votable.NewEncoder(&got)
	if err := enc.BeginDocument(""); err != nil {
		t.Fatal(err)
	}
	if err := enc.BeginResource(c.Name()); err != nil {
		t.Fatal(err)
	}
	if err := enc.BeginTable(c.TableMeta()); err != nil {
		t.Fatal(err)
	}
	var row []string
	c.Visit(func(r Record) bool {
		row = c.AppendRowCells(row[:0], r)
		return enc.Row(row) == nil
	})
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
		t.Fatal("streamed catalog export diverges from in-memory ToVOTable path")
	}
}
