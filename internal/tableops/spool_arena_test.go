package tableops

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/arena"
)

// TestSpoolInMatchesHeapSpool replays a row stream with many duplicate keys
// through an arena spool (spills forced) and requires the merge output to
// equal a heap-side sort.SliceStable of the same rows — the arena and its
// spill-time slot recycling are an allocation strategy, never an observable
// change to ordering or tie stability.
func TestSpoolInMatchesHeapSpool(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var rows [][]string
	for i := 0; i < 500; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("g%03d", rng.Intn(120)), // many duplicate keys
			fmt.Sprintf("v%d", i),
			fmt.Sprintf("w%d", rng.Intn(10)),
		})
	}

	a := arena.Get()
	defer arena.Put(a)
	ar := NewSpoolIn(a, 0, 16)
	defer ar.Close()
	for _, r := range rows {
		if err := ar.Add(r...); err != nil {
			t.Fatal(err)
		}
	}
	got := collectMerge(t, ar)
	want := append([][]string(nil), rows...)
	sort.SliceStable(want, func(i, j int) bool { return want[i][0] < want[j][0] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arena spool merge diverged from the stable heap sort")
	}
}

// TestSpoolInReusedCallerBuffer checks the hot-path calling convention: the
// caller refills ONE row buffer between Adds, so the spool's copies must be
// real copies, not aliases of the caller's cells.
func TestSpoolInReusedCallerBuffer(t *testing.T) {
	a := arena.Get()
	defer arena.Put(a)
	sp := NewSpoolIn(a, 0, 4) // spill every 4 rows
	defer sp.Close()
	row := make([]string, 2)
	for i := 9; i >= 0; i-- {
		row[0] = fmt.Sprintf("k%d", i)
		row[1] = fmt.Sprintf("v%d", i)
		if err := sp.Add(row...); err != nil {
			t.Fatal(err)
		}
	}
	got := collectMerge(t, sp)
	for i, r := range got {
		want := []string{fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)}
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("row %d = %v, want %v (caller buffer aliased?)", i, r, want)
		}
	}
}

// TestSpoolInArenaFootprintBounded: spilled rows recycle their arena slots,
// so the arena's string footprint is bounded by memRows regardless of how
// many rows pass through.
func TestSpoolInArenaFootprintBounded(t *testing.T) {
	a := arena.Get()
	defer arena.Put(a)
	const memRows = 32
	sp := NewSpoolIn(a, 0, memRows)
	defer sp.Close()
	var afterWarm int
	for i := 0; i < 50*memRows; i++ {
		if err := sp.Add(fmt.Sprintf("k%06d", i), "value"); err != nil {
			t.Fatal(err)
		}
		if i == 2*memRows {
			afterWarm = a.Footprint()
		}
	}
	if after := a.Footprint(); after > afterWarm {
		t.Fatalf("arena footprint grew from %d to %d across 50 spills; free-list recycling is broken", afterWarm, after)
	}
}
