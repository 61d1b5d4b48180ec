package tableops

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/arena"
)

// newTestSpool builds a spool over an arena that is returned to the pool
// when the test ends.
func newTestSpool(t *testing.T, keyCol, memRows int) *Spool {
	t.Helper()
	a := arena.Get()
	t.Cleanup(func() { arena.Put(a) })
	return NewSpoolIn(a, keyCol, memRows)
}

// collectMerge replays a spool into a slice.
func collectMerge(t *testing.T, sp *Spool) [][]string {
	t.Helper()
	var out [][]string
	if err := sp.Merge(func(cells []string) error {
		out = append(out, append([]string(nil), cells...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSpoolSortsWithoutSpill covers the all-in-memory path.
func TestSpoolSortsWithoutSpill(t *testing.T) {
	sp := newTestSpool(t, 0, 100)
	defer sp.Close()
	for _, id := range []string{"c", "a", "b"} {
		if err := sp.Add(id, "v-"+id); err != nil {
			t.Fatal(err)
		}
	}
	got := collectMerge(t, sp)
	want := [][]string{{"a", "v-a"}, {"b", "v-b"}, {"c", "v-c"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
}

// TestSpoolSpillsAndMerges forces many tiny runs and checks the k-way merge
// against an in-memory stable sort.
func TestSpoolSpillsAndMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sp := newTestSpool(t, 1, 7) // key is the second cell; spill every 7 rows
	defer sp.Close()
	type row struct {
		cells []string
		seq   int
	}
	var rows []row
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%03d", rng.Intn(40)) // lots of duplicate keys
		cells := []string{fmt.Sprintf("payload-%d", i), key}
		rows = append(rows, row{cells, i})
		if err := sp.Add(cells...); err != nil {
			t.Fatal(err)
		}
	}
	if sp.Len() != 500 {
		t.Fatalf("Len = %d", sp.Len())
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].cells[1] < rows[j].cells[1] })
	want := make([][]string, len(rows))
	for i, r := range rows {
		want[i] = r.cells
	}
	got := collectMerge(t, sp)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("external merge diverges from stable in-memory sort")
	}
}

// TestSpoolCleansUpRunFiles checks that no temp run files survive a merge.
func TestSpoolCleansUpRunFiles(t *testing.T) {
	countRuns := func() int {
		matches, err := filepath.Glob(filepath.Join(os.TempDir(), "tableops-spool-*.run"))
		if err != nil {
			t.Fatal(err)
		}
		return len(matches)
	}
	before := countRuns()
	sp := newTestSpool(t, 0, 2)
	for i := 0; i < 20; i++ {
		if err := sp.Add(fmt.Sprintf("%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Merge(func([]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if after := countRuns(); after != before {
		t.Errorf("run files leaked: %d before, %d after", before, after)
	}
}

// TestSpoolErrorsAndMisuse covers callback errors, narrow rows and
// use-after-close.
func TestSpoolErrorsAndMisuse(t *testing.T) {
	sp := newTestSpool(t, 2, 4)
	defer sp.Close()
	if err := sp.Add("only", "two"); err == nil {
		t.Error("row narrower than the key column must fail")
	}
	if err := sp.Add("a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	if err := sp.Merge(func([]string) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("Merge error = %v, want sentinel verbatim", err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Add("x", "y", "z"); !errors.Is(err, ErrSpoolClosed) {
		t.Errorf("Add after Close = %v", err)
	}
	if err := sp.Merge(func([]string) error { return nil }); !errors.Is(err, ErrSpoolClosed) {
		t.Errorf("Merge after Close = %v", err)
	}
}

// TestSpoolPreservesCellContent round-trips awkward cell values through the
// run-file codec.
func TestSpoolPreservesCellContent(t *testing.T) {
	values := []string{"", "plain", "with space", "tab\tand\nnewline", strings.Repeat("x", 10_000), "unié 末"}
	sp := newTestSpool(t, 0, 2) // force spills
	defer sp.Close()
	for i, v := range values {
		if err := sp.Add(fmt.Sprintf("%02d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	got := collectMerge(t, sp)
	for i, v := range values {
		if got[i][1] != v {
			t.Errorf("cell %d round-tripped to %q, want %q", i, got[i][1], v)
		}
	}
}
