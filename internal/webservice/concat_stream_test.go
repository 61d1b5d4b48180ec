package webservice

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/arena"
	"repro/internal/tableops"
	"repro/internal/votable"
)

// domResultsTable is the original in-memory concat, frozen as the oracle for
// the spool-and-stream body: sort the results by galaxy ID, append them to
// one votable.Table, serialize it whole.
func domResultsTable(t *testing.T, cluster string, results []GalMorphResult) []byte {
	t.Helper()
	sort.Slice(results, func(i, j int) bool { return results[i].ID < results[j].ID })
	tab := votable.NewTable(cluster+"_morphology", ResultFields...)
	tab.Description = "galaxy morphology parameters computed by the NVO compute service"
	tab.SetParam(votable.Param{Name: "cluster", Datatype: votable.TypeChar, Value: cluster})
	tab.SetParam(votable.Param{Name: "n_galaxies", Datatype: votable.TypeInt, Value: fmt.Sprint(len(results))})
	for _, r := range results {
		valid := "F"
		if r.Valid {
			valid = "T"
		}
		if err := tab.AppendRow(r.ID, votable.FormatFloat(r.SurfaceBrightness),
			votable.FormatFloat(r.Concentration), votable.FormatFloat(r.Asymmetry), valid); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := votable.WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamedConcatByteIdentical pins the concatVOT body — result files in,
// in-memory sort, streamed table out — against the in-memory oracle, and the
// spool itself fed the oracle's cells, at 300 rows and at 5,000: more rows
// than the 4,096 at which the spool once spilled sorted runs to disk.
func TestStreamedConcatByteIdentical(t *testing.T) {
	var files map[string][]byte
	var inputs []string
	for _, n := range []int{300, 5000} {
		rng := rand.New(rand.NewSource(17))
		var results []GalMorphResult
		files, inputs = map[string][]byte{}, nil
		for i := 0; i < n; i++ {
			r := GalMorphResult{
				ID:                fmt.Sprintf("COMA-%03d-%03d", rng.Intn(1000), i),
				SurfaceBrightness: rng.Float64() * 25,
				Concentration:     rng.Float64() * 5,
				Asymmetry:         rng.Float64(),
				Valid:             rng.Intn(4) != 0,
			}
			if !r.Valid {
				r.Reason = "injected"
			}
			results = append(results, r)
			inputs = append(inputs, r.ID+".txt")
			files[r.ID+".txt"] = appendResult(nil, r)
		}
		want := domResultsTable(t, "COMA", append([]GalMorphResult(nil), results...))

		got, err := concatVOT("COMA.vot", inputs, func(lfn string) ([]byte, error) { return files[lfn], nil })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d rows: concatVOT output diverges from the in-memory oracle", n)
		}

		a := arena.Get()
		sp := tableops.NewSpoolIn(a, 0, 16) // a row hint below n: the spool grows
		row := make([]string, len(ResultFields))
		for _, r := range results {
			resultCellsInto(row, r)
			if err := sp.Add(row...); err != nil {
				t.Fatal(err)
			}
		}
		var sorted [][]string
		if err := sp.Merge(func(row []string) error { sorted = append(sorted, row); return nil }); err != nil {
			t.Fatal(err)
		}
		streamed, err := resultsTable("COMA", sorted)
		if err != nil {
			t.Fatal(err)
		}
		arena.Put(a)
		if !bytes.Equal(streamed, want) {
			t.Fatalf("%d rows: streamed concat output diverges from the in-memory oracle", n)
		}
	}

	// A fetch failure or an undecodable input fails the body.
	boom := errors.New("boom")
	if _, err := concatVOT("COMA.vot", inputs, func(string) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("fetch error = %v, want boom", err)
	}
	files[inputs[7]] = []byte("id X\nconcentration abc\n")
	if _, err := concatVOT("COMA.vot", inputs, func(lfn string) ([]byte, error) { return files[lfn], nil }); err == nil {
		t.Error("malformed result file must fail the concat")
	}
}
