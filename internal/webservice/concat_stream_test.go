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
// spill-to-disk sort, streamed table out — against the in-memory oracle,
// and the spool itself with batches small enough to force many run-file
// spills.
func TestStreamedConcatByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var results []GalMorphResult
	files := map[string][]byte{}
	var inputs []string
	for i := 0; i < 300; i++ {
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
		t.Fatal("concatVOT output diverges from the in-memory oracle")
	}

	a := arena.Get()
	defer arena.Put(a)
	sp := tableops.NewSpoolIn(a, 0, 16) // tiny batches: ~19 spilled runs
	defer sp.Close()
	row := make([]string, len(ResultFields))
	for _, r := range results {
		resultCellsInto(row, r)
		if err := sp.Add(row...); err != nil {
			t.Fatal(err)
		}
	}
	var spilled bytes.Buffer
	if err := streamResultsTable(&spilled, "COMA", sp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spilled.Bytes(), want) {
		t.Fatal("streamed concat output diverges from the in-memory oracle")
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
