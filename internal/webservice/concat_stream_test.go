package webservice

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/tableops"
	"repro/internal/votable"
)

// TestStreamedConcatByteIdentical pins the spill-to-disk concat path
// against the in-memory resultsToVOTable+WriteTable path, with enough rows
// to force multiple run-file spills.
func TestStreamedConcatByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var results []GalMorphResult
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
	}

	var want bytes.Buffer
	tab := resultsToVOTable("COMA", append([]GalMorphResult(nil), results...))
	if err := votable.WriteTable(&want, tab); err != nil {
		t.Fatal(err)
	}

	a := arena.Get()
	defer arena.Put(a)
	sp := tableops.NewSpoolIn(a, 0, 16) // tiny batches: ~19 spilled runs
	defer sp.Close()
	for _, r := range results {
		if err := sp.Add(resultCells(r)...); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := streamResultsTable(&got, "COMA", sp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("streamed concat output diverges from the in-memory path")
	}
}
