package webservice

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// fmtEncodeResult is the frozen PR-1 rendering of a result file. The live
// appendResult must reproduce it byte-for-byte: result files feed content
// hashes (memo keys, integrity digests), so a single diverging byte would
// quietly invalidate every historical digest.
func fmtEncodeResult(r GalMorphResult) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "id %s\n", r.ID)
	fmt.Fprintf(&b, "surface_brightness %g\n", r.SurfaceBrightness)
	fmt.Fprintf(&b, "concentration %g\n", r.Concentration)
	fmt.Fprintf(&b, "asymmetry %g\n", r.Asymmetry)
	fmt.Fprintf(&b, "valid %t\n", r.Valid)
	if r.Reason != "" {
		fmt.Fprintf(&b, "reason %s\n", strings.ReplaceAll(r.Reason, "\n", " "))
	}
	return b.Bytes()
}

func TestAppendResultMatchesFmt(t *testing.T) {
	cases := []GalMorphResult{
		{ID: "g001", SurfaceBrightness: 21.375, Concentration: 3.2, Asymmetry: 0.04, Valid: true},
		{ID: "g002", SurfaceBrightness: -1.5e-9, Concentration: 1e21, Asymmetry: 0.3333333333333333, Valid: true},
		{ID: "g003", Valid: false, Reason: "morphology: no significant flux above background"},
		{ID: "g004", Valid: false, Reason: "line one\nline two\nline three"},
		{ID: "g005", SurfaceBrightness: math.Inf(1), Concentration: math.NaN(), Asymmetry: -0.0, Valid: true},
		{ID: "g006", SurfaceBrightness: 100000, Concentration: 1000000, Asymmetry: 0.000001, Valid: true},
		{},
	}
	for i, r := range cases {
		want := fmtEncodeResult(r)
		got := appendResult(nil, r)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: appendResult diverged:\nwant %q\ngot  %q", i, want, got)
		}
		// Appending after existing content must not disturb it.
		pre := append([]byte("prefix|"), appendResult(make([]byte, 0, 256), r)...)
		if !bytes.Equal(pre[7:], want) {
			t.Errorf("case %d: appendResult onto sized buffer diverged", i)
		}
	}
}

// TestResultCellsIntoMatchesResultCells pins the output-table rendering of
// a result row to its literal cells, and that a reused row buffer carries
// nothing over from the previous result.
func TestResultCellsIntoMatchesResultCells(t *testing.T) {
	cases := []struct {
		r    GalMorphResult
		want []string
	}{
		{GalMorphResult{ID: "a", SurfaceBrightness: 21.4, Concentration: 3.01, Asymmetry: 0.12, Valid: true},
			[]string{"a", "21.4", "3.01", "0.12", "T"}},
		{GalMorphResult{ID: "b", Valid: false, Reason: "bad pixels"},
			[]string{"b", "0", "0", "0", "F"}},
		{GalMorphResult{ID: "c", SurfaceBrightness: -0.5, Concentration: 1e-7, Asymmetry: 12345.678, Valid: true},
			[]string{"c", "-0.5", "1e-07", "12345.678", "T"}},
	}
	row := make([]string, len(ResultFields))
	for i, c := range cases {
		resultCellsInto(row, c.r)
		if !slices.Equal(row, c.want) {
			t.Errorf("case %d: row %q, want %q", i, row, c.want)
		}
	}
}
