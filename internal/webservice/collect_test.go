package webservice

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/votable"
)

// decodeResult is the line-splitting result decoder the collector ran until
// it decoded into one cell buffer, frozen as the oracle of resultCells.add: the
// collector must accept and refuse the same files with the same error text.
func decodeResult(data []byte) (GalMorphResult, error) {
	var r GalMorphResult
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, found := strings.Cut(line, " ")
		if !found {
			return r, fmt.Errorf("webservice: bad result line %q", line)
		}
		var err error
		switch key {
		case "id":
			r.ID = val
		case "surface_brightness":
			r.SurfaceBrightness, err = strconv.ParseFloat(val, 64)
		case "concentration":
			r.Concentration, err = strconv.ParseFloat(val, 64)
		case "asymmetry":
			r.Asymmetry, err = strconv.ParseFloat(val, 64)
		case "valid":
			r.Valid, err = parseResultBool(val)
		case "reason":
			r.Reason = val
		}
		if err != nil {
			return r, fmt.Errorf("webservice: result %s %q: %w", key, val, err)
		}
	}
	if r.ID == "" {
		return r, errors.New("webservice: result file missing id")
	}
	return r, nil
}

// parseResultBool accepts exactly the two spellings appendResult writes.
func parseResultBool(val string) (bool, error) {
	switch val {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, errors.New("want true or false")
}

// resultCellsInto is the collector's cell rendering of one decoded result as
// it stood beside decodeResult, frozen with it as the oracle of the cells.
func resultCellsInto(row []string, r GalMorphResult) {
	valid := "F"
	if r.Valid {
		valid = "T"
	}
	row[0] = r.ID
	row[1] = votable.FormatFloat(r.SurfaceBrightness)
	row[2] = votable.FormatFloat(r.Concentration)
	row[3] = votable.FormatFloat(r.Asymmetry)
	row[4] = valid
}

// collectFiles runs files through resultCells, as concatVOT does, and
// returns the rows it emits, or the first file's error.
func collectFiles(files [][]byte) ([][]string, error) {
	var rows [][]string
	cells := resultCells{row: make([]string, len(ResultFields)), emit: func(row ...string) error {
		rows = append(rows, slices.Clone(row))
		return nil
	}}
	for _, f := range files {
		if err := cells.add(f); err != nil {
			return nil, err
		}
	}
	return rows, cells.flush()
}

// oracleCells is collectFiles through the frozen decoder.
func oracleCells(files [][]byte) ([][]string, error) {
	var rows [][]string
	for _, f := range files {
		r, err := decodeResult(f)
		if err != nil {
			return nil, err
		}
		row := make([]string, len(ResultFields))
		resultCellsInto(row, r)
		rows = append(rows, row)
	}
	return rows, nil
}

// checkCollectParity holds the collector to its oracle on files: the same
// refusal with the same error text, or the same cells.
func checkCollectParity(t *testing.T, files ...[]byte) {
	t.Helper()
	want, wantErr := oracleCells(files)
	got, err := collectFiles(files)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("files %q: error %v, oracle %v", files, err, wantErr)
	}
	if err == nil && !slices.EqualFunc(got, want, slices.Equal[[]string]) {
		t.Fatalf("files %q: cells %q, oracle %q", files, got, want)
	}
}

// TestCollectMatchesOracle: the collector and the frozen decoder agree on
// every file appendResult writes and on the damaged and odd files the
// decoder's own tests name.
func TestCollectMatchesOracle(t *testing.T) {
	good := [][]byte{
		appendResult(nil, GalMorphResult{ID: "g1", SurfaceBrightness: 21.375, Concentration: 3.2, Asymmetry: 0.04, Valid: true}),
		appendResult(nil, GalMorphResult{ID: "g2", Valid: false, Reason: "no flux\nat all"}),
		appendResult(nil, GalMorphResult{ID: "g3 with space", SurfaceBrightness: -1.5e-9, Concentration: 1e21}),
		[]byte("id g4\r\nsurface_brightness 1.50\r\nvalid true\r\n"),
		[]byte("  id g5 \n\tconcentration  +Inf\n"),
		[]byte("id g6\nid g6b\nasymmetry 0x1p-2\nunknown key\n"),
	}
	checkCollectParity(t, good...)
	for _, bad := range []string{
		"", "\n\n", "garbage-without-space", "valid true\n", "id X\nconcentration abc\n",
		"id X\nsurface_brightness 1e999\n", "id X\nvalid TRUE\n", "id X\nasymmetry  1\n",
		"id \xff\nvalid maybe\n", "id\u0085X\n", " \n", "id X\nsurface_brightness\n",
	} {
		checkCollectParity(t, good[0], []byte(bad))
		checkCollectParity(t, []byte(bad))
	}
}

// FuzzCollectParity: on any two result files, the collector accepts and
// refuses what decodeResult + resultCellsInto do, with the same error text,
// and emits the same cells.
func FuzzCollectParity(f *testing.F) {
	f.Add(appendResult(nil, GalMorphResult{ID: "g1", SurfaceBrightness: 21.4, Concentration: 3.01, Asymmetry: 0.12, Valid: true}),
		appendResult(nil, GalMorphResult{ID: "g2", Reason: "bad pixels"}))
	f.Add([]byte("id X\nconcentration abc\n"), []byte("valid true\n"))
	f.Add([]byte("id X \r\nvalid false"), []byte("\u0085id Y\u0085\nasymmetry -0\n"))
	f.Add([]byte("id \xff\xfe\nsurface_brightness 1_000\n"), []byte("id Z\nsurface_brightness 0x1.8p1\n"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkCollectParity(t, a, b)
	})
}

// TestCollectAllocBudget gates the collector the way TestPlanAllocBudget gates
// planning: allocations per galaxy of concatVOT over 1,000 result files, the
// table encoder and the spool included. Measured 0.021 per galaxy, the
// request's fixed cost: the cell string, its cell offsets, the spool's row
// slice and the encoder's buffer growth. It measured 8.0 when every file was split into a string per
// line and every float cell formatted into a string of its own.
func TestCollectAllocBudget(t *testing.T) {
	const galaxies = 1000
	files := make(map[string][]byte, galaxies)
	inputs := make([]string, galaxies)
	for i := range inputs {
		r := GalMorphResult{ID: fmt.Sprintf("G%06d", (i*7919)%galaxies), SurfaceBrightness: 21 + float64(i)/7,
			Concentration: 3 + float64(i)/13, Asymmetry: float64(i) / 1e4, Valid: i%9 != 0}
		if !r.Valid {
			r.Reason = "morphology: no significant flux above background"
		}
		inputs[i] = r.ID + ".txt"
		files[inputs[i]] = appendResult(nil, r)
	}
	fetch := func(lfn string) ([]byte, error) { return files[lfn], nil }
	if _, err := concatVOT("COMA.vot", inputs, fetch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := concatVOT("COMA.vot", inputs, fetch); err != nil {
			t.Fatal(err)
		}
	}) / galaxies
	t.Logf("collecting %d result files into the output table: %.3f allocs/galaxy", galaxies, allocs)
	const budget = 0.1
	if allocs > budget {
		t.Errorf("the collector allocates %.2f times per galaxy; budget is %.1f", allocs, budget)
	}
}

// TestResultTableBytes holds the collector's output table to at most 1.1
// bytes allocated per byte of the table: one counting pass through the
// encoder, then one buffer of exactly the table's length, which the store
// adopts. The rows are 1,000 galaxies' result cells sorted on the ID, as
// concatVOT hands them over. While the table was encoded into a
// bytes.Buffer grown from empty, the doubling cost about 2 bytes per byte.
// The bytes are not checked under -race, whose bookkeeping inflates them.
func TestResultTableBytes(t *testing.T) {
	const galaxies = 1000
	rows := make([][]string, galaxies)
	for i := range rows {
		r := GalMorphResult{ID: fmt.Sprintf("G%06d", i), SurfaceBrightness: 21 + float64(i)/7,
			Concentration: 3 + float64(i)/13, Asymmetry: float64(i) / 1e4, Valid: i%9 != 0}
		rows[i] = make([]string, len(ResultFields))
		resultCellsInto(rows[i], r)
	}
	table, err := resultsTable("COMA", rows)
	if err != nil {
		t.Fatal(err)
	}
	if cap(table) != len(table) {
		t.Errorf("the %d-byte table is in a buffer of cap %d, want exactly sized", len(table), cap(table))
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := resultsTable("COMA", rows); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(table))
	t.Logf("a %d-row result table of %d bytes: %.3f bytes allocated per byte (budget 1.1)", galaxies, len(table), perByte)
	if !raceEnabled && perByte > 1.1 {
		t.Errorf("%.3f bytes allocated per byte of the result table, budget 1.1", perByte)
	}
}
