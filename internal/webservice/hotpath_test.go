package webservice

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arena"
	"repro/internal/fits"
	"repro/internal/morphology"
	"repro/internal/skysim"
	"repro/internal/vdl"
	"repro/internal/votable"
	"repro/internal/wcs"
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

// sscanfConfig is morphConfigFromDV as it stood on fmt.Sscanf, frozen as
// the oracle for the strconv one: memo keys are fingerprints of the parsed
// Config, so a value parsing to a different bit would orphan every memo
// entry written before.
func sscanfConfig(dv *vdl.Derivation) morphology.Config {
	cfg := morphology.DefaultConfig(0)
	if b, ok := dv.Bindings["redshift"]; ok && !b.IsFile {
		fmt.Sscanf(b.Value, "%g", &cfg.Redshift)
	}
	if b, ok := dv.Bindings["pixScale"]; ok && !b.IsFile {
		fmt.Sscanf(strings.ReplaceAll(b.Value, "E", "e"), "%g", &cfg.PixScaleDeg)
	}
	if b, ok := dv.Bindings["zeroPoint"]; ok && !b.IsFile {
		fmt.Sscanf(b.Value, "%g", &cfg.ZeroPoint)
	}
	if b, ok := dv.Bindings["Ho"]; ok && !b.IsFile {
		fmt.Sscanf(b.Value, "%g", &cfg.Cosmology.H0)
	}
	if b, ok := dv.Bindings["om"]; ok && !b.IsFile {
		fmt.Sscanf(b.Value, "%g", &cfg.Cosmology.OmegaM)
	}
	if b, ok := dv.Bindings["flat"]; ok && !b.IsFile {
		cfg.Cosmology.Flat = b.Value != "0"
	}
	return cfg
}

// TestMorphConfigMatchesSscanf: every value the derivation file can carry — its own
// literals, and a catalog redshift in any float rendering (shortest
// round-trip, fixed, e/E exponents, padded, signed, non-finite, out of
// range, empty, not a number) — parses to the bit-identical Config and the
// identical fingerprint under both parsers, through the rendered text and
// vdl.Parse.
func TestMorphConfigMatchesSscanf(t *testing.T) {
	zs := []string{"0.02", "0", "", " ", "0.0279", "2.831933107035062E-4", "2.831933107035062e-4",
		"1e-320", "4.9e-324", "1.7976931348623157e308", "1e999", "-1e999", "-0.0", "+0.5", ".5", "5.",
		" 0.04", "0.04 ", "\t0.04", "NaN", "nan", "Inf", "-inf", "+Infinity", "abc", "z=1", "--1", "0x1p-2",
		"0.1", "0.30000000000000004", "123456789012345678901234567890"}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 300; i++ {
		f := math.Float64frombits(rng.Uint64())
		if i%3 == 0 {
			f = rng.Float64() * 2 // the range catalog redshifts live in
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		for _, format := range []byte{'g', 'e', 'E', 'f'} {
			if format == 'f' && math.Abs(f) > 1e20 {
				continue
			}
			zs = append(zs, strconv.FormatFloat(f, format, -1, 64))
		}
	}

	tab := votable.NewTable("in",
		votable.Field{Name: "id", Datatype: votable.TypeChar},
		votable.Field{Name: "acref", Datatype: votable.TypeChar},
		votable.Field{Name: "z", Datatype: votable.TypeDouble},
	)
	for i, z := range zs {
		if err := tab.AppendRow(fmt.Sprintf("G%d", i), "http://x/", z); err != nil {
			t.Fatal(err)
		}
	}
	dvs, err := newDerivations(tab, "TEST")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := vdl.Parse(dvs.text())
	if err != nil {
		t.Fatal(err)
	}
	for i, z := range zs {
		dv, ok := cat.Derivation(fmt.Sprintf("m-G%d", i))
		if !ok {
			t.Fatalf("derivation %d missing", i)
		}
		got, want := morphConfigFromDV(dv), sscanfConfig(dv)
		if math.Float64bits(got.Redshift) != math.Float64bits(want.Redshift) ||
			math.Float64bits(got.PixScaleDeg) != math.Float64bits(want.PixScaleDeg) ||
			math.Float64bits(got.ZeroPoint) != math.Float64bits(want.ZeroPoint) ||
			got.Cosmology != want.Cosmology || morphFingerprint(got) != morphFingerprint(want) {
			t.Errorf("z=%q: config %+v (%s), Sscanf oracle %+v (%s)",
				z, got, morphFingerprint(got), want, morphFingerprint(want))
		}
	}

	// Where the two part, on purpose: Sscanf read the numeric prefix of a
	// value with a trailing suffix; such a value is now "not a number" like
	// any other and leaves the default.
	dv := &vdl.Derivation{Bindings: map[string]vdl.Binding{
		"redshift": vdl.ScalarBinding("0.02abc"), "Ho": vdl.ScalarBinding("70 km/s/Mpc"),
	}}
	if got := morphConfigFromDV(dv); got != morphology.DefaultConfig(0) {
		t.Errorf("values with a suffix must leave the defaults: %+v", got)
	}
}

// Hot-path instrumentation: allocations per galaxy on the
// decode→measure→encode path (legacy heap pipeline vs the zero-copy view +
// request-arena pipeline the galMorph Run body executes). The alloc counts
// are exact (testing.AllocsPerRun).

// hotPathGalaxy renders one realistic survey galaxy to raw FITS bytes — the
// exact payload a galMorph job receives from its stage-in.
func hotPathGalaxy(t testing.TB) ([]byte, morphology.Config) {
	t.Helper()
	cl := skysim.Generate(skysim.Spec{
		Name: "PERF", Center: wcs.New(150, 2), Redshift: 0.04,
		NumGalaxies: 8, Seed: 77,
	})
	im := skysim.RenderGalaxy(cl.Galaxies[0], 64, 7)
	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), morphology.DefaultConfig(cl.Redshift)
}

// legacyMeasure is the pre-PR-9 per-galaxy pipeline, kept as the reference
// the gate compares against: full Decode into a heap Image, Measure,
// fmt-based result encoding.
func legacyMeasure(t testing.TB, raw []byte, mcfg morphology.Config) int {
	im, err := fits.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	p, err := morphology.Measure(im, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Valid {
		t.Fatalf("perf galaxy measured invalid: %s", p.Err)
	}
	return len(fmt.Sprintf("id g0\nsurface_brightness %g\nconcentration %g\nasymmetry %g\nvalid %t\n",
		p.SurfaceBrightness, p.Concentration, p.Asymmetry, p.Valid))
}

// rawMeasure is the pipeline as the galMorph Run body executes it: pooled
// arena, zero-copy view, and the galMorph body rendering the result file
// into arena-backed bytes.
func rawMeasure(t testing.TB, raw []byte, mcfg morphology.Config) int {
	ar := arena.Get()
	defer arena.Put(ar)
	p, err := morphology.MeasureRaw(ar, raw, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Valid {
		t.Fatalf("perf galaxy measured invalid: %s", p.Err)
	}
	content, err := (&Service{}).galMorph(ar.Bytes(192)[:0], "g0.fit", p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return len(content)
}

// allocStats runs fn repeatedly and reports (allocs/run, bytes/run).
func allocStats(runs int, fn func()) (float64, float64) {
	fn() // warm pools and slabs outside the measured window
	allocs := testing.AllocsPerRun(runs, fn)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestHotPathAllocBudget is the regression gate `make hotbench` runs under
// -race: the arena pipeline must stay within an absolute per-galaxy
// allocation budget AND at least 2x below the legacy pipeline. The absolute
// budget is deliberately generous (the real figure is far lower) so race-
// mode and GC-timing noise cannot flake it, while still catching any
// reintroduced per-pixel or per-card allocation immediately.
func TestHotPathAllocBudget(t *testing.T) {
	raw, mcfg := hotPathGalaxy(t)
	legacyAllocs, legacyBytes := allocStats(200, func() { legacyMeasure(t, raw, mcfg) })
	rawAllocs, rawBytes := allocStats(200, func() { rawMeasure(t, raw, mcfg) })
	t.Logf("allocs/galaxy: legacy %.1f, raw %.1f; bytes/galaxy: legacy %.0f, raw %.0f",
		legacyAllocs, rawAllocs, legacyBytes, rawBytes)
	const absBudget = 48
	if rawAllocs > absBudget {
		t.Errorf("raw measure path allocates %.1f times per galaxy; budget is %d", rawAllocs, absBudget)
	}
	if legacyAllocs < 2*rawAllocs {
		t.Errorf("alloc reduction < 2x (legacy %.1f, raw %.1f)", legacyAllocs, rawAllocs)
	}
	// The race detector's shadow bookkeeping inflates every allocation's
	// measured size (the count stays exact), so the byte-level claim is
	// only asserted in uninstrumented builds.
	if !raceEnabled && legacyBytes < 2*rawBytes {
		t.Errorf("allocated-bytes reduction < 2x (legacy %.0f, raw %.0f)", legacyBytes, rawBytes)
	}
}

func BenchmarkMeasureLegacy(b *testing.B) {
	raw, mcfg := hotPathGalaxy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyMeasure(b, raw, mcfg)
	}
}

func BenchmarkMeasureRawArena(b *testing.B) {
	raw, mcfg := hotPathGalaxy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rawMeasure(b, raw, mcfg)
	}
}
