package webservice

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
	direct, err := dvs.catalog()
	if err != nil {
		t.Fatal(err)
	}
	sameBits := func(a, b morphology.Config) bool {
		return math.Float64bits(a.Redshift) == math.Float64bits(b.Redshift) &&
			math.Float64bits(a.PixScaleDeg) == math.Float64bits(b.PixScaleDeg) &&
			math.Float64bits(a.ZeroPoint) == math.Float64bits(b.ZeroPoint) &&
			a.Cosmology == b.Cosmology && morphFingerprint(a) == morphFingerprint(b)
	}
	for i, z := range zs {
		dv, ok := cat.Derivation(fmt.Sprintf("m-G%d", i))
		row, okRow := direct.Derivation(fmt.Sprintf("m-G%d", i))
		if !ok || !okRow {
			t.Fatalf("derivation %d missing", i)
		}
		want := sscanfConfig(dv)
		// The runner's config, which parses the shared constants once, from
		// the parsed derivation (a resumed leg) and the table row (a fresh
		// one), and the full parse it stands in for.
		for name, got := range map[string]morphology.Config{
			"morphConfigFromDV": morphConfigFromDV(dv), "morphConfigOf(parsed)": morphConfigOf(dv),
			"morphConfigOf(table)": morphConfigOf(row),
		} {
			if !sameBits(got, want) {
				t.Errorf("z=%q: %s %+v (%s), Sscanf oracle %+v (%s)",
					z, name, got, morphFingerprint(got), want, morphFingerprint(want))
			}
		}
	}
	// A derivation binding other constants is parsed in full.
	other := vdl.NewDerivation("m-y", "galMorph", []vdl.Actual{
		{Name: "redshift", Binding: vdl.ScalarBinding("0.05")}, {Name: "pixScale", Binding: vdl.ScalarBinding("1e-4")},
		{Name: "zeroPoint", Binding: vdl.ScalarBinding("25")}, {Name: "Ho", Binding: vdl.ScalarBinding("70")},
		{Name: "om", Binding: vdl.ScalarBinding("0.27")}, {Name: "flat", Binding: vdl.ScalarBinding("0")},
	})
	if got := morphConfigOf(other); !sameBits(got, morphConfigFromDV(other)) || got.Cosmology.H0 != 70 || got.Cosmology.Flat {
		t.Errorf("other constants: morphConfigOf %+v, morphConfigFromDV %+v", got, morphConfigFromDV(other))
	}

	// Where the two part, on purpose: Sscanf read the numeric prefix of a
	// value with a trailing suffix; such a value is now "not a number" like
	// any other and leaves the default.
	dv := vdl.NewDerivation("m-x", "galMorph", []vdl.Actual{
		{Name: "redshift", Binding: vdl.ScalarBinding("0.02abc")}, {Name: "Ho", Binding: vdl.ScalarBinding("70 km/s/Mpc")},
	})
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
// allocation budget AND at least 2x below the legacy pipeline. The raw path
// allocates nothing per galaxy (the header scan parses numeric cards off
// stack strings, the pixels land in the arena), so the budget is one, and
// any reintroduced per-pixel or per-card allocation fails it at once. Under
// -race, sync.Pool drops a quarter of what is put back on purpose; refilling
// the arena and the measurement scratch then reads 2.0 per galaxy, which the
// race budget allows on top.
func TestHotPathAllocBudget(t *testing.T) {
	raw, mcfg := hotPathGalaxy(t)
	legacyAllocs, legacyBytes := allocStats(200, func() { legacyMeasure(t, raw, mcfg) })
	rawAllocs, rawBytes := allocStats(200, func() { rawMeasure(t, raw, mcfg) })
	t.Logf("allocs/galaxy: legacy %.1f, raw %.1f; bytes/galaxy: legacy %.0f, raw %.0f",
		legacyAllocs, rawAllocs, legacyBytes, rawBytes)
	const absBudget = 1 + racePoolRefills
	if rawAllocs > float64(absBudget) {
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

// fmtMemoKey is the memo key as measure built it at 8788e64: the fingerprint
// through fmt.Sprintf, hashed by a streaming digest over the length-framed
// parts and hex-encoded.
func fmtMemoKey(hexDigest []byte, cfg morphology.Config) string {
	fp := fmt.Sprintf("galMorph|z=%g|scale=%g|zp=%g|H0=%g|om=%g|flat=%t",
		cfg.Redshift, cfg.PixScaleDeg, cfg.ZeroPoint,
		cfg.Cosmology.H0, cfg.Cosmology.OmegaM, cfg.Cosmology.Flat)
	h := sha256.New()
	var frame [8]byte
	for _, p := range [][]byte{hexDigest, []byte(fp)} {
		binary.BigEndian.PutUint64(frame[:], uint64(len(p)))
		h.Write(frame[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMemoKeyMatchesFmt pins memoKey to the key fmt and a streaming digest
// gave, byte for byte, over parameters that include 0, −0, 1e21, 1e-7, NaN
// and ±Inf in every position, and gates it at one allocation — the key
// string — per key.
func TestMemoKeyMatchesFmt(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, 1e21, 1e20, 1e-7, 1e-4, 1e-5, math.NaN(),
		math.Inf(1), math.Inf(-1), 0.027886, 2.831933107035062e-4, 27.8, 100, 0.3, -2.5,
		123456789.125, 5e-324, math.MaxFloat64, 1.0 / 3}
	digest := []byte(strings.Repeat("0123456789abcdef", 4))
	for i := range vals {
		at := func(k int) float64 { return vals[(i+k)%len(vals)] }
		cfg := morphology.Config{Redshift: at(0), PixScaleDeg: at(1), ZeroPoint: at(2),
			Cosmology: morphology.Cosmology{H0: at(3), OmegaM: at(4), Flat: i%2 == 0}}
		if got, want := memoKey(digest, cfg), fmtMemoKey(digest, cfg); got != want {
			t.Fatalf("memoKey(%+v) = %s, fmt and a streaming digest give %s\nfingerprint %q",
				cfg, got, want, morphFingerprint(cfg))
		}
	}
	cfg := morphology.DefaultConfig(0.027886)
	var sink string
	if allocs := testing.AllocsPerRun(100, func() { sink = memoKey(digest, cfg) }); allocs > 1 {
		t.Errorf("memoKey allocates %.1f times per key; want at most 1", allocs)
	}
	_ = sink
}
