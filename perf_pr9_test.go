// Hot-path instrumentation: allocations per galaxy on the
// decode→measure→encode path (legacy heap pipeline vs the zero-copy view +
// request-arena pipeline). The alloc counts are exact
// (testing.AllocsPerRun).
package repro

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/arena"
	"repro/internal/fits"
	"repro/internal/morphology"
	"repro/internal/skysim"
	"repro/internal/wcs"
)

// pr9Galaxy renders one realistic survey galaxy to raw FITS bytes — the
// exact payload a galMorph job receives from its stage-in.
func pr9Galaxy(t testing.TB) ([]byte, morphology.Config) {
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

// legacyMeasure is the pre-PR-9 per-galaxy pipeline: full Decode into a
// heap Image, Measure, fmt-based result encoding.
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

// rawMeasure is the PR-9 pipeline exactly as the galMorph Run body executes
// it: pooled arena, zero-copy view, arena-backed result bytes.
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
	dst := ar.Bytes(192)[:0]
	dst = append(dst, "id g0\nsurface_brightness "...)
	return len(dst)
}

// pr9AllocStats runs fn repeatedly and reports (allocs/run, bytes/run).
func pr9AllocStats(runs int, fn func()) (float64, float64) {
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

// pr9MeasurePath compares the two pipelines on one galaxy.
type pr9MeasurePath struct {
	LegacyAllocsPerGalaxy float64
	RawAllocsPerGalaxy    float64
	AllocReductionFactor  float64
	LegacyBytesPerGalaxy  float64
	RawBytesPerGalaxy     float64
	ByteReductionFactor   float64
}

func measurePathStats(t testing.TB) pr9MeasurePath {
	raw, mcfg := pr9Galaxy(t)
	la, lb := pr9AllocStats(200, func() { legacyMeasure(t, raw, mcfg) })
	ra, rb := pr9AllocStats(200, func() { rawMeasure(t, raw, mcfg) })
	s := pr9MeasurePath{
		LegacyAllocsPerGalaxy: la,
		RawAllocsPerGalaxy:    ra,
		LegacyBytesPerGalaxy:  lb,
		RawBytesPerGalaxy:     rb,
	}
	if ra > 0 {
		s.AllocReductionFactor = la / ra
	}
	if rb > 0 {
		s.ByteReductionFactor = lb / rb
	}
	return s
}

// TestHotPathAllocBudget is the regression gate `make hotbench` runs under
// -race: the arena pipeline must stay within an absolute per-galaxy
// allocation budget AND at least 2x below the legacy pipeline. The absolute
// budget is deliberately generous (the real figure is far lower) so race-
// mode and GC-timing noise cannot flake it, while still catching any
// reintroduced per-pixel or per-card allocation immediately.
func TestHotPathAllocBudget(t *testing.T) {
	s := measurePathStats(t)
	t.Logf("allocs/galaxy: legacy %.1f, raw %.1f (%.1fx); bytes/galaxy: legacy %.0f, raw %.0f",
		s.LegacyAllocsPerGalaxy, s.RawAllocsPerGalaxy, s.AllocReductionFactor,
		s.LegacyBytesPerGalaxy, s.RawBytesPerGalaxy)
	const absBudget = 48
	if s.RawAllocsPerGalaxy > absBudget {
		t.Errorf("raw measure path allocates %.1f times per galaxy; budget is %d",
			s.RawAllocsPerGalaxy, absBudget)
	}
	if s.AllocReductionFactor < 2 {
		t.Errorf("alloc reduction %.2fx < 2x (legacy %.1f, raw %.1f)",
			s.AllocReductionFactor, s.LegacyAllocsPerGalaxy, s.RawAllocsPerGalaxy)
	}
	// The race detector's shadow bookkeeping inflates every allocation's
	// measured size (the count stays exact), so the byte-level claim is
	// only asserted in uninstrumented builds.
	if !raceEnabled && s.ByteReductionFactor < 2 {
		t.Errorf("allocated-bytes reduction %.2fx < 2x (legacy %.0f, raw %.0f)",
			s.ByteReductionFactor, s.LegacyBytesPerGalaxy, s.RawBytesPerGalaxy)
	}
}

func BenchmarkMeasureLegacy(b *testing.B) {
	raw, mcfg := pr9Galaxy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyMeasure(b, raw, mcfg)
	}
}

func BenchmarkMeasureRawArena(b *testing.B) {
	raw, mcfg := pr9Galaxy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rawMeasure(b, raw, mcfg)
	}
}
