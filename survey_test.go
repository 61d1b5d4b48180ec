// The survey-scale smoke: a 1000-galaxy request through the full testbed in
// wave mode must produce output bytes identical to the monolithic path while
// keeping the scheduler's live graph bounded by the wave size — the two
// invariants of the bounded-memory pipeline, checked race-enabled by
// `make survey`.
package repro

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/portal"
	"repro/internal/skysim"
	"repro/internal/wcs"
	"repro/internal/webservice"
)

func surveySpec(n int) []skysim.Spec {
	return []skysim.Spec{{
		Name: "SURVEY", Center: wcs.New(150, 2), Redshift: 0.04,
		NumGalaxies: n, Seed: 77,
	}}
}

// surveyRun computes the SURVEY cluster end to end and returns the raw
// output VOTable bytes plus the run stats and the testbed it ran on.
func surveyRun(t *testing.T, cfg core.Config) ([]byte, webservice.RunStats, *core.Testbed) {
	t.Helper()
	tb, err := core.NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := tb.Portal.BuildCatalog("SURVEY")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := tb.Compute.Compute(cat, "SURVEY")
	if err != nil {
		t.Fatal(err)
	}
	data, err := tb.FTP.Store("isi").Get("SURVEY.vot")
	if err != nil {
		t.Fatal(err)
	}
	return data, stats, tb
}

func TestSurveyWaveByteIdentity1k(t *testing.T) {
	if testing.Short() {
		t.Skip("survey smoke skipped in -short mode")
	}
	const galaxies, waveSize = 1000, 100

	want, classic, _ := surveyRun(t, core.Config{
		ClusterSpecs: surveySpec(galaxies), Seed: 5,
		Compute: webservice.Config{Workers: 4},
	})
	got, waved, tb := surveyRun(t, core.Config{
		ClusterSpecs: surveySpec(galaxies), Seed: 5,
		Compute: webservice.Config{Workers: 4, WaveSize: waveSize},
		Portal:  portal.Config{PageSize: 200},
	})
	if string(got) != string(want) {
		t.Fatal("wave-mode survey output differs from the monolithic path")
	}

	// The live graph never exceeds a constant multiple of the wave size
	// (compute + stage-in + stage-out + register per leaf job), independent
	// of the request: the monolithic plan holds every node at once.
	if waved.Waves != galaxies/waveSize+1 {
		t.Errorf("waves = %d, want %d", waved.Waves, galaxies/waveSize+1)
	}
	if bound := 4 * waveSize; waved.MaxWaveNodes == 0 || waved.MaxWaveNodes > bound {
		t.Errorf("max wave nodes = %d, want (0, %d]", waved.MaxWaveNodes, bound)
	}
	if classic.ComputeJobs != waved.ComputeJobs {
		t.Errorf("compute jobs diverge: classic %d, waves %d", classic.ComputeJobs, waved.ComputeJobs)
	}

	// Wave-cache eviction: once a wave's outputs are registered in the RLS,
	// its staged cutouts are dropped from the GridFTP cache, so the peak
	// number of staged images is bounded by the wave size — not the survey —
	// and every leaf image is eventually evicted. The monolithic run keeps
	// everything staged (no waves, nothing evicted).
	if waved.ImagesEvicted != galaxies {
		t.Errorf("images evicted = %d, want %d (every staged cutout)", waved.ImagesEvicted, galaxies)
	}
	if waved.PeakStagedImages == 0 || waved.PeakStagedImages > waveSize {
		t.Errorf("peak staged images = %d, want (0, %d]", waved.PeakStagedImages, waveSize)
	}
	if classic.ImagesEvicted != 0 {
		t.Errorf("monolithic run evicted %d images, want 0", classic.ImagesEvicted)
	}
	// Eviction reaches every store, not just the cache: the stage-in copies
	// at the execution sites share the cached blob's bytes, so leaving them
	// behind would keep every cutout of the survey alive.
	for _, site := range tb.FTP.Sites() {
		for _, name := range tb.FTP.Store(site).List() {
			id, isImage := strings.CutSuffix(name, ".fit")
			if isImage && tb.RLS.Exists(id+".txt") {
				t.Errorf("store %s still holds %s although %s.txt is registered", site, name, id)
			}
		}
	}
	t.Logf("1k survey: waves=%d maxWaveNodes=%d peakStaged=%d evicted=%d (classic plan holds all %d jobs at once)",
		waved.Waves, waved.MaxWaveNodes, waved.PeakStagedImages, waved.ImagesEvicted, classic.ComputeJobs)
}
