package webservice

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gridftp"
	"repro/internal/journal"
	"repro/internal/rls"
)

// TestWaveComputeByteIdentical is the survey-scale acceptance: the wave-based
// pipeline must produce output bytes identical to the monolithic path — with
// and without horizontal clustering, and at a wave size that does not divide
// the galaxy count.
func TestWaveComputeByteIdentical(t *testing.T) {
	const nGalaxies = 24
	for _, tc := range []struct {
		name        string
		clusterSize int
	}{
		{"plain", 0},
		{"clustered", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			classic := newHarness(t, nGalaxies, func(c *Config) { c.ClusterSize = tc.clusterSize })
			if _, _, err := classic.svc.Compute(classic.inputTable(t), "COMA"); err != nil {
				t.Fatal(err)
			}
			want := classic.outputBytes(t, "COMA.vot")

			waved := newHarness(t, nGalaxies, func(c *Config) {
				c.ClusterSize = tc.clusterSize
				c.WaveSize = 7
			})
			_, stats, err := waved.svc.Compute(waved.inputTable(t), "COMA")
			if err != nil {
				t.Fatal(err)
			}
			if got := waved.outputBytes(t, "COMA.vot"); string(got) != string(want) {
				t.Fatal("wave-mode output differs from the monolithic path")
			}
			// ceil(24/7) leaf waves plus the collector.
			if stats.Waves != 5 {
				t.Errorf("waves = %d, want 5", stats.Waves)
			}
			// Peak live graph: <= 4 concrete nodes per leaf job (compute +
			// stage-in + stage-out + register) — bounded by the wave size,
			// not the request.
			if stats.MaxWaveNodes == 0 || stats.MaxWaveNodes > 4*7 {
				t.Errorf("max wave nodes = %d, want (0, %d]", stats.MaxWaveNodes, 4*7)
			}
			if stats.Galaxies != nGalaxies || stats.ComputeJobs != nGalaxies+1 {
				t.Errorf("galaxies=%d computeJobs=%d", stats.Galaxies, stats.ComputeJobs)
			}
			// Images are staged per wave, but all of them exactly once.
			if stats.ImagesFetched != nGalaxies || stats.ImagesCached != 0 {
				t.Errorf("fetch/cache = %d/%d", stats.ImagesFetched, stats.ImagesCached)
			}
		})
	}
}

func TestWaveManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.waves")
	refs := []imageRef{{id: "g1", acref: "http://a/1"}, {id: "g2", acref: "http://a/2"}}
	if err := writeWaveManifest(path, 50, refs); err != nil {
		t.Fatal(err)
	}
	waveSize, got, err := readWaveManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if waveSize != 50 || !reflect.DeepEqual(got, refs) {
		t.Errorf("round trip = %d %v", waveSize, got)
	}
	if err := writeWaveManifest(path, 1, []imageRef{{id: "a\tb"}}); err == nil {
		t.Error("tab in id must be rejected")
	}
	// A line of maxManifestLine bytes, newline included, is the longest the
	// reader takes back; one byte more must be refused at write time, not
	// discovered by a resume.
	long := []imageRef{{id: "g", acref: strings.Repeat("x", maxManifestLine-3)}}
	if err := writeWaveManifest(path, 1, long); err != nil {
		t.Fatal(err)
	}
	if _, got, err := readWaveManifest(path); err != nil || !reflect.DeepEqual(got, long) {
		t.Errorf("longest line did not round-trip: %v", err)
	}
	long[0].acref += "x"
	if err := writeWaveManifest(path, 1, long); err == nil {
		t.Error("a line over maxManifestLine must be rejected")
	}
	if _, _, err := readWaveManifest(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing manifest must fail")
	}
}

// FuzzWaveManifest: writeWaveManifest either refuses a galaxy list or
// readWaveManifest returns its exact wave size and refs, and arbitrary bytes
// on disk never panic the reader. The first seed is an acref ending in '\r'
// (a VOTable "&#xD;"), which the line scanner would read back one byte short.
func FuzzWaveManifest(f *testing.F) {
	f.Add(50, "g1", "http://x/a\r", []byte("wave_size 2\ng1\thttp://x/a\r\n"))
	f.Add(2, "NGP9_F323-0927589", "http://archive/cutout?ra=194.9&dec=27.9", []byte("wave_size 0\n"))
	f.Add(1, "a\tb", "", []byte("\n\t\n"))
	f.Add(0, "g", "u", []byte("wave_size 3\n\tx\nx\t\r"))
	f.Add(7, "g\r", "\x00\xff", []byte{})
	dir := f.TempDir()
	path, rawPath := filepath.Join(dir, "x.waves"), filepath.Join(dir, "raw.waves")
	f.Fuzz(func(t *testing.T, waveSize int, id, acref string, raw []byte) {
		refs := []imageRef{{id: "g0", acref: "http://a/0"}, {id: id, acref: acref}}
		if err := writeWaveManifest(path, waveSize, refs); err == nil {
			gotSize, got, err := readWaveManifest(path)
			if err != nil {
				t.Fatalf("written manifest unreadable: %v", err)
			}
			if gotSize != waveSize || !reflect.DeepEqual(got, refs) {
				t.Fatalf("round trip = %d %q, want %d %q", gotSize, got, waveSize, refs)
			}
		}
		if err := os.WriteFile(rawPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _ = readWaveManifest(rawPath)
	})
}

// TestWaveResumeOfFinishedRunShortCircuits mirrors the classic idempotence
// guarantee in wave mode.
func TestWaveResumeOfFinishedRunShortCircuits(t *testing.T) {
	want, _, h := journaledRun(t, 4, 2)
	svc2, err := h.svc.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := resume(svc2, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if out != "COMA.vot" || !stats.ReusedOutput {
		t.Errorf("out=%q reused=%t", out, stats.ReusedOutput)
	}
	if got := h.outputBytes(t, "COMA.vot"); string(got) != string(want) {
		t.Error("short-circuited wave resume must not touch the output")
	}
}

// TestWaveResumeHonorsManifestWaveSize pins that a resume replays the
// decomposition the crashed run recorded, not the service's current config:
// the same journal must finish correctly even if the operator changed
// WaveSize between the crash and the resume.
func TestWaveResumeHonorsManifestWaveSize(t *testing.T) {
	const nGalaxies = 6
	want, baseRecs, _ := journaledRun(t, nGalaxies, 2)
	k := (len(baseRecs) - 2) / 2

	dir := t.TempDir()
	h := newHarness(t, nGalaxies, func(c *Config) {
		c.JournalDir = dir
		c.WaveSize = 2
		c.WrapJournal = crashAfter(k)
	})
	if _, _, err := h.svc.Compute(h.inputTable(t), "COMA"); !errors.Is(err, journal.ErrCrash) {
		t.Fatal("crash did not fire")
	}

	// Restart with a different configured wave size; the manifest wins.
	h.svc.cfg.WaveSize = 5
	svc2, err := h.svc.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := resume(svc2, "COMA"); err != nil {
		t.Fatal(err)
	}
	if got := h.outputBytes(t, "COMA.vot"); string(got) != string(want) {
		t.Error("resume under a changed WaveSize config diverged from the recorded decomposition")
	}
}

// TestWaveEvictionAllocBudget gates the eviction between waves: a wave of
// 100 staged images, each at the cache site and the mirror (both
// registered) and staged in at an execution site, all but one with a
// registered result, evicted by one evictWave call as the wave source makes
// it. The budget is 0.1 allocations per image; the site list is read once a
// wave and nothing is allocated per image; it reads 0.01. The closure it
// replaced built each image's name, its cache and mirror URLs and a copy of
// the site list per image: the same wave read 3.96 allocations per image
// (2.97 without a mirror).
func TestWaveEvictionAllocBudget(t *testing.T) {
	const images = 100
	h := newHarness(t, images, func(c *Config) { c.MirrorSite = "mirror" })
	refs := make([]imageRef, images)
	for i, g := range h.clusters[0].Galaxies {
		refs[i] = imageRef{id: g.ID}
		lfn := g.ID + ".fit"
		if err := h.svc.storeImage(g.ID, []byte("cutout of "+g.ID)); err != nil {
			t.Fatal(err)
		}
		if _, err := h.ftp.Transfer(gridftp.URL(cacheSite, lfn), gridftp.URL("usc", lfn)); err != nil {
			t.Fatal(err)
		}
		if i == images-1 {
			continue // no result: a rescue re-run may need the image
		}
		if err := h.r.Register(g.ID+".txt", rls.PFN{Site: "usc", URL: gridftp.URL("usc", g.ID+".txt")}); err != nil {
			t.Fatal(err)
		}
	}
	jobs := waveSourceFor(refs, "COMA")
	l := h.leg()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.evictWave(jobs, 0, images)
	runtime.ReadMemStats(&after)
	perImage := float64(after.Mallocs-before.Mallocs) / images
	t.Logf("evicting a wave of %d images: %.2f allocs/image", images, perImage)
	if n := l.r.status().Stats.ImagesEvicted; n != images-1 {
		t.Errorf("ImagesEvicted = %d, want %d", n, images-1)
	}
	for i, r := range refs {
		lfn, kept := r.id+".fit", i == images-1
		for _, site := range []string{cacheSite, "mirror", "usc"} {
			if h.ftp.Store(site).Exists(lfn) != kept {
				t.Errorf("%s at %s: stored = %v, want %v", lfn, site, !kept, kept)
			}
		}
		if n := len(h.r.Lookup(lfn)); n != map[bool]int{true: 2}[kept] {
			t.Errorf("%s: %d replicas registered after eviction", lfn, n)
		}
	}
	const budget = 0.1
	if perImage > budget {
		t.Errorf("evicting a wave allocates %.2f times per image; budget is %.2f", perImage, budget)
	}
}
