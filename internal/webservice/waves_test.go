package webservice

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dagman"
	"repro/internal/journal"
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
	if _, _, err := readWaveManifest(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing manifest must fail")
	}
}

// wavedJournaledRun computes with journaling + waves on and returns the
// output bytes and journal.
func wavedJournaledRun(t *testing.T, nGalaxies, waveSize int) ([]byte, []journal.Record, *harness) {
	t.Helper()
	dir := t.TempDir()
	h := newHarness(t, nGalaxies, func(c *Config) {
		c.JournalDir = dir
		c.WaveSize = waveSize
	})
	if _, _, err := h.svc.Compute(h.inputTable(t), "COMA"); err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := journal.Replay(filepath.Join(dir, "COMA.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("uninterrupted wave run left a torn journal")
	}
	return h.outputBytes(t, "COMA.vot"), recs, h
}

// TestWaveKillAndResumeByteIdentity kills the wave pipeline at every journal
// event boundary and resumes: the manifest restores the wave decomposition,
// RLS reduction prunes finished jobs, the journal restores mid-wave nodes —
// and the output must be byte-identical to the uninterrupted wave run (which
// itself equals the monolithic run, by the test above).
func TestWaveKillAndResumeByteIdentity(t *testing.T) {
	const nGalaxies, waveSize = 6, 2
	want, baseRecs, _ := wavedJournaledRun(t, nGalaxies, waveSize)
	events := len(baseRecs) - 2 // minus begin and end markers
	if events < 10 {
		t.Fatalf("workflow too small for a sweep: %d events", events)
	}

	for k := 1; k < events; k++ {
		dir := t.TempDir()
		h := newHarness(t, nGalaxies, func(c *Config) {
			c.JournalDir = dir
			c.WaveSize = waveSize
			c.WrapJournal = crashAfter(k)
		})
		tab := h.inputTable(t)
		_, _, err := h.svc.Compute(tab, "COMA")
		if !errors.Is(err, journal.ErrCrash) {
			t.Fatalf("kill point %d: crash did not fire: %v", k, err)
		}
		if !errors.Is(err, dagman.ErrAborted) {
			t.Errorf("kill point %d: crash not surfaced as abort: %v", k, err)
		}

		recs, _, err := journal.Replay(filepath.Join(dir, "COMA.journal"))
		if err != nil {
			t.Fatalf("kill point %d: replay: %v", k, err)
		}
		doneAtCrash := journal.CompletedNodes(recs)
		prefix := len(recs)

		svc2, err := h.svc.Reopen()
		if err != nil {
			t.Fatalf("kill point %d: reopen: %v", k, err)
		}
		out, _, err := resume(svc2, "COMA")
		if err != nil {
			t.Fatalf("kill point %d: resume: %v", k, err)
		}
		if out != "COMA.vot" {
			t.Fatalf("kill point %d: resume output %q", k, out)
		}
		if got := h.outputBytes(t, "COMA.vot"); string(got) != string(want) {
			t.Fatalf("kill point %d: resumed output differs from uninterrupted wave run", k)
		}

		// No node the dead run completed is submitted again: between waves,
		// RLS reduction prunes whole finished jobs; inside the crashed wave,
		// the journal's completed-set restores them.
		after, _, err := journal.Replay(filepath.Join(dir, "COMA.journal"))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range after[prefix:] {
			if r.Kind == journal.KindSubmitted && doneAtCrash[r.Node] {
				t.Fatalf("kill point %d: completed node %s re-submitted on resume", k, r.Node)
			}
		}
		if _, ended := journal.Ended(after); !ended {
			t.Errorf("kill point %d: resumed journal lacks end marker", k)
		}
	}
}

// TestWaveResumeOfFinishedRunShortCircuits mirrors the classic idempotence
// guarantee in wave mode.
func TestWaveResumeOfFinishedRunShortCircuits(t *testing.T) {
	want, _, h := wavedJournaledRun(t, 4, 2)
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
	want, baseRecs, _ := wavedJournaledRun(t, nGalaxies, 2)
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
