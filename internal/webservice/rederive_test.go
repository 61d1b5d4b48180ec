package webservice

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dagman"
	"repro/internal/fits"
	"repro/internal/gridftp"
	"repro/internal/rls"
	"repro/internal/vdl"
)

// stageGarbageImage plants an undecodable image for one galaxy in the cache
// store, registered so staging takes it for already fetched.
func (h *harness) stageGarbageImage(t *testing.T, id string) {
	t.Helper()
	if err := h.ftp.Store("isi").Put(id+".fit", []byte("garbage garbage garbage garbage")); err != nil {
		t.Fatal(err)
	}
	if err := h.r.Register(id+".fit", rls.PFN{Site: "isi", URL: gridftp.URL("isi", id+".fit")}); err != nil {
		t.Fatal(err)
	}
}

// savedCatalog parses the derivation file a journaled run persisted — the
// provenance record re-derivation works from.
func savedCatalog(t *testing.T, dir string) *vdl.Catalog {
	t.Helper()
	text, err := os.ReadFile(filepath.Join(dir, "COMA.vdl"))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := vdl.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestRederiveEqualsLiveJob holds the paper's premise that a derivation is
// the recipe (§3.2, §4.3): re-deriving a product from the persisted VDL
// yields exactly the bytes the live job stored — for a measured galaxy, for
// one flagged invalid, and for the output table (the concatVOT
// re-derivation) — in monolithic and wave mode.
func TestRederiveEqualsLiveJob(t *testing.T) {
	for _, mode := range []struct {
		name     string
		waveSize int
	}{{"monolithic", 0}, {"wave", 3}} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			h := newHarness(t, 7, func(c *Config) { c.JournalDir = dir; c.WaveSize = mode.waveSize })
			tab := h.inputTable(t)
			good, bad := tab.Cell(0, "id"), tab.Cell(1, "id")
			h.stageGarbageImage(t, bad)
			if _, _, err := h.svc.Compute(tab, "COMA"); err != nil {
				t.Fatal(err)
			}
			cat := savedCatalog(t, dir)
			if len(h.r.Lookup(good+".fit")) == 0 {
				// Wave mode evicts a wave's images once its outputs are
				// registered; raw images have no producing derivation, so
				// put the two back the way staging delivered them.
				_, image, err := h.archive.CutoutFITS(good)
				if err != nil {
					t.Fatal(err)
				}
				if err := h.ftp.Store("isi").Put(good+".fit", image); err != nil {
					t.Fatal(err)
				}
				if err := h.r.Register(good+".fit", rls.PFN{Site: "isi", URL: gridftp.URL("isi", good+".fit")}); err != nil {
					t.Fatal(err)
				}
				h.stageGarbageImage(t, bad)
			}

			l := h.leg()
			l.cat = cat
			for _, lfn := range []string{good + ".txt", bad + ".txt", "COMA.vot"} {
				pfns := h.r.Lookup(lfn)
				if len(pfns) == 0 {
					t.Fatalf("%s not registered after the run", lfn)
				}
				site, path, err := gridftp.ParseURL(pfns[0].URL)
				if err != nil {
					t.Fatal(err)
				}
				want, err := h.ftp.Store(site).Get(path)
				if err != nil {
					t.Fatal(err)
				}
				got, err := l.rederive(lfn)
				if err != nil {
					t.Fatalf("rederive %s: %v", lfn, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("re-derived %s differs from what the live job stored:\nlive: %q\nagain: %q", lfn, want, got)
				}
				if lfn == bad+".txt" {
					if r, err := decodeResult(got); err != nil || r.Valid || r.Reason == "" {
						t.Errorf("%s must be flagged invalid with a reason: %+v, %v", lfn, r, err)
					}
				}
			}
			if stats := l.r.status().Stats; stats.Rederived != 3 || stats.InvalidRows != 1 {
				t.Errorf("stats after three re-derivations, one invalid: %+v", stats)
			}
		})
	}
}

// TestRederiveStrictFaultsErrorsLikeLiveJob: under the strict-faults
// ablation a failed measurement fails the live galMorph job and its
// re-derivation with the same underlying error, and neither produces a
// result file.
func TestRederiveStrictFaultsErrorsLikeLiveJob(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 4, func(c *Config) { c.JournalDir = dir; c.StrictFaults = true; c.MaxRetries = 1 })
	tab := h.inputTable(t)
	bad := tab.Cell(0, "id")
	h.stageGarbageImage(t, bad)
	if _, _, err := h.svc.Compute(tab, "COMA"); err == nil {
		t.Fatal("strict-faults run must fail on the corrupt image")
	}
	l := h.leg()
	l.cat = savedCatalog(t, dir)

	// The live body: the planned galMorph node of the bad galaxy, run again.
	g, _, err := dagman.ReadDAGFile(filepath.Join(dir, "COMA.dag"))
	if err != nil {
		t.Fatal(err)
	}
	var liveErr error
	ran := false
	for _, id := range g.Nodes() {
		n, _ := g.Node(id)
		if n.Transformation != "galMorph" || !slices.Equal(n.Inputs, []string{bad + ".fit"}) {
			continue
		}
		spec, err := l.runner()(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		liveErr, ran = spec.Run.Run(), true
	}
	if !ran {
		t.Fatalf("no galMorph node for %s in the saved plan", bad)
	}
	_, againErr := l.rederive(bad + ".txt")

	for name, err := range map[string]error{"live job": liveErr, "re-derivation": againErr} {
		if !errors.Is(err, fits.ErrBadHeader) || !strings.Contains(err.Error(), "header block 0") {
			t.Errorf("%s error = %v, want the measurement's fits.ErrBadHeader", name, err)
		}
	}
	if stats := l.r.status().Stats; stats.InvalidRows != 0 || stats.Rederived != 0 {
		t.Errorf("a strict failure is not an invalid row or a re-derivation: %+v", stats)
	}
	if len(h.r.Lookup(bad+".txt")) != 0 {
		t.Errorf("%s.txt was published despite the strict failure", bad)
	}
}
