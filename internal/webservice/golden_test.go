package webservice

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/pegasus"
)

// handlerTransport answers every request from an http.Handler in process, so
// the archive has a fixed host name (an httptest.Server picks a port per run,
// and the wave manifest records each galaxy's access URL).
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// Planning artifacts of a journaled 48-galaxy request (sky seed 11, service
// seed 5), produced at the commit before planning stopped going through VDL
// text (8fbfcb3) and unchanged since: the plan, the files a resume reads and
// the journal DAGMan writes are functions of the request alone, whatever
// builds them.
var goldenArtifacts = map[string]map[string]string{
	"monolithic": {
		".vdl":    "048e2bcca4b86b6e0b8b0381c0a0bca0dace62face027867883e1779fb466e50",
		".dag":    "a161af2c6a89b0e50b5908d645bab638452a504044877deb7be6433620811f85",
		"journal": "ecc95e815d52b1596e621aed8c594faf28bc9b540b37d9fbdd2c803424d60bf5",
	},
	"wave": {
		".vdl":    "048e2bcca4b86b6e0b8b0381c0a0bca0dace62face027867883e1779fb466e50",
		".waves":  "f7ce781661aeebe56f73e3bf8206a568170b1abd8bd0ccfb83b7c512585fa0ef",
		"journal": "d3addad2c17091b15273bf8f0e54762ad6d9eaa70478558d5aa415e0508c6a9e",
	},
}

// TestPlanArtifactsGolden pins "the plan did not change" as hashes instead of
// a sentence in CHANGES.md: the persisted .vdl and .dag (monolithic) or .vdl
// and .waves (wave mode) byte for byte, and the journal's (kind, node,
// attempt, at) sequence.
func TestPlanArtifactsGolden(t *testing.T) {
	for mode, want := range goldenArtifacts {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			h := newHarness(t, 48, func(c *Config) {
				c.JournalDir = dir
				if mode == "wave" {
					c.WaveSize = 16
				}
			})
			h.svc.cfg.HTTPClient = &http.Client{Transport: handlerTransport{h.archive.Handler()}}
			h.archSrv.URL = "http://archive.test"
			if _, _, err := h.svc.Compute(h.inputTable(t), "COMA"); err != nil {
				t.Fatal(err)
			}

			got := map[string]string{}
			for ext := range want {
				if ext == "journal" {
					continue
				}
				data, err := os.ReadFile(filepath.Join(dir, "COMA"+ext))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				got[ext] = hex.EncodeToString(sum[:])
			}
			recs, truncated, err := journal.Replay(filepath.Join(dir, "COMA.journal"))
			if err != nil || truncated {
				t.Fatalf("journal: truncated=%v err=%v", truncated, err)
			}
			seq := sha256.New()
			for _, r := range recs {
				fmt.Fprintf(seq, "%s\t%s\t%d\t%d\n", r.Kind, r.Node, r.Attempt, r.At)
			}
			got["journal"] = hex.EncodeToString(seq.Sum(nil))

			for name, sum := range want {
				if got[name] != sum {
					t.Errorf("%s %s: sha256 %s, want %s", mode, name, got[name], sum)
				}
			}
		})
	}
}

// TestSubmitFilesGolden pins the plan's two other text renderings — the
// Condor-G submit files and the DAGMan JOB/PARENT file (Figure 2, steps 9–11)
// — for the monolithic request TestPlanArtifactsGolden journals. The hashes
// were taken at 9b4d104, when nodes still carried their payload as a string
// map.
func TestSubmitFilesGolden(t *testing.T) {
	const (
		wantSubmit = "3e3b3aca29b96a4011b0d95176642a524ca7c2943a7659376ab9c6d063cd6605"
		wantDAG    = "71d3743196fe1c446593616ab372279970a22169c790e67a210c657fa50c24df"
	)
	h := newHarness(t, 48, nil)
	h.svc.cfg.HTTPClient = &http.Client{Transport: handlerTransport{h.archive.Handler()}}
	h.archSrv.URL = "http://archive.test"
	dvs, err := newDerivations(h.inputTable(t), "COMA")
	if err != nil {
		t.Fatal(err)
	}
	src, err := h.leg().freshSource(dvs)
	if err != nil {
		t.Fatal(err)
	}
	g, err := src.next(0)
	if err != nil {
		t.Fatal(err)
	}
	plan := &pegasus.Plan{Concrete: g}
	submit := sha256.New()
	for _, f := range plan.SubmitFiles() {
		fmt.Fprintf(submit, "%s\n%s", f.Node, f.Text)
	}
	dagText := sha256.Sum256([]byte(plan.DAGFile("COMA")))
	if got := hex.EncodeToString(submit.Sum(nil)); got != wantSubmit {
		t.Errorf("submit files: sha256 %s, want %s", got, wantSubmit)
	}
	if got := hex.EncodeToString(dagText[:]); got != wantDAG {
		t.Errorf("DAGMan file: sha256 %s, want %s", got, wantDAG)
	}
}
