package dagman

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/dag"
)

// goldenDAG is the .dag file of the 48-galaxy request TestPlanArtifactsGolden
// (internal/webservice) journals; its hash is pinned there as well.
const (
	goldenDAG    = "testdata/coma48.dag"
	goldenDAGSum = "a161af2c6a89b0e50b5908d645bab638452a504044877deb7be6433620811f85"
)

// TestDAGFileGoldenRewrite: the typed parser and the table-driven writer
// reproduce a real plan file byte for byte.
func TestDAGFileGoldenRewrite(t *testing.T) {
	data, err := os.ReadFile(goldenDAG)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != goldenDAGSum {
		t.Fatalf("%s is not the golden plan file", goldenDAG)
	}
	g, done, err := ReadDAG(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := WriteDAG(&out, g, done); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Errorf("rewritten golden plan differs:\n%s", out.Bytes())
	}
}

// FuzzReadDAG: ReadDAG never panics, and a file it accepts, written back by
// WriteDAG and read again, writes the same bytes. Seeds: the golden 48-galaxy
// plan, a rescue file, and hostile values with DONE markers.
func FuzzReadDAG(f *testing.F) {
	golden, err := os.ReadFile(goldenDAG)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(rescueFile(f))
	var hostile bytes.Buffer
	if err := WriteDAG(&hostile, hostileGraph(f), map[string]bool{"b": true, "c": true}); err != nil {
		f.Fatal(err)
	}
	f.Add(hostile.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		g, done, err := ReadDAG(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteDAG(&once, g, done); err != nil {
			t.Fatal(err)
		}
		g2, done2, err := ReadDAG(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("rewritten file refused: %v\n%s", err, once.Bytes())
		}
		if err := WriteDAG(&twice, g2, done2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("rewrite not stable:\n%s\nvs\n%s", once.Bytes(), twice.Bytes())
		}
	})
}

// rescueFile runs the hostile graph with its compute job failing for good and
// returns the rescue file of that run.
func rescueFile(tb testing.TB) []byte {
	tb.Helper()
	g := hostileGraph(tb)
	sick := func(n *dag.Node, _ int) (Spec, error) {
		return Spec{Cost: time.Second, Run: condor.BodyFunc(func() error {
			if n.Type == dag.TypeCompute {
				return errors.New("sick")
			}
			return nil
		})}, nil
	}
	sim, err := condor.NewSimulator(condor.Pool{Name: "p", Slots: 2})
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := Execute(g, sick, sim, Options{})
	if err != nil || rep.Succeeded() {
		tb.Fatalf("want a failed run, got %+v (%v)", rep, err)
	}
	path := filepath.Join(tb.TempDir(), "wf.rescue.dag")
	if err := WriteRescueFile(path, g, rep); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}
