package dagman

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/dag"
	"repro/internal/journal"
)

// hostileGraph holds hostile IDs and values on real keys of real node types:
// spaces, quotes, newlines, tabs, unicode.
func hostileGraph(t testing.TB) *dag.Graph {
	t.Helper()
	g := dag.New()
	a := &dag.Node{ID: `tx a "quoted"`, Type: dag.TypeTransfer,
		SrcURL: "gsiftp://x/ y", DstURL: "gsiftp://z/line\nbreak", LFN: `say "hi".fit`}
	b := &dag.Node{ID: "b", Type: dag.TypeCompute, Transformation: "galMorph", Derivation: "b",
		Site: "isi", Executable: "/bin/galMorph", Inputs: []string{"ngc–4321.fit", "tab\there.fit"},
		Outputs: []string{"ngc–4321.txt"}}
	// A compute job with no inputs still writes its empty inputs line.
	c := &dag.Node{ID: "c", Type: dag.TypeCompute, Transformation: "seed", Derivation: "c",
		Site: "isi", Executable: "/bin/seed", Outputs: []string{"s.txt"}}
	r := &dag.Node{ID: "reg", Type: dag.TypeRegister, LFN: "ngc–4321.txt", Site: "isi", PFN: "gsiftp://isi/ngc–4321.txt"}
	for _, n := range []*dag.Node{a, b, c, r} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{a.ID, "b"}, {"b", "reg"}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestDAGFileRoundTripAttrs(t *testing.T) {
	g := hostileGraph(t)
	path := filepath.Join(t.TempDir(), "wf.dag")
	if err := WriteDAGFile(path, g, map[string]bool{"b": true}); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "ATTR \"c\" \"inputs\" \"\"\n") {
		t.Errorf("no empty inputs line for c:\n%s", text)
	}
	loaded, done, err := ReadDAGFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, loaded, g)
	if !done["b"] || len(done) != 1 {
		t.Errorf("done = %v, want {b}", done)
	}
}

// TestDAGFileLongLine: the reader takes any line the writer writes. A
// 350,000-input collector of 12-byte LFNs is a 4.55 MB inputs line, past the
// 4 MiB a bufio.Scanner line used to be capped at.
func TestDAGFileLongLine(t *testing.T) {
	const n = 350000
	inputs := make([]string, n)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("g%06d.txt", i)
	}
	g := dag.New()
	collect := &dag.Node{ID: "collect", Type: dag.TypeCompute, Transformation: "concatVOT", Derivation: "collect",
		Site: "isi", Executable: "/bin/concat", Inputs: inputs, Outputs: []string{"out.vot"}}
	if err := g.AddNode(collect); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wf.dag")
	if err := WriteDAGFile(path, g, nil); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() <= 4<<20 {
		t.Fatalf("file of %v bytes (%v) does not hold a line over 4 MiB", fi.Size(), err)
	}
	loaded, _, err := ReadDAGFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, loaded, g)
}

// TestSplitLFNs: the parser's split is the exact inverse of the comma join of
// LFNs that are never empty; anything else is refused.
func TestSplitLFNs(t *testing.T) {
	for in, want := range map[string][]string{
		"":      nil,
		"a":     {"a"},
		"a,b,c": {"a", "b", "c"},
	} {
		if got, err := splitLFNs(in); err != nil || !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Errorf("splitLFNs(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, in := range []string{"a,,b", "trail,", ",lead", ","} {
		if got, err := splitLFNs(in); err == nil {
			t.Errorf("splitLFNs(%q) = %q, want an error", in, got)
		}
	}
}

func TestDAGFileDeterministic(t *testing.T) {
	g := chainGraph(t, 5)
	var a, b strings.Builder
	if err := WriteDAG(&a, g, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteDAG(&b, g, nil); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("serialization is not deterministic")
	}
}

func TestDAGFileRejectsGarbage(t *testing.T) {
	for name, text := range map[string]string{
		"empty":             "",
		"bad header":        "DAGFILE v9\n",
		"unknown op":        "DAGFILE v1\nBLURB \"x\"\n",
		"edge no node":      "DAGFILE v1\nEDGE \"a\" \"b\"\n",
		"attr no node":      "DAGFILE v1\nATTR \"a\" \"k\" \"v\"\n",
		"done no node":      "DAGFILE v1\nDONE \"a\"\n",
		"unquoted":          "DAGFILE v1\nNODE a compute\n",
		"torn quote":        "DAGFILE v1\nNODE \"a\n",
		"dup node":          "DAGFILE v1\nNODE \"a\" \"x\"\nNODE \"a\" \"x\"\n",
		"key of other type": "DAGFILE v1\nNODE \"a\" \"transfer\"\nATTR \"a\" \"site\" \"isi\"\n",
		"attr of no type":   "DAGFILE v1\nNODE \"a\" \"galmorph\"\nATTR \"a\" \"lfn\" \"x\"\n",
		"empty LFN":         "DAGFILE v1\nNODE \"a\" \"compute\"\nATTR \"a\" \"inputs\" \"x,,y\"\n",
		"trailing comma":    "DAGFILE v1\nNODE \"a\" \"job\"\nATTR \"a\" \"outputs\" \"x,\"\n",
	} {
		if _, _, err := ReadDAG(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// journalFor runs Execute over a chain with a journal writer and returns the
// journal path.
func journalFor(t *testing.T, sink journal.Sink, opt Options) (*Report, error) {
	t.Helper()
	g := chainGraph(t, 4)
	sim, err := condor.NewSimulator(condor.Pool{Name: "p", Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = sink
	return Execute(g, unitRunner(nil), sim, opt)
}

func TestExecuteJournalsEveryTransition(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.journal")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journalFor(t, w, Options{})
	if err != nil || !rep.Succeeded() {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	w.Close()
	recs, truncated, err := journal.Replay(path)
	if err != nil || truncated {
		t.Fatalf("replay: %v truncated=%t", err, truncated)
	}
	// 4 nodes, no faults: 4 submitted + 4 completed.
	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r.Kind]++
	}
	if kinds[journal.KindSubmitted] != 4 || kinds[journal.KindCompleted] != 4 {
		t.Errorf("journal kinds = %v", kinds)
	}
	done := journal.CompletedNodes(recs)
	for _, id := range []string{"n1", "n2", "n3", "n4"} {
		if !done[id] {
			t.Errorf("%s not recorded done", id)
		}
	}
}

func TestExecuteJournalsRetryAndFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.journal")
	w, _ := journal.Create(path)
	g := chainGraph(t, 2)
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: condor.BodyFunc(func() error {
			if n.ID == "n1" {
				return errors.New("dead disk")
			}
			return nil
		})}, nil
	}
	sim, _ := condor.NewSimulator(condor.Pool{Name: "p", Slots: 1})
	rep, err := Execute(g, runner, sim, Options{MaxRetries: 1, Journal: w})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded() {
		t.Fatal("must fail")
	}
	w.Close()
	recs, _, _ := journal.Replay(path)
	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r.Kind]++
		if (r.Kind == journal.KindRetried || r.Kind == journal.KindFailed) && r.Err == "" {
			t.Errorf("%s record lost its error", r.Kind)
		}
	}
	if kinds[journal.KindRetried] != 1 || kinds[journal.KindFailed] != 1 {
		t.Errorf("journal kinds = %v", kinds)
	}
	if done := journal.CompletedNodes(recs); len(done) != 0 {
		t.Errorf("failed chain recorded completions: %v", done)
	}
}

func TestExecuteRestoresCompleted(t *testing.T) {
	g := chainGraph(t, 3)
	var order []string
	sim, _ := condor.NewSimulator(condor.Pool{Name: "p", Slots: 2})
	sink := &countSink{}
	rep, err := Execute(g, unitRunner(&order), sim, Options{
		Completed: map[string]bool{"n1": true, "ghost": true},
		Journal:   sink,
	})
	if err != nil || !rep.Succeeded() {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	var restored []string
	for _, r := range sink.recs {
		if r.Kind == journal.KindRestored {
			restored = append(restored, r.Node)
		}
	}
	if len(restored) != 1 || rep.Done != 3 {
		t.Errorf("restored=%d done=%d, want 1 and 3", len(restored), rep.Done)
	}
	if len(order) != 2 || order[0] != "n2" || order[1] != "n3" {
		t.Errorf("executed %v, want only [n2 n3]", order)
	}
	if result(t, rep, "n1").Attempts != 0 {
		t.Errorf("restored node re-ran: %+v", result(t, rep, "n1"))
	}
	if len(restored) != 1 || restored[0] != "n1" {
		t.Errorf("restored events = %v", restored)
	}
}

func TestExecuteCheckAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wf.journal")
	w, _ := journal.Create(path)
	calls := 0
	cancelled := errors.New("request abandoned")
	_, err := journalFor(t, w, Options{Check: func() error {
		calls++
		if calls > 2 {
			return cancelled
		}
		return nil
	}})
	if !errors.Is(err, ErrAborted) || !errors.Is(err, cancelled) {
		t.Fatalf("err = %v, want ErrAborted wrapping the cause", err)
	}
	w.Close()
	recs, _, _ := journal.Replay(path)
	if len(recs) == 0 || recs[len(recs)-1].Kind != journal.KindAborted {
		t.Errorf("journal must end with an abort record: %+v", recs)
	}
}

func TestExecuteCrashThenResumeRunsOnlyUnfinished(t *testing.T) {
	// Sweep the kill point over every journal-append boundary: for each, the
	// crashed run aborts, and a resume restores exactly the journaled
	// completions and executes only the rest.
	const n = 5
	// An uninterrupted run journals 2*n records (submit+complete per node).
	for kill := 1; kill < 2*n; kill++ {
		path := filepath.Join(t.TempDir(), "wf.journal")
		w, err := journal.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		crash := &journal.CrashSink{Sink: w, After: kill}
		g := chainGraph(t, n)
		sim, _ := condor.NewSimulator(condor.Pool{Name: "p", Slots: 1})
		_, err = Execute(g, unitRunner(nil), sim, Options{Journal: crash})
		if !errors.Is(err, ErrAborted) || !errors.Is(err, journal.ErrCrash) {
			t.Fatalf("kill=%d: err = %v, want aborted crash", kill, err)
		}
		w.Close()

		recs, _, err := journal.Replay(path)
		if err != nil {
			t.Fatalf("kill=%d: %v", kill, err)
		}
		done := journal.CompletedNodes(recs)

		w2, _, err := journal.OpenAppend(path)
		if err != nil {
			t.Fatalf("kill=%d: %v", kill, err)
		}
		var order []string
		g2 := chainGraph(t, n)
		sim2, _ := condor.NewSimulator(condor.Pool{Name: "p", Slots: 1})
		rep, err := Execute(g2, unitRunner(&order), sim2, Options{Journal: w2, Completed: done})
		if err != nil || !rep.Succeeded() {
			t.Fatalf("kill=%d: resume rep=%+v err=%v", kill, rep, err)
		}
		w2.Close()
		all, _, err := journal.Replay(path)
		if err != nil {
			t.Fatalf("kill=%d: %v", kill, err)
		}
		restored := 0
		for _, r := range all {
			if r.Kind == journal.KindRestored {
				restored++
			}
		}
		if restored != len(done) {
			t.Errorf("kill=%d: restored %d, journal said %d", kill, restored, len(done))
		}
		// Only the non-done prefix re-executed.
		if len(order)+len(done) != n {
			t.Errorf("kill=%d: executed %v with %d restored", kill, order, len(done))
		}
		for _, id := range order {
			if done[id] {
				t.Errorf("kill=%d: re-executed completed node %s", kill, id)
			}
		}
	}
}
