package dagman

import (
	"errors"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/dag"
	"repro/internal/journal"
)

func freshSim(t testing.TB) func() (*condor.Simulator, error) {
	t.Helper()
	return func() (*condor.Simulator, error) {
		return condor.NewSimulator(condor.Pool{Name: "p", Slots: 4})
	}
}

func TestExecuteWithRescueRecovers(t *testing.T) {
	// b fails in round 1 (all attempts), succeeds in round 2.
	g := chainGraph(t, 3) // n1 -> n2 -> n3
	failuresLeft := 2     // MaxRetries=1 gives 2 attempts per round
	round, rescued := 0, map[string]bool{}
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		if round == 2 {
			rescued[n.ID] = true
		}
		return Spec{Cost: time.Second, Run: condor.BodyFunc(func() error {
			if n.ID == "n2" && failuresLeft > 0 {
				failuresLeft--
				return errors.New("flaky")
			}
			return nil
		})}, nil
	}
	newSim := func() (*condor.Simulator, error) {
		round++
		return freshSim(t)()
	}
	rep, err := ExecuteWithRescue(g, runner, newSim, Options{MaxRetries: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1's rescue DAG is exactly the failed node and its unrun
	// descendant: round 2 runs n2 and n3, never the completed n1.
	if want := map[string]bool{"n2": true, "n3": true}; round != 2 || !reflect.DeepEqual(rescued, want) {
		t.Errorf("%d rounds; round 2 ran %v, want %v", round, rescued, want)
	}
	if !rep.Succeeded() {
		t.Fatalf("report = done %d failed %d unrun %d", rep.Done, rep.Failed, rep.Unrun)
	}
	// n2 ran twice in round 1 and once in round 2.
	if result(t, rep, "n2").Attempts != 3 {
		t.Errorf("n2 attempts = %d, want 3", result(t, rep, "n2").Attempts)
	}
	// n1 completed in round 1 and must not have re-run.
	if result(t, rep, "n1").Attempts != 1 {
		t.Errorf("n1 attempts = %d, want 1", result(t, rep, "n1").Attempts)
	}
	// n3 was unrun in round 1 and completed in round 2.
	if result(t, rep, "n3").State != StateDone {
		t.Errorf("n3 = %+v", result(t, rep, "n3"))
	}
	if rep.Makespan <= 0 {
		t.Error("makespan must accumulate across rounds")
	}
}

func TestExecuteWithRescueGivesUp(t *testing.T) {
	g := chainGraph(t, 2)
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: condor.BodyFunc(func() error {
			if n.ID == "n1" {
				return errors.New("permanently broken")
			}
			return nil
		})}, nil
	}
	rep, err := ExecuteWithRescue(g, runner, freshSim(t), Options{MaxRetries: 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded() {
		t.Fatal("must not succeed")
	}
	if result(t, rep, "n1").State != StateFailed || result(t, rep, "n2").State != StateUnrun {
		t.Errorf("states: n1=%v n2=%v", result(t, rep, "n1").State, result(t, rep, "n2").State)
	}
	// 1 initial + 3 rescue rounds = 4 attempts.
	if result(t, rep, "n1").Attempts != 4 {
		t.Errorf("n1 attempts = %d, want 4", result(t, rep, "n1").Attempts)
	}
}

func TestExecuteWithRescueZeroRounds(t *testing.T) {
	g := chainGraph(t, 1)
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: condor.BodyFunc(func() error { return errors.New("x") })}, nil
	}
	rep, err := ExecuteWithRescue(g, runner, freshSim(t), Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded() || result(t, rep, "n1").Attempts != 1 {
		t.Errorf("zero rounds must behave like Execute: %+v", result(t, rep, "n1"))
	}
}

func TestExecuteWithRescueNilFactory(t *testing.T) {
	if _, err := ExecuteWithRescue(chainGraph(t, 1), unitRunner(nil), nil, Options{}, 1); err == nil {
		t.Error("nil factory must fail")
	}
}

func TestMonitorEvents(t *testing.T) {
	g := chainGraph(t, 2)
	failuresLeft := 1
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: condor.BodyFunc(func() error {
			if n.ID == "n1" && failuresLeft > 0 {
				failuresLeft--
				return errors.New("flaky")
			}
			return nil
		})}, nil
	}
	sink := &countSink{}
	sim, err := condor.NewSimulator(condor.Pool{Name: "p", Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(g, runner, sim, Options{MaxRetries: 2, Journal: sink})
	if err != nil || !rep.Succeeded() {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	// n1 submitted, retried, submitted, completed; n2 submitted, completed.
	kinds := map[string]int{}
	for _, r := range sink.recs {
		kinds[r.Kind]++
	}
	if kinds[journal.KindSubmitted] != 3 || kinds[journal.KindRetried] != 1 || kinds[journal.KindCompleted] != 2 {
		t.Errorf("record counts = %v (records: %+v)", kinds, sink.recs)
	}
	// Records carry monotone model times.
	last := time.Duration(-1)
	for _, r := range sink.recs {
		if r.At < last {
			t.Errorf("record times not monotone: %+v", sink.recs)
			break
		}
		last = r.At
	}
}

func TestMonitorFailedEvent(t *testing.T) {
	g := chainGraph(t, 1)
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: condor.BodyFunc(func() error { return errors.New("x") })}, nil
	}
	sink := &countSink{}
	sim, _ := condor.NewSimulator(condor.Pool{Name: "p", Slots: 1})
	if _, err := Execute(g, runner, sim, Options{Journal: sink}); err != nil {
		t.Fatal(err)
	}
	var failed int
	for _, r := range sink.recs {
		if r.Kind == journal.KindFailed {
			failed++
			if r.Err == "" {
				t.Error("failed record must carry the error")
			}
		}
	}
	if failed != 1 {
		t.Errorf("failed records = %d", failed)
	}
}

// sameGraph compares two graphs structurally: node set, typed nodes (a nil and
// an empty LFN list are the same list), and edges.
func sameGraph(t *testing.T, got, want *dag.Graph) {
	t.Helper()
	gotIDs, wantIDs := got.Nodes(), want.Nodes()
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("node count %d, want %d (%v vs %v)", len(gotIDs), len(wantIDs), gotIDs, wantIDs)
	}
	for i, id := range wantIDs {
		if gotIDs[i] != id {
			t.Fatalf("nodes %v, want %v", gotIDs, wantIDs)
		}
		gn, _ := got.Node(id)
		wn, _ := want.Node(id)
		g, w := *gn, *wn
		if !slices.Equal(g.Inputs, w.Inputs) || !slices.Equal(g.Outputs, w.Outputs) {
			t.Errorf("node %s files %v -> %v, want %v -> %v", id, g.Inputs, g.Outputs, w.Inputs, w.Outputs)
		}
		g.Inputs, g.Outputs, w.Inputs, w.Outputs = nil, nil, nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("node %s = %+v, want %+v", id, g, w)
		}
		gc, wc := got.Children(id), want.Children(id)
		if len(gc) != len(wc) {
			t.Fatalf("node %s children %v, want %v", id, gc, wc)
		}
		for j := range wc {
			if gc[j] != wc[j] {
				t.Fatalf("node %s children %v, want %v", id, gc, wc)
			}
		}
	}
}

// rescueRoundTrip serializes the report's rescue DAG, reloads it, and checks
// it equals the in-memory one.
func rescueRoundTrip(t *testing.T, g *dag.Graph, rep *Report) *dag.Graph {
	t.Helper()
	mem := rep.RescueDAG(g)
	path := filepath.Join(t.TempDir(), "rescue.dag")
	if err := WriteRescueFile(path, g, rep); err != nil {
		t.Fatal(err)
	}
	loaded, done, err := ReadDAGFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Errorf("rescue file carries DONE markers: %v", done)
	}
	sameGraph(t, loaded, mem)
	return loaded
}

func TestRescueRoundTripEmpty(t *testing.T) {
	// Fully successful run: the rescue DAG is empty, and so is its file twin.
	g := chainGraph(t, 3)
	sim, _ := condor.NewSimulator(condor.Pool{Name: "p", Slots: 2})
	rep, err := Execute(g, unitRunner(nil), sim, Options{})
	if err != nil || !rep.Succeeded() {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	loaded := rescueRoundTrip(t, g, rep)
	if loaded.Len() != 0 {
		t.Errorf("empty rescue reloaded with %d nodes", loaded.Len())
	}
}

func TestRescueRoundTripAllFailed(t *testing.T) {
	// Root fails permanently: every node is failed or unrun, so the rescue
	// DAG is the whole graph — and resuming it with a healed runner finishes.
	g := chainGraph(t, 4)
	broken := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: condor.BodyFunc(func() error { return errors.New("dead") })}, nil
	}
	sim, _ := condor.NewSimulator(condor.Pool{Name: "p", Slots: 2})
	rep, err := Execute(g, broken, sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded() {
		t.Fatal("must fail")
	}
	loaded := rescueRoundTrip(t, g, rep)
	sameGraph(t, loaded, g)

	sim2, _ := condor.NewSimulator(condor.Pool{Name: "p", Slots: 2})
	var order []string
	rep2, err := Execute(loaded, unitRunner(&order), sim2, Options{})
	if err != nil || !rep2.Succeeded() {
		t.Fatalf("resume rep=%+v err=%v", rep2, err)
	}
	if len(order) != 4 {
		t.Errorf("resume executed %v, want all 4 nodes", order)
	}
}

func TestRescueRoundTripPartial(t *testing.T) {
	// n2 of n1->n2->n3->n4 fails: the rescue DAG is {n2,n3,n4}, resuming the
	// reloaded file with a healed runner completes exactly those nodes.
	g := chainGraph(t, 4)
	sick := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: condor.BodyFunc(func() error {
			if n.ID == "n2" {
				return errors.New("sick")
			}
			return nil
		})}, nil
	}
	sim, _ := condor.NewSimulator(condor.Pool{Name: "p", Slots: 2})
	rep, err := Execute(g, sick, sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loaded := rescueRoundTrip(t, g, rep)
	wantNodes := []string{"n2", "n3", "n4"}
	gotNodes := loaded.Nodes()
	if len(gotNodes) != len(wantNodes) {
		t.Fatalf("rescue nodes %v, want %v", gotNodes, wantNodes)
	}
	for i := range wantNodes {
		if gotNodes[i] != wantNodes[i] {
			t.Fatalf("rescue nodes %v, want %v", gotNodes, wantNodes)
		}
	}

	sim2, _ := condor.NewSimulator(condor.Pool{Name: "p", Slots: 2})
	var order []string
	rep2, err := Execute(loaded, unitRunner(&order), sim2, Options{})
	if err != nil || !rep2.Succeeded() {
		t.Fatalf("resume rep=%+v err=%v", rep2, err)
	}
	if len(order) != 3 || order[0] != "n2" {
		t.Errorf("resume executed %v, want [n2 n3 n4]", order)
	}
}
