package dagman

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/dag"
)

func newSim(t testing.TB, pools ...condor.Pool) *condor.Simulator {
	t.Helper()
	if len(pools) == 0 {
		pools = []condor.Pool{{Name: "usc", Slots: 4}, {Name: "wisc", Slots: 4}}
	}
	s, err := condor.NewSimulator(pools...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// chainGraph builds a linear workflow n1 -> n2 -> ... -> nk.
func chainGraph(t testing.TB, k int) *dag.Graph {
	t.Helper()
	g := dag.New()
	for i := 1; i <= k; i++ {
		if err := g.AddNode(&dag.Node{ID: fmt.Sprintf("n%d", i), Type: "compute"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i <= k; i++ {
		if err := g.AddEdge(fmt.Sprintf("n%d", i-1), fmt.Sprintf("n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func unitRunner(order *[]string) Runner {
	return func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: func() error {
			if order != nil {
				*order = append(*order, n.ID)
			}
			return nil
		}}, nil
	}
}

func TestExecuteValidation(t *testing.T) {
	sim := newSim(t)
	g := chainGraph(t, 1)
	if _, err := Execute(nil, unitRunner(nil), sim, Options{}); err == nil {
		t.Error("nil graph must fail")
	}
	if _, err := Execute(g, nil, sim, Options{}); err == nil {
		t.Error("nil runner must fail")
	}
	if _, err := Execute(g, unitRunner(nil), nil, Options{}); err == nil {
		t.Error("nil simulator must fail")
	}
}

func TestExecuteEmptyGraph(t *testing.T) {
	rep, err := Execute(dag.New(), unitRunner(nil), newSim(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() || rep.Done != 0 {
		t.Errorf("empty graph report = %+v", rep)
	}
}

func TestExecuteChainOrderAndMakespan(t *testing.T) {
	var order []string
	g := chainGraph(t, 5)
	rep, err := Execute(g, unitRunner(&order), newSim(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() || rep.Done != 5 {
		t.Fatalf("report = %+v", rep)
	}
	for i, id := range []string{"n1", "n2", "n3", "n4", "n5"} {
		if order[i] != id {
			t.Fatalf("execution order = %v", order)
		}
	}
	// Chain of 5 unit jobs: makespan exactly 5s regardless of slots.
	if rep.Makespan != 5*time.Second {
		t.Errorf("makespan = %v", rep.Makespan)
	}
}

func TestExecuteFanParallelism(t *testing.T) {
	// 8 independent unit jobs on 8 total slots -> makespan 1s.
	g := dag.New()
	for i := 0; i < 8; i++ {
		_ = g.AddNode(&dag.Node{ID: fmt.Sprintf("j%d", i), Type: "compute"})
	}
	rep, err := Execute(g, unitRunner(nil), newSim(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != time.Second {
		t.Errorf("makespan = %v, want 1s", rep.Makespan)
	}
}

func TestRetrySucceedsOnSecondAttempt(t *testing.T) {
	g := chainGraph(t, 2)
	failures := map[string]int{"n1": 1} // n1 fails once then succeeds
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: func() error {
			if failures[n.ID] > 0 {
				failures[n.ID]--
				return errors.New("transient")
			}
			return nil
		}}, nil
	}
	rep, err := Execute(g, runner, newSim(t), Options{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Results["n1"].Attempts != 2 {
		t.Errorf("n1 attempts = %d", rep.Results["n1"].Attempts)
	}
	// Retry costs show in the makespan: n1 ran twice.
	if rep.Makespan != 3*time.Second {
		t.Errorf("makespan = %v, want 3s", rep.Makespan)
	}
}

func TestPermanentFailureMarksDescendantsUnrun(t *testing.T) {
	// Diamond: a -> b, a -> c, b+c -> d; b always fails.
	g := dag.New()
	for _, id := range []string{"a", "b", "c", "d"} {
		_ = g.AddNode(&dag.Node{ID: id, Type: "compute"})
	}
	_ = g.AddEdge("a", "b")
	_ = g.AddEdge("a", "c")
	_ = g.AddEdge("b", "d")
	_ = g.AddEdge("c", "d")

	runner := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: func() error {
			if n.ID == "b" {
				return errors.New("always broken")
			}
			return nil
		}}, nil
	}
	rep, err := Execute(g, runner, newSim(t), Options{MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded() {
		t.Fatal("must not succeed")
	}
	if rep.Results["b"].State != StateFailed || rep.Results["b"].Attempts != 2 {
		t.Errorf("b = %+v", rep.Results["b"])
	}
	if rep.Results["d"].State != StateUnrun {
		t.Errorf("d = %+v", rep.Results["d"])
	}
	// c is independent of b and must still complete.
	if rep.Results["c"].State != StateDone {
		t.Errorf("c = %+v", rep.Results["c"])
	}
	if rep.Done != 2 || rep.Failed != 1 || rep.Unrun != 1 {
		t.Errorf("counts = %+v", rep)
	}

	rescue := rep.RescueDAG(g)
	if rescue.Len() != 2 {
		t.Fatalf("rescue nodes = %v", rescue.Nodes())
	}
	if !rescue.HasEdge("b", "d") {
		t.Error("rescue DAG must keep b -> d")
	}
}

func TestRunnerErrorAborts(t *testing.T) {
	g := chainGraph(t, 2)
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{}, errors.New("no recipe")
	}
	if _, err := Execute(g, runner, newSim(t), Options{}); err == nil {
		t.Error("runner error must abort execution")
	}
}

func TestSitePinnedExecution(t *testing.T) {
	g := chainGraph(t, 3)
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Site: "wisc", Cost: time.Second, Run: func() error { return nil }}, nil
	}
	rep, err := Execute(g, runner, newSim(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, res := range rep.Results {
		if res.Site != "wisc" {
			t.Errorf("%s ran at %s", id, res.Site)
		}
	}
}

func TestRetryOnDifferentSite(t *testing.T) {
	// The runner can steer retries away from a site it saw fail.
	g := dag.New()
	_ = g.AddNode(&dag.Node{ID: "job", Type: "compute"})
	var sites []string
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		site := "usc"
		if attempt > 1 {
			site = "wisc"
		}
		return Spec{Site: site, Cost: time.Second, Run: func() error {
			sites = append(sites, site)
			if site == "usc" {
				return errors.New("usc broken")
			}
			return nil
		}}, nil
	}
	rep, err := Execute(g, runner, newSim(t), Options{MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() {
		t.Fatalf("report = %+v", rep.Results["job"])
	}
	if len(sites) != 2 || sites[1] != "wisc" {
		t.Errorf("sites = %v", sites)
	}
	if rep.Results["job"].Site != "wisc" {
		t.Errorf("final site = %s", rep.Results["job"].Site)
	}
}

func TestCyclicGraphRejected(t *testing.T) {
	g := chainGraph(t, 2)
	// A cycle cannot be built through the public API; simulate a corrupted
	// graph by checking that Execute surfaces TopoSort's error path with a
	// self-made graph is impossible — instead verify Execute accepts only
	// DAGs by construction. Nothing to do here beyond the validation test.
	if _, err := g.TopoSort(); err != nil {
		t.Fatal("chain must be acyclic")
	}
}

func TestWideWorkflowThroughput(t *testing.T) {
	// 100 independent jobs, 8 slots -> makespan = ceil(100/8) seconds.
	g := dag.New()
	for i := 0; i < 100; i++ {
		_ = g.AddNode(&dag.Node{ID: fmt.Sprintf("j%03d", i), Type: "compute"})
	}
	rep, err := Execute(g, unitRunner(nil), newSim(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 13*time.Second {
		t.Errorf("makespan = %v, want 13s", rep.Makespan)
	}
}

func TestNodeStateString(t *testing.T) {
	for s, want := range map[NodeState]string{
		StatePending: "pending", StateRunning: "running", StateDone: "done",
		StateFailed: "failed", StateUnrun: "unrun", NodeState(42): "NodeState(42)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func BenchmarkExecuteGalaxyFan561(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := dag.New()
		_ = g.AddNode(&dag.Node{ID: "concat", Type: "compute"})
		for j := 0; j < 561; j++ {
			id := fmt.Sprintf("m%d", j)
			_ = g.AddNode(&dag.Node{ID: id, Type: "compute"})
			_ = g.AddEdge(id, "concat")
		}
		sim, err := condor.NewSimulator(
			condor.Pool{Name: "usc", Slots: 20},
			condor.Pool{Name: "wisc", Slots: 30},
			condor.Pool{Name: "fnal", Slots: 20},
		)
		if err != nil {
			b.Fatal(err)
		}
		runner := func(n *dag.Node, attempt int) (Spec, error) {
			return Spec{Cost: 4 * time.Second}, nil
		}
		rep, err := Execute(g, runner, sim, Options{})
		if err != nil || !rep.Succeeded() {
			b.Fatalf("rep=%+v err=%v", rep, err)
		}
	}
}

func TestMaxInFlightThrottle(t *testing.T) {
	// 12 independent unit jobs, 8 slots available, but DAGMan throttled to
	// 3 in-flight: makespan = ceil(12/3) = 4s and observed concurrency
	// never exceeds 3.
	g := dag.New()
	for i := 0; i < 12; i++ {
		_ = g.AddNode(&dag.Node{ID: fmt.Sprintf("j%02d", i), Type: "compute"})
	}
	sim := newSim(t) // 8 slots total
	maxSeen := 0
	inFlight := 0
	rep, err := Execute(g, unitRunner(nil), sim, Options{
		MaxInFlight: func() int { return 3 },
		Monitor: func(e Event) {
			switch e.Kind {
			case EventSubmitted:
				inFlight++
				if inFlight > maxSeen {
					maxSeen = inFlight
				}
			case EventCompleted, EventFailed:
				inFlight--
			}
		},
	})
	if err != nil || !rep.Succeeded() {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	if maxSeen > 3 {
		t.Errorf("in-flight peaked at %d, cap was 3", maxSeen)
	}
	if rep.Makespan != 4*time.Second {
		t.Errorf("makespan = %v, want 4s", rep.Makespan)
	}
}

func TestMaxInFlightWithRetries(t *testing.T) {
	g := chainGraph(t, 4)
	failuresLeft := map[string]int{"n2": 1, "n3": 1}
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: func() error {
			if failuresLeft[n.ID] > 0 {
				failuresLeft[n.ID]--
				return errors.New("flaky")
			}
			return nil
		}}, nil
	}
	rep, err := Execute(g, runner, newSim(t), Options{MaxRetries: 2, MaxInFlight: func() int { return 1 }})
	if err != nil || !rep.Succeeded() {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	if rep.Makespan != 6*time.Second { // 4 jobs + 2 retries, serialized
		t.Errorf("makespan = %v, want 6s", rep.Makespan)
	}
}

func TestEventRetriedStream(t *testing.T) {
	g := chainGraph(t, 1)
	attempts := 0
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: func() error {
			attempts++
			if attempts < 3 {
				return fmt.Errorf("flaky attempt %d", attempts)
			}
			return nil
		}}, nil
	}
	var events []Event
	rep, err := Execute(g, runner, newSim(t), Options{
		MaxRetries: 3,
		Monitor:    func(e Event) { events = append(events, e) },
	})
	if err != nil || !rep.Succeeded() {
		t.Fatalf("rep = %+v, err = %v", rep, err)
	}
	var kinds []EventKind
	var retried []Event
	for _, e := range events {
		kinds = append(kinds, e.Kind)
		if e.Kind == EventRetried {
			retried = append(retried, e)
		}
	}
	want := []EventKind{EventSubmitted, EventRetried, EventSubmitted,
		EventRetried, EventSubmitted, EventCompleted}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (stream %v)", i, kinds[i], want[i], kinds)
		}
	}
	// Retried events carry the failing attempt's number, error and site —
	// enough for a monitor to distinguish a retry from a fresh submission.
	for i, e := range retried {
		if e.Attempt != i+1 || e.Err == nil || e.Node != "n1" || e.Site == "" {
			t.Errorf("retried event %d incomplete: %+v", i, e)
		}
	}
	if EventRetried.String() != "retried" {
		t.Errorf("EventRetried.String() = %q", EventRetried.String())
	}
}

func TestRescueDAGEdgeCases(t *testing.T) {
	// Empty graph: empty report, empty rescue.
	empty := dag.New()
	rep, err := Execute(empty, unitRunner(nil), newSim(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.RescueDAG(empty); r.Len() != 0 {
		t.Errorf("empty graph rescue has %d nodes", r.Len())
	}

	// Every node failed or unrun: the rescue is the whole workflow with its
	// edges intact.
	g := chainGraph(t, 3)
	failing := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: func() error { return errors.New("x") }}, nil
	}
	rep, err = Execute(g, failing, newSim(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rescue := rep.RescueDAG(g)
	if rescue.Len() != 3 {
		t.Fatalf("all-failed rescue has %d nodes, want 3", rescue.Len())
	}
	if c := rescue.Children("n1"); len(c) != 1 || c[0] != "n2" {
		t.Errorf("rescue lost edge n1->n2: children = %v", c)
	}
	if c := rescue.Children("n2"); len(c) != 1 || c[0] != "n3" {
		t.Errorf("rescue lost edge n2->n3: children = %v", c)
	}

	// No node failed: the rescue is empty.
	rep, err = Execute(g, unitRunner(nil), newSim(t), Options{})
	if err != nil || !rep.Succeeded() {
		t.Fatalf("rep = %+v, err = %v", rep, err)
	}
	if r := rep.RescueDAG(g); r.Len() != 0 {
		t.Errorf("all-done rescue has %d nodes", r.Len())
	}
}
