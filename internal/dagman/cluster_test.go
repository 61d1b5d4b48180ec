package dagman

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/dag"
	"repro/internal/journal"
)

// fanGraph builds k independent leaf nodes — the galMorph layer's shape.
func fanGraph(t testing.TB, k int) *dag.Graph {
	t.Helper()
	g := dag.New()
	for i := 0; i < k; i++ {
		if err := g.AddNode(&dag.Node{ID: fmt.Sprintf("leaf%03d", i), Type: "compute"}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// countSink records every journal entry in memory.
type countSink struct{ recs []journal.Record }

func (c *countSink) Append(r journal.Record) error {
	c.recs = append(c.recs, r)
	return nil
}

// clusterRunner marks every node clusterable at one site and counts how many
// times each node's Run executed.
func clusterRunner(runs map[string]int, failOnce map[string]bool) Runner {
	return func(n *dag.Node, attempt int) (Spec, error) {
		id := n.ID
		return Spec{Site: "usc", Cost: time.Second, ClusterKey: "leaf", Run: condor.BodyFunc(func() error {
			runs[id]++
			if failOnce[id] && runs[id] == 1 {
				return errors.New("transient fault")
			}
			return nil
		})}, nil
	}
}

func TestClusteringReducesScheduleEvents(t *testing.T) {
	const k = 32
	for _, tc := range []struct {
		clusterSize int
		wantEvents  int
	}{
		{clusterSize: 0, wantEvents: k},  // legacy: one task per node
		{clusterSize: 16, wantEvents: 2}, // 32 nodes / 16 per batch
	} {
		g := fanGraph(t, k)
		runs := map[string]int{}
		sim := newSim(t, condor.Pool{Name: "usc", Slots: 4})
		rep, err := Execute(g, clusterRunner(runs, nil), sim, Options{ClusterSize: tc.clusterSize})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Succeeded() || rep.Done != k {
			t.Fatalf("clusterSize=%d: report %+v", tc.clusterSize, rep)
		}
		if rep.ScheduleEvents != tc.wantEvents {
			t.Errorf("clusterSize=%d: %d schedule events, want %d",
				tc.clusterSize, rep.ScheduleEvents, tc.wantEvents)
		}
		for id, n := range runs {
			if n != 1 {
				t.Errorf("clusterSize=%d: node %s ran %d times, want 1", tc.clusterSize, id, n)
			}
		}
		if len(runs) != k {
			t.Errorf("clusterSize=%d: %d nodes ran, want %d", tc.clusterSize, len(runs), k)
		}
	}
}

// TestClusteringAmortizesSubmitOverhead is the tentpole's makespan claim:
// with the 2003 Condor-G serialized submission cost modelled, batching 16
// jobs per task beats one-task-per-job end to end.
func TestClusteringAmortizesSubmitOverhead(t *testing.T) {
	const k = 64
	run := func(clusterSize int) time.Duration {
		g := fanGraph(t, k)
		sim := newSim(t, condor.Pool{Name: "usc", Slots: 8})
		sim.SetSubmitOverhead(2 * time.Second)
		rep, err := Execute(g, clusterRunner(map[string]int{}, nil), sim,
			Options{ClusterSize: clusterSize})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Succeeded() {
			t.Fatalf("clusterSize=%d failed: %+v", clusterSize, rep)
		}
		return rep.Makespan
	}
	serial := run(0)
	clustered := run(16)
	if clustered >= serial {
		t.Errorf("clustered makespan %v >= serial %v; clustering should amortize submit overhead",
			clustered, serial)
	}
}

// TestClusterInnerFailureSettlesIndividually: one bad node inside a batch
// retries alone; its 15 batch-mates complete once and never re-run.
func TestClusterInnerFailureSettlesIndividually(t *testing.T) {
	const k = 16
	g := fanGraph(t, k)
	runs := map[string]int{}
	sink := &countSink{}
	sim := newSim(t, condor.Pool{Name: "usc", Slots: 4})
	rep, err := Execute(g, clusterRunner(runs, map[string]bool{"leaf007": true}), sim,
		Options{ClusterSize: k, MaxRetries: 2, Journal: sink})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() || rep.Done != k {
		t.Fatalf("report %+v", rep)
	}
	for id, n := range runs {
		want := 1
		if id == "leaf007" {
			want = 2
		}
		if n != want {
			t.Errorf("node %s ran %d times, want %d", id, n, want)
		}
	}
	// Journal stays per inner node: every node has its own submitted and
	// completed records, and the faulty one a retried record.
	perKind := map[string]map[string]int{}
	for _, r := range sink.recs {
		if perKind[r.Kind] == nil {
			perKind[r.Kind] = map[string]int{}
		}
		perKind[r.Kind][r.Node]++
	}
	for i := 0; i < k; i++ {
		id := fmt.Sprintf("leaf%03d", i)
		if perKind[journal.KindCompleted][id] != 1 {
			t.Errorf("node %s has %d completed records, want 1", id, perKind[journal.KindCompleted][id])
		}
		wantSub := 1
		if id == "leaf007" {
			wantSub = 2
		}
		if perKind[journal.KindSubmitted][id] != wantSub {
			t.Errorf("node %s has %d submitted records, want %d",
				id, perKind[journal.KindSubmitted][id], wantSub)
		}
	}
	if perKind[journal.KindRetried]["leaf007"] != 1 {
		t.Errorf("faulty node has %d retried records, want 1", perKind[journal.KindRetried]["leaf007"])
	}
}

// TestClusterRespectsDependencies: clustering must not run a child before its
// parent — only ready nodes batch together.
func TestClusterRespectsDependencies(t *testing.T) {
	g := dag.New()
	for _, id := range []string{"p1", "p2", "c1", "c2"} {
		if err := g.AddNode(&dag.Node{ID: id, Type: "compute"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("p1", "c1"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("p2", "c2"); err != nil {
		t.Fatal(err)
	}
	var order []string
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		id := n.ID
		return Spec{Site: "usc", Cost: time.Second, ClusterKey: "leaf", Run: condor.BodyFunc(func() error {
			order = append(order, id)
			return nil
		})}, nil
	}
	sim := newSim(t, condor.Pool{Name: "usc", Slots: 2})
	rep, err := Execute(g, runner, sim, Options{ClusterSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() {
		t.Fatalf("report %+v", rep)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos["c1"] < pos["p1"] || pos["c2"] < pos["p2"] {
		t.Errorf("child ran before parent: order %v", order)
	}
	// Parents batch together, children batch together: two schedule events.
	if rep.ScheduleEvents != 2 {
		t.Errorf("%d schedule events, want 2 (parents batch, children batch)", rep.ScheduleEvents)
	}
}
