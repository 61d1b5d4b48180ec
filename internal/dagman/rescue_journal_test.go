package dagman

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/dag"
)

// TestRescueRoundJournal pins the journal of a run that needs two rescue
// rounds, with clustering, an in-flight throttle and a restored node: every
// record's kind, node, site, attempt and model time, the report's counters
// and each node's attempts summed over the rounds. Each round runs on a
// fresh simulator, so attempts restart at 1 and times at 0, and a node an
// earlier round completed is neither re-run nor journaled as restored.
func TestRescueRoundJournal(t *testing.T) {
	// a -> b1..b4 -> c; the b layer is clusterable, a is restored.
	g := dag.New()
	for _, id := range []string{"a", "b1", "b2", "b3", "b4", "c"} {
		if err := g.AddNode(&dag.Node{ID: id, Type: "compute"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []string{"b1", "b2", "b3", "b4"} {
		if err := g.AddEdge("a", b); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(b, "c"); err != nil {
			t.Fatal(err)
		}
	}
	// failing reports whether a node's attempt fails in a round: b1 fails
	// once, b2 for all of round 1, b3 for all of rounds 1 and 2.
	round := 0
	failing := func(id string, attempt int) bool {
		switch id {
		case "b1":
			return round == 1 && attempt == 1
		case "b2":
			return round == 1
		case "b3":
			return round <= 2
		}
		return false
	}
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		var err error
		if failing(n.ID, attempt) {
			err = errors.New("down")
		}
		spec := Spec{Cost: time.Second, Run: condor.BodyFunc(func() error { return err })}
		if n.ID[0] == 'b' {
			spec.ClusterKey = "b"
		}
		return spec, nil
	}
	newSim := func() (*condor.Simulator, error) {
		round++
		return condor.NewSimulator(condor.Pool{Name: "p", Slots: 2})
	}
	sink := &countSink{}
	rep, err := ExecuteWithRescue(g, runner, newSim, Options{
		MaxRetries:  1,
		ClusterSize: 3,
		MaxInFlight: func() int { return 2 },
		Completed:   map[string]bool{"a": true, "ghost": true},
		Journal:     sink,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, r := range sink.recs {
		got = append(got, fmt.Sprintf("%s %s %s %d %v", r.Kind, r.Node, r.Site, r.Attempt, r.At))
	}
	want := []string{
		// Round 1: a restored, b1 and b2 batched under the throttle of 2.
		"restored a  0 0s",
		"submitted b1  1 0s",
		"submitted b2  1 0s",
		"retried b1 p 1 2s",
		"submitted b1  2 2s",
		"retried b2 p 1 2s",
		"submitted b2  2 2s",
		"completed b1 p 2 4s",
		"failed b2 p 2 4s",
		"submitted b3  1 4s",
		"submitted b4  1 4s",
		"retried b3 p 1 6s",
		"submitted b3  2 6s",
		"completed b4 p 1 6s",
		"failed b3 p 2 7s",
		// Round 2 on a fresh simulator: b2 and b3 only, attempts from 1.
		"submitted b2  1 0s",
		"submitted b3  1 0s",
		"completed b2 p 1 2s",
		"retried b3 p 1 2s",
		"submitted b3  2 2s",
		"failed b3 p 2 3s",
		// Round 3: b3, then c; no restored record for any node.
		"submitted b3  1 0s",
		"completed b3 p 1 1s",
		"submitted c  1 1s",
		"completed c p 1 2s",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("records:\n%q\nwant:\n%q", got, want)
	}

	counters := fmt.Sprintf("rounds=%d done=%d failed=%d unrun=%d events=%d clustered=%d/%d makespan=%v",
		round, rep.Done, rep.Failed, rep.Unrun, rep.ScheduleEvents, rep.ClusteredTasks, rep.ClusteredNodes, rep.Makespan)
	if want := "rounds=3 done=6 failed=0 unrun=0 events=8 clustered=4/8 makespan=12s"; counters != want {
		t.Errorf("counters = %q, want %q", counters, want)
	}
	attempts := map[string]int{}
	for _, res := range rep.Results {
		attempts[res.Node] = res.Attempts
	}
	if want := map[string]int{"a": 0, "b1": 2, "b2": 3, "b3": 5, "b4": 1, "c": 1}; !reflect.DeepEqual(attempts, want) {
		t.Errorf("attempts = %#v, want %#v", attempts, want)
	}
}
