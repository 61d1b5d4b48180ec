package dagman

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/dag"
	"repro/internal/journal"
)

// prefixChain builds a linear workflow <p>1 -> <p>2 -> ... -> <p>k, giving
// each wave its own node-ID namespace.
func prefixChain(t testing.TB, p string, k int) *dag.Graph {
	t.Helper()
	g := dag.New()
	for i := 1; i <= k; i++ {
		if err := g.AddNode(&dag.Node{ID: fmt.Sprintf("%s%d", p, i), Type: "compute"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i <= k; i++ {
		if err := g.AddEdge(fmt.Sprintf("%s%d", p, i-1), fmt.Sprintf("%s%d", p, i)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func waveSims(t testing.TB) func() (*condor.Simulator, error) {
	t.Helper()
	return func() (*condor.Simulator, error) {
		return condor.NewSimulator(condor.Pool{Name: "usc", Slots: 4})
	}
}

func TestExecuteWavesValidation(t *testing.T) {
	next := func(int) (*dag.Graph, error) { return nil, nil }
	if _, err := ExecuteWaves(nil, unitRunner(nil), waveSims(t), Options{}, 0); !errors.Is(err, ErrNilInput) {
		t.Error("nil next must fail")
	}
	if _, err := ExecuteWaves(next, nil, waveSims(t), Options{}, 0); !errors.Is(err, ErrNilInput) {
		t.Error("nil runner must fail")
	}
	if _, err := ExecuteWaves(next, unitRunner(nil), nil, Options{}, 0); !errors.Is(err, ErrNilInput) {
		t.Error("nil sim factory must fail")
	}
}

// TestExecuteWavesSequentialAggregation runs three waves of different sizes
// and checks strict wave ordering, counter aggregation, and the peak-wave
// bound the whole design exists to cap.
func TestExecuteWavesSequentialAggregation(t *testing.T) {
	sizes := []int{3, 5, 2}
	var order []string
	waves, nodes, maxWave := 0, 0, 0
	next := func(w int) (*dag.Graph, error) {
		if w >= len(sizes) {
			return nil, nil
		}
		g := prefixChain(t, fmt.Sprintf("w%d_n", w), sizes[w])
		waves, nodes, maxWave = waves+1, nodes+g.Len(), max(maxWave, g.Len())
		return g, nil
	}
	rep, err := ExecuteWaves(next, unitRunner(&order), waveSims(t), Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if waves != 3 || nodes != 10 || maxWave != 5 || rep.Done != 10 || rep.Failed != 0 || rep.Results != nil {
		t.Fatalf("%d waves, %d nodes, largest %d; report %+v", waves, nodes, maxWave, rep)
	}
	// Chains of 3+5+2 unit jobs run back to back: makespan adds up.
	if rep.Makespan != 10*time.Second {
		t.Errorf("makespan = %v, want 10s", rep.Makespan)
	}
	if len(order) != 10 {
		t.Fatalf("ran %d nodes: %v", len(order), order)
	}
	// Every wave-0 node precedes every wave-1 node, and so on: waves are a
	// hard execution barrier, not just a planning convenience.
	waveOf := func(id string) int {
		var w int
		fmt.Sscanf(id, "w%d_", &w)
		return w
	}
	for i := 1; i < len(order); i++ {
		if waveOf(order[i-1]) > waveOf(order[i]) {
			t.Fatalf("wave order violated: %s before %s", order[i-1], order[i])
		}
	}
}

// TestExecuteWavesSkipsEmpty checks a fully-reduced wave (everything pruned
// on resume) is released but not executed, and the waves after it run.
func TestExecuteWavesSkipsEmpty(t *testing.T) {
	waves := []*dag.Graph{prefixChain(t, "a", 2), dag.New(), prefixChain(t, "b", 1)}
	calls := 0
	next := func(w int) (*dag.Graph, error) {
		calls++
		if w >= len(waves) {
			return nil, nil
		}
		return waves[w], nil
	}
	rep, err := ExecuteWaves(next, unitRunner(nil), waveSims(t), Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 || rep.Done != 3 || rep.ScheduleEvents != 3 {
		t.Errorf("next called %d times; report %+v", calls, rep)
	}
}

// TestExecuteWavesPermanentFailure checks a wave that fails after retries
// surfaces as a WaveError carrying that wave's graph and report, with prior
// waves' work already aggregated.
func TestExecuteWavesPermanentFailure(t *testing.T) {
	next := func(w int) (*dag.Graph, error) {
		if w >= 2 {
			return nil, nil
		}
		return prefixChain(t, fmt.Sprintf("w%d_n", w), 3), nil
	}
	runner := func(n *dag.Node, attempt int) (Spec, error) {
		return Spec{Cost: time.Second, Run: condor.BodyFunc(func() error {
			if n.ID == "w1_n2" {
				return errors.New("broken")
			}
			return nil
		})}, nil
	}
	rep, err := ExecuteWaves(next, runner, waveSims(t), Options{MaxRetries: 1}, 0)
	var we *WaveError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want WaveError", err)
	}
	if we.Wave != 1 || we.Report.Failed != 1 || we.Report.Unrun != 1 {
		t.Errorf("wave error = wave %d, report %+v", we.Wave, we.Report)
	}
	if _, ok := we.Graph.Node("w1_n2"); !ok {
		t.Error("wave error must carry the failed wave's graph")
	}
	// Wave 0 completed and is aggregated; wave 1's partial progress too.
	if rep.Done != 4 || rep.Failed != 1 || rep.Unrun != 1 {
		t.Errorf("report = %+v", rep)
	}
}

// TestExecuteWavesPlanningError checks a failing next stops the sequence
// with the wave index wrapped in.
func TestExecuteWavesPlanningError(t *testing.T) {
	sentinel := errors.New("no images")
	next := func(w int) (*dag.Graph, error) {
		if w == 1 {
			return nil, sentinel
		}
		return prefixChain(t, "a", 1), nil
	}
	rep, err := ExecuteWaves(next, unitRunner(nil), waveSims(t), Options{}, 0)
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "wave 1") {
		t.Fatalf("err = %v, want wrapped sentinel of wave 1", err)
	}
	if rep.Done != 1 {
		t.Errorf("report = %+v", rep)
	}
}

// TestExecuteWavesSharedCompleted checks one flat completed-set restores
// nodes in whichever wave they appear, and IDs matching no wave are ignored
// — the property that lets a resume feed a crashed run's whole journal to
// every wave.
func TestExecuteWavesSharedCompleted(t *testing.T) {
	next := func(w int) (*dag.Graph, error) {
		if w >= 2 {
			return nil, nil
		}
		return prefixChain(t, fmt.Sprintf("w%d_n", w), 3), nil
	}
	var order []string
	sink := &countSink{}
	opt := Options{Journal: sink, Completed: map[string]bool{
		"w0_n1": true, "w1_n1": true, "w1_n2": true, "ghost": true,
	}}
	rep, err := ExecuteWaves(next, unitRunner(&order), waveSims(t), opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for _, r := range sink.recs {
		if r.Kind == journal.KindRestored {
			restored++
		}
	}
	if restored != 3 || rep.Done != 6 {
		t.Errorf("restored records = %d, report = %+v; want 3 restored of 6 done", restored, rep)
	}
	for _, id := range order {
		if opt.Completed[id] {
			t.Errorf("restored node %s must not re-run", id)
		}
	}
	if len(order) != 3 {
		t.Errorf("ran %v, want the 3 unrestored nodes", order)
	}
}
