package webservice

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/pegasus"
)

// stagedPlan is the concrete plan of a staged request of the given size. A
// memo request executes this same plan: planning does not look at the memo.
func stagedPlan(tb testing.TB, galaxies int) *dag.Graph {
	tb.Helper()
	h, tab := stagedRequest(tb, galaxies)
	dvs, err := newDerivations(tab, "COMA")
	if err != nil {
		tb.Fatal(err)
	}
	src, err := h.leg().freshSource(dvs)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := src.next(0)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// executePlan runs g through dagman.Execute on the testbed's default pools,
// with side effects on a worker set of the given width. Every node's Run is
// one shared empty body, so what allocates is the executor, the simulator and
// the worker set, not the jobs or their recipes.
func executePlan(tb testing.TB, g *dag.Graph, workers int) {
	var ran atomic.Int64
	body := condor.BodyFunc(func() error { ran.Add(1); return nil })
	runner := func(n *dag.Node, _ int) (dagman.Spec, error) {
		spec := dagman.Spec{Cost: galMorphBaseCost, Run: body}
		switch n.Type {
		case pegasus.NodeTransfer:
			spec.Cost, spec.Lane = time.Second, condor.LaneTransfer
		case pegasus.NodeRegister:
			spec.Cost = registerCost
		}
		return spec, nil
	}
	sim, err := condor.NewSimulator(
		condor.Pool{Name: "usc", Slots: 20},
		condor.Pool{Name: "wisc", Slots: 30},
		condor.Pool{Name: "fnal", Slots: 20})
	if err != nil {
		tb.Fatal(err)
	}
	sim.SetWorkers(workers)
	rep, err := dagman.Execute(g, runner, sim, dagman.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if rep.Done != g.Len() || ran.Load() != int64(g.Len()) {
		tb.Fatalf("%d of %d nodes done, %d bodies ran", rep.Done, g.Len(), ran.Load())
	}
}

// executeAllocsPerNode is the allocations per node of executePlan on g.
func executeAllocsPerNode(tb testing.TB, g *dag.Graph, workers, runs int) float64 {
	return testing.AllocsPerRun(runs, func() { executePlan(tb, g, workers) }) / float64(g.Len())
}

// TestExecuteAllocBudget gates DAGMan's execution loop the way
// TestPlanAllocBudget gates planning: allocations per node of dagman.Execute
// over the real plan of a 1,000-galaxy request (3,662 nodes), serial and on
// four workers. Measured 0.031 and 0.035 (with and without -race): about 110
// and 125 allocations per Execute, none of them per node; the budgets are
// that plus 10%. At ffb7a0d, with a goroutine, channel and Future per task, a
// boxed heap event and a child list per settle, it measured 3.0 and 6.0.
func TestExecuteAllocBudget(t *testing.T) {
	g := stagedPlan(t, 1000)
	for _, c := range []struct {
		workers int
		budget  float64
	}{{1, 0.034}, {4, 0.039}} {
		allocs := executeAllocsPerNode(t, g, c.workers, 5)
		t.Logf("Execute over %d nodes on %d workers: %.3f allocs/node", g.Len(), c.workers, allocs)
		if allocs > c.budget {
			t.Errorf("Execute on %d workers allocates %.3f times per node; budget is %.3f", c.workers, allocs, c.budget)
		}
	}
}

// TestExecuteAllocsFlat pins the execution loop as at most linear in the
// plan: allocations per node of executePlan on the plans of 1k-, 4k- and
// 16k-galaxy requests (16k skipped under -short) never rise by more than 5%
// from one size to the next. The loop allocates nothing per node, so the
// figure falls as its fixed setup is spread over more nodes (0.035, 0.016,
// 0.010); a per-node term holds it level and a superlinear one makes it rise.
func TestExecuteAllocsFlat(t *testing.T) {
	sizes := []int{1000, 4000, 16000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	perNode := make([]float64, len(sizes))
	for i, galaxies := range sizes {
		perNode[i] = executeAllocsPerNode(t, stagedPlan(t, galaxies), 4, 2)
	}
	t.Logf("allocs/node at %v galaxies: %.3f", sizes, perNode)
	for i := 1; i < len(sizes); i++ {
		if perNode[i] > 1.05*perNode[i-1] {
			t.Errorf("allocations per node rise from %.3f at %d galaxies to %.3f at %d; want no rise beyond 5%%",
				perNode[i-1], sizes[i-1], perNode[i], sizes[i])
		}
	}
}
