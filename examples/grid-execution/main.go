// Grid execution: the workflow machinery under the hood — DAGMan's journal
// stream of node transitions, retries, rescue-DAG recovery, and the makespan scaling that made
// three Condor pools worthwhile for the paper's campaign.
//
//	go run ./examples/grid-execution
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"slices"
	"time"

	"repro/internal/condor"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/journal"
)

func main() {
	demoMonitoringAndRetries()
	demoRescueDAG()
	demoPoolScaling()
}

// buildFan returns the galaxy-morphology workflow shape: n independent
// compute jobs fanning into one concatenation job.
func buildFan(n int) *dag.Graph {
	g := dag.New()
	if err := g.AddNode(&dag.Node{ID: "concat", Type: "compute"}); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("galMorph-%03d", i)
		if err := g.AddNode(&dag.Node{ID: id, Type: "compute"}); err != nil {
			log.Fatal(err)
		}
		if err := g.AddEdge(id, "concat"); err != nil {
			log.Fatal(err)
		}
	}
	return g
}

func demoMonitoringAndRetries() {
	fmt.Println("== DAGMan monitoring with transient failures ==")
	g := buildFan(8)
	rng := rand.New(rand.NewSource(3))
	runner := func(n *dag.Node, attempt int) (dagman.Spec, error) {
		return dagman.Spec{Cost: 4 * time.Second, Run: condor.BodyFunc(func() error {
			if attempt == 1 && rng.Float64() < 0.3 {
				return errors.New("transient Grid failure")
			}
			return nil
		})}, nil
	}
	//nvolint:ignore fabricpool standalone demo of raw DAGMan/Condor, no shared fabric to lease from
	sim, err := condor.NewSimulator(condor.Pool{Name: "usc", Slots: 4})
	if err != nil {
		log.Fatal(err)
	}
	mon := &monitor{}
	rep, err := dagman.Execute(g, runner, sim, dagman.Options{MaxRetries: 3, Journal: mon})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d jobs done, %d monitoring events, makespan %v\n\n",
		rep.Done, mon.events, rep.Makespan)
}

// monitor reads DAGMan's journal stream — every node transition, once — and
// prints the retries as they happen.
type monitor struct{ events int }

func (m *monitor) Append(rec journal.Record) error {
	m.events++
	if rec.Kind == journal.KindRetried {
		fmt.Printf("  t=%-6v %-14s attempt %d failed (%v), resubmitting\n",
			rec.At, rec.Node, rec.Attempt, rec.Err)
	}
	return nil
}

func demoRescueDAG() {
	fmt.Println("== rescue-DAG recovery ==")
	g := buildFan(6)
	// One stubborn job fails for an entire round, then heals.
	failuresLeft := 2 // MaxRetries=1 -> 2 attempts in round one
	runner := func(n *dag.Node, attempt int) (dagman.Spec, error) {
		return dagman.Spec{Cost: 4 * time.Second, Run: condor.BodyFunc(func() error {
			if n.ID == "galMorph-003" && failuresLeft > 0 {
				failuresLeft--
				return errors.New("pool outage")
			}
			return nil
		})}, nil
	}
	newSim := func() (*condor.Simulator, error) {
		//nvolint:ignore fabricpool standalone demo of raw DAGMan/Condor, no shared fabric to lease from
		return condor.NewSimulator(condor.Pool{Name: "usc", Slots: 4})
	}
	rep, err := dagman.ExecuteWithRescue(g, runner, newSim, dagman.Options{MaxRetries: 1}, 2)
	if err != nil {
		log.Fatal(err)
	}
	result := func(id string) dagman.Result {
		return rep.Results[slices.IndexFunc(rep.Results, func(r dagman.Result) bool { return r.Node == id })]
	}
	fmt.Printf("  recovered: %t; galMorph-003 took %d attempts across rounds; "+
		"concat state = %v\n\n",
		rep.Succeeded(), result("galMorph-003").Attempts, result("concat").State)
}

func demoPoolScaling() {
	fmt.Println("== makespan vs. Grid capacity (why the paper used 3 pools) ==")
	const jobs = 561 // the paper's largest cluster
	runner := func(n *dag.Node, attempt int) (dagman.Spec, error) {
		return dagman.Spec{Cost: 4 * time.Second}, nil
	}
	fmt.Printf("  %-28s %10s %8s\n", "pools", "makespan", "speedup")
	var base time.Duration
	for _, pools := range [][]condor.Pool{
		{{Name: "usc", Slots: 20}},
		{{Name: "usc", Slots: 20}, {Name: "wisc", Slots: 30}},
		{{Name: "usc", Slots: 20}, {Name: "wisc", Slots: 30}, {Name: "fnal", Slots: 20}},
	} {
		//nvolint:ignore fabricpool standalone demo of raw DAGMan/Condor, no shared fabric to lease from
		sim, err := condor.NewSimulator(pools...)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := dagman.Execute(buildFan(jobs), runner, sim, dagman.Options{})
		if err != nil || !rep.Succeeded() {
			log.Fatalf("rep=%+v err=%v", rep, err)
		}
		label := ""
		slots := 0
		for i, p := range pools {
			if i > 0 {
				label += "+"
			}
			label += fmt.Sprintf("%s(%d)", p.Name, p.Slots)
			slots += p.Slots
		}
		if base == 0 {
			base = rep.Makespan
		}
		fmt.Printf("  %-28s %10v %7.2fx\n", label, rep.Makespan,
			float64(base)/float64(rep.Makespan))
	}
}
