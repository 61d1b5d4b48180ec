package dagman

import (
	"fmt"

	"repro/internal/condor"
	"repro/internal/dag"
)

// ExecuteWithRescue runs the workflow and, when nodes fail permanently,
// resubmits the rescue DAG — exactly the operational recovery DAGMan's
// rescue files enable — up to maxRounds additional rounds. Completed nodes
// never re-run; each round gets a fresh retry budget. newSim supplies a
// scheduler per round (the first round's simulator clock carries over into
// the merged report's makespan accounting per round).
//
// The merged report reflects the final state of every node: a node that
// failed in round one and succeeded in round two counts as done, with its
// attempts accumulated across rounds.
func ExecuteWithRescue(g *dag.Graph, runner Runner, newSim func() (*condor.Simulator, error),
	opt Options, maxRounds int) (*Report, error) {
	if newSim == nil {
		return nil, ErrNilInput
	}
	sim, err := newSim()
	if err != nil {
		return nil, err
	}
	report, err := Execute(g, runner, sim, opt)
	if err != nil {
		return nil, err
	}

	current := g
	for round := 0; round < maxRounds && !report.Succeeded(); round++ {
		rescue := report.RescueDAG(current)
		if rescue.Len() == 0 {
			break
		}
		sim, err := newSim()
		if err != nil {
			return nil, err
		}
		rescueReport, err := Execute(rescue, runner, sim, opt)
		if err != nil {
			return nil, fmt.Errorf("dagman: rescue round %d: %w", round+1, err)
		}
		mergeReports(report, rescueReport)
		current = rescue
	}
	return report, nil
}

// mergeReports folds a rescue round's results into the cumulative report:
// per-node attempts accumulate, the counters fold by add, and the node
// states are recounted from the merged results.
func mergeReports(total, round *Report) {
	for id, res := range round.Results {
		prev := total.Results[id]
		attempts := res.Attempts
		if prev != nil {
			attempts += prev.Attempts
		}
		merged := *res
		merged.Attempts = attempts
		total.Results[id] = &merged
	}
	total.add(round)
	total.Done, total.Failed, total.Unrun = 0, 0, 0
	for _, res := range total.Results {
		switch res.State {
		case StateDone:
			total.Done++
		case StateFailed:
			total.Failed++
		default:
			total.Unrun++
		}
	}
}

// add sums o's counters into r: the one fold of reports, for rescue rounds
// (which then recount node states from their results) and for waves (whose
// node sets are disjoint, so their state counts simply add).
func (r *Report) add(o *Report) {
	r.Makespan += o.Makespan
	r.Done += o.Done
	r.Failed += o.Failed
	r.Unrun += o.Unrun
	r.Restored += o.Restored
	r.ScheduleEvents += o.ScheduleEvents
	r.ClusteredTasks += o.ClusteredTasks
	r.ClusteredNodes += o.ClusteredNodes
}
