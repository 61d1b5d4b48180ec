package dagman

import (
	"fmt"

	"repro/internal/condor"
	"repro/internal/dag"
)

// WaveError reports a wave whose workflow failed permanently (after retries
// and rescue rounds), carrying the wave's graph and report so the caller can
// serialize the wave's rescue DAG: its failed and unrun nodes. The waves
// after it were never planned, so they are not in it; a resubmission must
// plan them as well.
type WaveError struct {
	Wave   int
	Graph  *dag.Graph
	Report *Report
}

func (e *WaveError) Error() string {
	return fmt.Sprintf("dagman: wave %d failed permanently: %d failed, %d unrun",
		e.Wave, e.Report.Failed, e.Report.Unrun)
}

// ExecuteWaves runs a sequence of bounded workflow waves back to back: next
// is called with 0, 1, 2, ... and returns each wave's concrete graph, or nil
// when the sequence is exhausted. Each wave executes to completion (with
// per-wave rescue rounds) before the next is even planned, so at most one
// wave's graph, report and scheduler state are live at a time — next can
// plan lazily and release memory behind itself.
//
// The Options are shared across waves: the same journal sink receives every
// wave's records in order, and Options.Completed restores finished nodes in
// whichever wave they reappear (IDs absent from a wave's graph are ignored,
// which is what makes one flat completed-set from a crashed run's journal
// safe to apply to every wave of the resumed run; each restoration is a
// KindRestored record on the sink). The returned Report's counters are the
// fold of every executed wave's report (Report.add); its Results are nil,
// since per-node results are discarded wave by wave. How many waves and
// nodes were released is the source's to count: next sees every graph.
//
// A permanent wave failure stops the sequence with a *WaveError wrapping the
// failed wave's graph and report. Hard executor errors (an abort, a journal
// crash) propagate wrapped with the wave index, preserving errors.Is.
func ExecuteWaves(next func(wave int) (*dag.Graph, error), runner Runner,
	newSim func() (*condor.Simulator, error), opt Options, maxRounds int) (*Report, error) {
	if next == nil || runner == nil || newSim == nil {
		return nil, ErrNilInput
	}
	total := &Report{}
	for w := 0; ; w++ {
		g, err := next(w)
		if err != nil {
			return total, fmt.Errorf("dagman: planning wave %d: %w", w, err)
		}
		if g == nil {
			return total, nil
		}
		if g.Len() == 0 {
			continue // fully reduced away (e.g. a resumed wave already done)
		}
		rep, err := ExecuteWithRescue(g, runner, newSim, opt, maxRounds)
		if err != nil {
			return total, fmt.Errorf("dagman: wave %d: %w", w, err)
		}
		total.add(rep)
		if !rep.Succeeded() {
			return total, &WaveError{Wave: w, Graph: g, Report: rep}
		}
	}
}

// add sums o's counters into r: the fold of waves, whose node sets are
// disjoint, so their state counts simply add.
func (r *Report) add(o *Report) {
	r.Makespan += o.Makespan
	r.Done += o.Done
	r.Failed += o.Failed
	r.Unrun += o.Unrun
	r.ScheduleEvents += o.ScheduleEvents
	r.ClusteredTasks += o.ClusteredTasks
	r.ClusteredNodes += o.ClusteredNodes
}
