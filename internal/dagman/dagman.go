// Package dagman executes concrete workflows the way Condor DAGMan does
// (Frey et al. 2001): it releases a node to the Condor-G scheduler only when
// all its parents have completed, retries failed nodes up to a configurable
// limit, and when nodes fail permanently produces a rescue DAG — the
// sub-workflow of failed and never-run nodes that a later submission can
// resume from.
//
// The actual behaviour of each node (computing morphology, moving files with
// GridFTP, registering replicas) is supplied by the caller as a Runner that
// maps concrete-workflow nodes to condor Tasks.
package dagman

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/condor"
	"repro/internal/dag"
	"repro/internal/journal"
)

// NodeState is the lifecycle state of one workflow node.
type NodeState int

// Node states.
const (
	StatePending NodeState = iota
	StateRunning
	StateDone
	StateFailed // exhausted retries
	StateUnrun  // never became runnable (upstream failure)
)

// String labels the state.
func (s NodeState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateUnrun:
		return "unrun"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// Spec is the execution recipe for one node.
type Spec struct {
	Site string        // pool to run on ("" = matchmake)
	Cost time.Duration // model duration at unit speed
	Run  func() error  // side effects, executed at completion time
	// Lane routes the task to a scheduler lane; condor.LaneTransfer puts it
	// on the pool's dedicated transfer slots (when configured), so data
	// movement overlaps computation instead of competing for CPU slots.
	Lane string
	// ClusterKey, when non-empty and Options.ClusterSize > 1, marks the
	// node horizontally clusterable: ready nodes sharing (Site, ClusterKey)
	// are batched into a single Condor task of up to ClusterSize inner
	// jobs, amortizing the per-task scheduling overhead. Journal records,
	// monitoring events, retries and child release all remain per inner
	// node, so crash recovery and rescue DAGs are unaffected.
	ClusterKey string
}

// Runner maps a workflow node to its execution recipe. It is called once per
// attempt, so a retry can pick a different site.
type Runner func(n *dag.Node, attempt int) (Spec, error)

// EventKind classifies monitoring events (the "Monitoring" and "Log Files"
// arrows of the paper's Figure 2).
type EventKind int

// Event kinds.
const (
	EventSubmitted EventKind = iota
	EventCompleted
	EventRetried
	EventFailed // retries exhausted
	// EventRestored marks a node recovered as already-done from a journal
	// (Options.Completed); it never executed in this run.
	EventRestored
)

// String labels the kind.
func (k EventKind) String() string {
	switch k {
	case EventSubmitted:
		return "submitted"
	case EventCompleted:
		return "completed"
	case EventRetried:
		return "retried"
	case EventFailed:
		return "failed"
	case EventRestored:
		return "restored"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one monitoring record.
type Event struct {
	Kind    EventKind
	Node    string
	Site    string        // set on completion events
	Attempt int           // 1-based
	At      time.Duration // model time
	Err     error         // set on retried/failed
}

// Options tunes the executor.
type Options struct {
	// MaxRetries is the number of re-submissions after a failure (so a node
	// runs at most MaxRetries+1 times). DAGMan's default of retrying is the
	// prototype's primary infrastructure fault tolerance.
	MaxRetries int
	// Monitor, when set, receives every lifecycle event — the job-status
	// stream a portal's progress display consumes.
	Monitor func(Event)
	// MaxInFlight caps the number of simultaneously submitted nodes, like
	// DAGMan's -maxjobs throttle; ready nodes beyond the cap wait in
	// submission order. It is consulted at every submit and drain decision
	// (nil, or a return <= 0, = unlimited at that instant). The fabric wires
	// a lease's JobAllowance here so idle job headroom lent by quota-blocked
	// tenants widens the throttle while it lasts and is reclaimed at the
	// next poll.
	MaxInFlight func() int
	// Journal, when set, receives a write-ahead record at every node state
	// transition, BEFORE the executor acts on the transition. A failed
	// append aborts the run (ErrAborted): a transition that cannot be made
	// durable must not happen, or replay-to-resume would re-run completed
	// side effects' descendants against a lying history. Nil journals
	// nothing at zero cost.
	Journal journal.Sink
	// Check, when set, is polled between scheduler events; a non-nil error
	// aborts the run cleanly (an abort record is journaled, ErrAborted is
	// returned). Wire a context with func() error { return ctx.Err() } to
	// make an abandoned request stop scheduling new nodes.
	Check func() error
	// Completed restores nodes a previous (crashed) run already finished:
	// they are marked done without executing, their children unlock, and
	// they surface as EventRestored. IDs not present in the graph are
	// ignored, so a journal replayed against a reduced or rescue DAG is
	// harmless.
	Completed map[string]bool
	// ClusterSize enables Pegasus-style horizontal clustering: up to this
	// many ready nodes with equal (Site, ClusterKey) submit as one Condor
	// task whose inner jobs run back to back on one slot. <= 1 disables
	// clustering (every node is its own task, the legacy behaviour).
	ClusterSize int
}

// emit delivers a monitoring event if a monitor is installed.
func (o Options) emit(e Event) {
	if o.Monitor != nil {
		o.Monitor(e)
	}
}

// Result describes one node's execution.
type Result struct {
	Node     string
	State    NodeState
	Site     string
	Attempts int
	Start    time.Duration // model time of the last attempt's start
	End      time.Duration // model time of the last attempt's end
	Err      error         // last error, when State != StateDone
}

// Report is the outcome of a workflow execution.
type Report struct {
	Results  map[string]*Result
	Makespan time.Duration
	Done     int
	Failed   int
	Unrun    int
	// Restored counts nodes recovered as done from Options.Completed —
	// journaled work a resumed run did not re-execute. They are included
	// in Done.
	Restored int
	// ScheduleEvents counts Condor tasks submitted to the scheduler — the
	// quantity clustering amortizes (a clustered batch is one event).
	ScheduleEvents int
	// ClusteredTasks counts multi-node batches submitted; ClusteredNodes
	// counts the inner jobs they carried.
	ClusteredTasks int
	ClusteredNodes int
}

// Succeeded reports whether every node completed.
func (r *Report) Succeeded() bool { return r.Failed == 0 && r.Unrun == 0 }

// RescueDAG returns the sub-workflow of failed and unrun nodes with the
// dependency edges among them — the DAG a resubmission would run.
func (r *Report) RescueDAG(g *dag.Graph) *dag.Graph {
	out := dag.New()
	include := map[string]bool{}
	for id, res := range r.Results {
		if res.State == StateFailed || res.State == StateUnrun {
			include[id] = true
		}
	}
	for id := range include {
		n, _ := g.Node(id)
		attrs := make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			attrs[k] = v
		}
		// Error impossible: ids are unique by construction.
		_ = out.AddNode(&dag.Node{ID: id, Type: n.Type, Attrs: attrs})
	}
	for id := range include {
		for _, c := range g.Children(id) {
			if include[c] {
				_ = out.AddEdge(id, c)
			}
		}
	}
	return out
}

// Errors returned by Execute.
var (
	ErrNilInput = errors.New("dagman: nil graph, runner or simulator")
	ErrStarved  = errors.New("dagman: tasks starved (pinned to saturated pools)")
	// ErrAborted marks a run stopped before completion — by Options.Check
	// (e.g. a cancelled context) or by a journal append failure (e.g. a
	// simulated crash). The journal holds the exact progress at the abort.
	ErrAborted = errors.New("dagman: execution aborted")
)

// Execute runs the workflow to completion (or permanent failure) on the
// given simulator. It is deterministic for a deterministic Runner.
func Execute(g *dag.Graph, runner Runner, sim *condor.Simulator, opt Options) (*Report, error) {
	if g == nil || runner == nil || sim == nil {
		return nil, ErrNilInput
	}
	report := &Report{Results: map[string]*Result{}}
	if g.Len() == 0 {
		return report, nil
	}
	if _, err := g.TopoSort(); err != nil {
		return nil, err
	}

	start := sim.Now()
	nodes := g.Nodes()
	pendingParents := make(map[string]int, len(nodes))
	report.Results = make(map[string]*Result, len(nodes))
	results := make([]Result, len(nodes)) // one allocation for every node's Result
	for i, id := range nodes {
		pendingParents[id] = g.InDegree(id)
		results[i] = Result{Node: id, State: StatePending}
		report.Results[id] = &results[i]
	}

	// journalRec makes a state transition durable before it is acted on.
	journalRec := func(rec journal.Record) error {
		if opt.Journal == nil {
			return nil
		}
		if err := opt.Journal.Append(rec); err != nil {
			return errors.Join(ErrAborted, err)
		}
		return nil
	}
	// abort stops the run on a Check failure, journaling the clean abort
	// record best-effort (a crashed journal refuses it, which is fine — the
	// existing prefix is the truth).
	abort := func(cause error) error {
		if opt.Journal != nil {
			_ = opt.Journal.Append(journal.Record{
				Kind: journal.KindAborted, At: sim.Now(), Err: cause.Error()})
		}
		return errors.Join(ErrAborted, cause)
	}
	checkAbort := func() error {
		if opt.Check == nil {
			return nil
		}
		if err := opt.Check(); err != nil {
			return abort(err)
		}
		return nil
	}

	// Restore journaled completions: the crashed run's finished nodes count
	// as done without re-executing, and their children unlock.
	for _, id := range nodes {
		if !opt.Completed[id] {
			continue
		}
		res := report.Results[id]
		res.State = StateDone
		report.Restored++
		if err := journalRec(journal.Record{Kind: journal.KindRestored, Node: id, At: sim.Now()}); err != nil {
			return nil, err
		}
		opt.emit(Event{Kind: EventRestored, Node: id, At: sim.Now()})
		for _, child := range g.Children(id) {
			pendingParents[child]--
		}
	}

	// The throttle queue holds ready nodes waiting under MaxInFlight.
	var waiting []string
	inFlight := 0

	// fail stops the run on an abort or journal error. The simulator may
	// still hold launched side effects on its worker pool; wait them out so
	// no goroutine touches shared state after Execute returns. (A resumed
	// run re-executes those nodes anyway — their completions were never
	// journaled — and completion side effects are idempotent.)
	fail := func(err error) (*Report, error) {
		sim.Abort()
		return nil, err
	}

	// Horizontal clustering state: ready clusterable nodes wait in clusterBuf
	// (journaled and monitored as submitted) until flushClusters groups them
	// into batched Condor tasks before the next scheduler step.
	type pendingInner struct {
		id   string
		spec Spec
	}
	// clusterBatch tracks one batched task's inner jobs; errs is filled by
	// the batch Run in order, and settled per inner node at completion.
	type clusterBatch struct {
		ids  []string
		errs []error
	}
	var clusterBuf []pendingInner
	batches := map[string]*clusterBatch{}
	clusterSeq := 0

	doSubmit := func(id string) error {
		n, _ := g.Node(id)
		res := report.Results[id]
		res.Attempts++
		spec, err := runner(n, res.Attempts)
		if err != nil {
			return fmt.Errorf("dagman: runner for %s: %w", id, err)
		}
		if err := journalRec(journal.Record{
			Kind: journal.KindSubmitted, Node: id, Attempt: res.Attempts, At: sim.Now()}); err != nil {
			return err
		}
		res.State = StateRunning
		inFlight++
		opt.emit(Event{Kind: EventSubmitted, Node: id, Attempt: res.Attempts, At: sim.Now()})
		if opt.ClusterSize > 1 && spec.ClusterKey != "" {
			clusterBuf = append(clusterBuf, pendingInner{id: id, spec: spec})
			return nil
		}
		report.ScheduleEvents++
		return sim.Submit(condor.Task{ID: id, Site: spec.Site, Cost: spec.Cost, Lane: spec.Lane, Run: spec.Run})
	}

	// flushClusters drains the buffer into batched tasks: grouped by
	// (Site, ClusterKey) in first-appearance order, split into chunks of at
	// most ClusterSize. Inner Runs execute back to back inside one task —
	// inner failures are recorded individually and never abort the batch,
	// so one bad galaxy costs one retry, not fifteen re-runs.
	flushClusters := func() error {
		if len(clusterBuf) == 0 {
			return nil
		}
		type groupKey struct{ site, key, lane string }
		var order []groupKey
		groups := map[groupKey][]pendingInner{}
		for _, pi := range clusterBuf {
			k := groupKey{site: pi.spec.Site, key: pi.spec.ClusterKey, lane: pi.spec.Lane}
			if _, seen := groups[k]; !seen {
				order = append(order, k)
			}
			groups[k] = append(groups[k], pi)
		}
		clusterBuf = nil
		for _, k := range order {
			items := groups[k]
			for lo := 0; lo < len(items); lo += opt.ClusterSize {
				hi := lo + opt.ClusterSize
				if hi > len(items) {
					hi = len(items)
				}
				chunk := items[lo:hi]
				var cost time.Duration
				cb := &clusterBatch{errs: make([]error, len(chunk))}
				runs := make([]func() error, len(chunk))
				for i, pi := range chunk {
					cb.ids = append(cb.ids, pi.id)
					cost += pi.spec.Cost
					runs[i] = pi.spec.Run
				}
				clusterSeq++
				taskID := fmt.Sprintf("cluster-%04d_%s_%s", clusterSeq, k.key, k.site)
				batches[taskID] = cb
				report.ScheduleEvents++
				if len(chunk) > 1 {
					report.ClusteredTasks++
					report.ClusteredNodes += len(chunk)
				}
				run := func() error {
					for i, r := range runs {
						if r != nil {
							cb.errs[i] = r()
						}
					}
					return nil // inner outcomes are settled individually
				}
				if err := sim.Submit(condor.Task{
					ID: taskID, Site: k.site, Cost: cost, Lane: k.lane, Run: run,
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// maxInFlight resolves the throttle for this instant.
	maxInFlight := func() int {
		if opt.MaxInFlight == nil {
			return 0
		}
		return opt.MaxInFlight()
	}

	// submit releases a node immediately or queues it under the throttle.
	submit := func(id string) error {
		if limit := maxInFlight(); limit > 0 && inFlight >= limit {
			waiting = append(waiting, id)
			return nil
		}
		return doSubmit(id)
	}

	// drainWaiting releases throttled nodes as capacity frees up.
	drainWaiting := func() error {
		for len(waiting) > 0 {
			if limit := maxInFlight(); limit > 0 && inFlight >= limit {
				return nil
			}
			id := waiting[0]
			waiting = waiting[1:]
			if err := doSubmit(id); err != nil {
				return err
			}
		}
		return nil
	}

	// Release every node whose parents are all satisfied. With no restored
	// completions this is exactly g.Roots(); after a restore it also covers
	// interior nodes whose ancestors finished in the crashed run.
	if err := checkAbort(); err != nil {
		return nil, err
	}
	for _, id := range nodes {
		res := report.Results[id]
		if res.State != StatePending || pendingParents[id] > 0 {
			continue
		}
		if err := submit(id); err != nil {
			return fail(err)
		}
	}
	if err := flushClusters(); err != nil {
		return fail(err)
	}

	markUnrunDescendants := func(id string) {
		for _, d := range g.Descendants(id) {
			res := report.Results[d]
			if res.State == StatePending {
				res.State = StateUnrun
			}
		}
	}

	// settle applies one node's outcome: journal, retry/fail/complete, child
	// release. For a clustered batch it runs once per inner node with that
	// node's own error, so recovery semantics match unclustered execution.
	settle := func(id, site string, startAt, endAt time.Duration, nodeErr error) error {
		res := report.Results[id]
		res.Site = site
		res.Start = startAt
		res.End = endAt
		res.Err = nodeErr
		inFlight--

		if nodeErr != nil {
			if res.Attempts <= opt.MaxRetries {
				if err := journalRec(journal.Record{Kind: journal.KindRetried,
					Node: id, Site: site, Attempt: res.Attempts,
					At: endAt, Err: nodeErr.Error()}); err != nil {
					return err
				}
				opt.emit(Event{Kind: EventRetried, Node: id, Site: site,
					Attempt: res.Attempts, At: endAt, Err: nodeErr})
				return submit(id)
			}
			if err := journalRec(journal.Record{Kind: journal.KindFailed,
				Node: id, Site: site, Attempt: res.Attempts,
				At: endAt, Err: nodeErr.Error()}); err != nil {
				return err
			}
			res.State = StateFailed
			opt.emit(Event{Kind: EventFailed, Node: id, Site: site,
				Attempt: res.Attempts, At: endAt, Err: nodeErr})
			markUnrunDescendants(id)
			return nil
		}
		if err := journalRec(journal.Record{Kind: journal.KindCompleted,
			Node: id, Site: site, Attempt: res.Attempts, At: endAt}); err != nil {
			return err
		}
		res.State = StateDone
		opt.emit(Event{Kind: EventCompleted, Node: id, Site: site,
			Attempt: res.Attempts, At: endAt})
		// Release children whose parents are now all done.
		for _, child := range g.Children(id) {
			pendingParents[child]--
			if pendingParents[child] > 0 {
				continue
			}
			childRes := report.Results[child]
			if childRes.State != StatePending {
				continue // upstream failure already marked it unrun
			}
			if err := submit(child); err != nil {
				return err
			}
		}
		return nil
	}

	for {
		if err := checkAbort(); err != nil {
			return fail(err)
		}
		completions, ok := sim.Step()
		if !ok {
			break
		}
		for _, c := range completions {
			if cb, clustered := batches[c.TaskID]; clustered {
				delete(batches, c.TaskID)
				for i, id := range cb.ids {
					innerErr := cb.errs[i]
					if c.Err != nil {
						// A whole-task failure (e.g. an injected batch
						// fault) fails every inner job it carried.
						innerErr = c.Err
					}
					if err := settle(id, c.Site, c.Start, c.End, innerErr); err != nil {
						return fail(err)
					}
				}
				continue
			}
			if err := settle(c.TaskID, c.Site, c.Start, c.End, c.Err); err != nil {
				return fail(err)
			}
		}
		if err := drainWaiting(); err != nil {
			return fail(err)
		}
		if err := flushClusters(); err != nil {
			return fail(err)
		}
	}

	if sim.QueueLen() > 0 {
		return nil, ErrStarved
	}

	for _, res := range report.Results {
		switch res.State {
		case StateDone:
			report.Done++
		case StateFailed:
			report.Failed++
		case StateUnrun, StatePending, StateRunning:
			// Pending/Running here would indicate a scheduler bug; count
			// them as unrun rather than losing them silently.
			res.State = StateUnrun
			report.Unrun++
		}
	}
	report.Makespan = sim.Now() - start
	return report, nil
}
