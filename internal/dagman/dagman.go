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
	Run  condor.Body   // side effects, executed at completion time
	// Lane routes the task to a scheduler lane; condor.LaneTransfer puts it
	// on the pool's dedicated transfer slots (when configured), so data
	// movement overlaps computation instead of competing for CPU slots.
	Lane string
	// ClusterKey, when non-empty and Options.ClusterSize > 1, marks the
	// node horizontally clusterable: ready nodes sharing (Site, ClusterKey)
	// are batched into a single Condor task of up to ClusterSize inner
	// jobs, amortizing the per-task scheduling overhead. Journal records,
	// retries and child release all remain per inner node, so crash
	// recovery and rescue DAGs are unaffected.
	ClusterKey string
}

// Runner maps a workflow node to its execution recipe. It is called once per
// attempt, so a retry can pick a different site.
type Runner func(n *dag.Node, attempt int) (Spec, error)

// Options tunes the executor.
type Options struct {
	// MaxRetries is the number of re-submissions after a failure (so a node
	// runs at most MaxRetries+1 times). DAGMan's default of retrying is the
	// prototype's primary infrastructure fault tolerance.
	MaxRetries int
	// MaxInFlight caps the number of simultaneously submitted nodes, like
	// DAGMan's -maxjobs throttle; ready nodes beyond the cap wait in
	// submission order. It is consulted at every submit and drain decision
	// (nil, or a return <= 0, = unlimited at that instant). The fabric wires
	// a lease's JobAllowance here so idle job headroom lent by quota-blocked
	// tenants widens the throttle while it lasts and is reclaimed at the
	// next poll.
	MaxInFlight func() int
	// Journal, when set, receives a write-ahead record at every node state
	// transition, BEFORE the executor acts on the transition. It is the
	// executor's one report — the "Monitoring" and "Log Files" arrows of the
	// paper's Figure 2 are both this stream: each transition reaches it
	// exactly once. A failed append aborts the run (ErrAborted): a
	// transition that cannot be made durable must not happen, or
	// replay-to-resume would re-run completed side effects' descendants
	// against a lying history. Nil journals nothing at zero cost.
	Journal journal.Sink
	// Check, when set, is polled between scheduler events; a non-nil error
	// aborts the run cleanly (an abort record is journaled, ErrAborted is
	// returned). Wire a context with func() error { return ctx.Err() } to
	// make an abandoned request stop scheduling new nodes.
	Check func() error
	// Completed restores nodes a previous (crashed) run already finished:
	// they are marked done without executing, their children unlock, and
	// they are journaled as KindRestored. IDs not present in the graph are
	// ignored, so one journal replayed against every wave of a resumed run
	// is harmless. Only the first pass restores: a rescue round reruns what
	// is not done and journals nothing for what an earlier round finished.
	Completed map[string]bool
	// ClusterSize enables Pegasus-style horizontal clustering: up to this
	// many ready nodes with equal (Site, ClusterKey) submit as one Condor
	// task whose inner jobs run back to back on one slot. <= 1 disables
	// clustering (every node is its own task, the legacy behaviour).
	ClusterSize int
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
	// attempt counts the current round's attempts (Attempts counts every
	// round's); it is what the Runner, the retry limit and the journal see.
	attempt int
}

// Report is the outcome of a workflow execution.
type Report struct {
	Results  []Result // one per node, in id order
	Makespan time.Duration
	Done     int
	Failed   int
	Unrun    int
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
	for _, res := range r.Results {
		if res.State == StateFailed || res.State == StateUnrun {
			include[res.Node] = true
		}
	}
	for id := range include {
		n, _ := g.Node(id)
		c := *n
		// Error impossible: ids are unique by construction.
		_ = out.AddNode(&c)
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
// given simulator: ExecuteWithRescue with no rescue rounds. It is
// deterministic for a deterministic Runner.
func Execute(g *dag.Graph, runner Runner, sim *condor.Simulator, opt Options) (*Report, error) {
	if sim == nil {
		return nil, ErrNilInput
	}
	return ExecuteWithRescue(g, runner, func() (*condor.Simulator, error) { return sim, nil }, opt, 0)
}

// ExecuteWithRescue runs the workflow and then, while some node has failed
// permanently, up to maxRounds rescue rounds, as DAGMan resubmits its
// rescue DAG. A rescue round is another pass of the same execution on a
// fresh simulator from newSim. Every node not done goes back to pending
// with a fresh retry budget, so the attempts the Runner and the journal see
// restart at 1 and the journal's times at the new simulator's clock;
// completed nodes never re-run. The report holds each node's final state,
// Result.Attempts summed over the rounds, and the passes' makespans summed.
func ExecuteWithRescue(g *dag.Graph, runner Runner, newSim func() (*condor.Simulator, error),
	opt Options, maxRounds int) (*Report, error) {
	if g == nil || runner == nil || newSim == nil {
		return nil, ErrNilInput
	}
	if g.Len() == 0 {
		return &Report{}, nil
	}
	if _, err := g.TopoSort(); err != nil {
		return nil, err
	}
	x := newExecution(g, runner, opt)
	for round := 0; ; round++ {
		sim, err := newSim()
		if err != nil {
			return nil, err
		}
		if err := x.pass(sim, round == 0); err != nil {
			if round > 0 {
				err = fmt.Errorf("dagman: rescue round %d: %w", round, err)
			}
			return nil, err
		}
		x.tally()
		if round == maxRounds || x.report.Succeeded() {
			return x.report, nil
		}
		x.rearm()
	}
}

// execution is the state of one ExecuteWithRescue call, over all its
// passes. A node is its position in the graph's id order (dag.Positions)
// throughout: pending-parent counts, results and child lists are slices
// indexed by it, and it rides on the node's Condor task as the task's Tag.
// Releasing, submitting and settling a node therefore allocate nothing in
// the executor; what a node costs is what its Runner and its Run body cost.
type execution struct {
	pos    *dag.Positions
	runner Runner
	sim    *condor.Simulator
	opt    Options
	report *Report

	results []Result // by position
	pending []int32  // parents not yet done, by position
	// waiting is the throttle queue of ready positions held back by
	// MaxInFlight, oldest at whead.
	waiting  []int32
	whead    int
	inFlight int

	// Horizontal clustering: ready clusterable nodes wait in clusterBuf
	// (journaled as submitted) until flushClusters groups them into batched
	// Condor tasks before the next scheduler step. A batch's task carries
	// the Tag len(results)+k for its index k in batches.
	clusterBuf []pendingInner
	batches    []*clusterBatch
}

// pendingInner is a clusterable node waiting for its batch.
type pendingInner struct {
	node int32
	spec Spec
}

// clusterBatch is one batched task's body: it runs its inner nodes' bodies
// back to back and records each outcome in errs, which complete settles per
// inner node.
type clusterBatch struct {
	nodes []int32
	runs  []condor.Body
	errs  []error
}

// Run runs every inner body. It never fails: inner outcomes are settled
// individually.
func (cb *clusterBatch) Run() error {
	for i, r := range cb.runs {
		if r != nil {
			cb.errs[i] = r.Run()
		}
	}
	return nil
}

func newExecution(g *dag.Graph, runner Runner, opt Options) *execution {
	pos := g.Positions()
	n := len(pos.Nodes)
	x := &execution{
		pos:     pos,
		runner:  runner,
		opt:     opt,
		report:  &Report{},
		results: make([]Result, n),
		pending: make([]int32, n),
	}
	for i, node := range pos.Nodes {
		x.results[i] = Result{Node: node.ID, State: StatePending}
	}
	return x
}

// pass runs the nodes not yet done on sim until it drains. The first pass
// restores Options.Completed; every pass counts each node's parents not yet
// done, releases the nodes with none, and settles completions.
func (x *execution) pass(sim *condor.Simulator, restore bool) error {
	x.sim = sim
	start := sim.Now()
	for i, n := range x.pos.Nodes {
		if restore && x.opt.Completed[n.ID] {
			x.results[i].State = StateDone
			if err := x.record(journal.Record{Kind: journal.KindRestored, Node: n.ID, At: sim.Now()}); err != nil {
				return err
			}
		}
	}
	clear(x.pending)
	for i := range x.results {
		if x.results[i].State == StateDone {
			continue
		}
		for _, c := range x.pos.Children(i) {
			x.pending[c]++
		}
	}

	if err := x.checkAbort(); err != nil {
		return err
	}
	for i := range x.results {
		if x.results[i].State != StatePending || x.pending[i] > 0 {
			continue
		}
		if err := x.release(int32(i)); err != nil {
			return x.fail(err)
		}
	}
	if err := x.flushClusters(); err != nil {
		return x.fail(err)
	}
	for {
		if err := x.checkAbort(); err != nil {
			return x.fail(err)
		}
		completions, ok := sim.Step()
		if !ok {
			break
		}
		for _, c := range completions {
			if err := x.complete(c); err != nil {
				return x.fail(err)
			}
		}
		if err := x.drainWaiting(); err != nil {
			return x.fail(err)
		}
		if err := x.flushClusters(); err != nil {
			return x.fail(err)
		}
	}
	if sim.QueueLen() > 0 {
		return ErrStarved
	}
	x.report.Makespan += sim.Now() - start
	return nil
}

// record makes a state transition durable before it is acted on.
func (x *execution) record(rec journal.Record) error {
	if x.opt.Journal == nil {
		return nil
	}
	if err := x.opt.Journal.Append(rec); err != nil {
		return errors.Join(ErrAborted, err)
	}
	return nil
}

// checkAbort stops the run on a Check failure, journaling the clean abort
// record best-effort (a crashed journal refuses it, which is fine — the
// existing prefix is the truth).
func (x *execution) checkAbort() error {
	if x.opt.Check == nil {
		return nil
	}
	cause := x.opt.Check()
	if cause == nil {
		return nil
	}
	if x.opt.Journal != nil {
		_ = x.opt.Journal.Append(journal.Record{
			Kind: journal.KindAborted, At: x.sim.Now(), Err: cause.Error()})
	}
	return errors.Join(ErrAborted, cause)
}

// fail stops the run on an abort or journal error. The simulator may still
// hold launched side effects on its worker set; wait them out so no
// goroutine touches shared state after the execution returns. (A resumed
// run re-executes those nodes anyway — their completions were never
// journaled — and completion side effects are idempotent.)
func (x *execution) fail(err error) error {
	x.sim.Abort()
	return err
}

// maxInFlight resolves the throttle for this instant.
func (x *execution) maxInFlight() int {
	if x.opt.MaxInFlight == nil {
		return 0
	}
	return x.opt.MaxInFlight()
}

// release hands a ready node to the scheduler, or queues it under the
// throttle.
//
//nvo:hotpath
func (x *execution) release(i int32) error {
	if limit := x.maxInFlight(); limit > 0 && x.inFlight >= limit {
		x.waiting = append(x.waiting, i)
		return nil
	}
	return x.submit(i)
}

// drainWaiting releases throttled nodes as capacity frees up.
func (x *execution) drainWaiting() error {
	for x.whead < len(x.waiting) {
		if limit := x.maxInFlight(); limit > 0 && x.inFlight >= limit {
			return nil
		}
		i := x.waiting[x.whead]
		x.whead++
		if err := x.submit(i); err != nil {
			return err
		}
	}
	x.waiting, x.whead = x.waiting[:0], 0
	return nil
}

// submit starts one attempt of node i: its Runner recipe, the journaled
// submission, then its Condor task (or its place in the cluster buffer).
//
//nvo:hotpath
func (x *execution) submit(i int32) error {
	n := x.pos.Nodes[i]
	res := &x.results[i]
	res.Attempts++
	res.attempt++
	spec, err := x.runner(n, res.attempt)
	if err != nil {
		return fmt.Errorf("dagman: runner for %s: %w", n.ID, err)
	}
	if err := x.record(journal.Record{
		Kind: journal.KindSubmitted, Node: n.ID, Attempt: res.attempt, At: x.sim.Now()}); err != nil {
		return err
	}
	res.State = StateRunning
	x.inFlight++
	if x.opt.ClusterSize > 1 && spec.ClusterKey != "" {
		x.clusterBuf = append(x.clusterBuf, pendingInner{node: i, spec: spec})
		return nil
	}
	x.report.ScheduleEvents++
	return x.sim.Submit(condor.Task{
		ID: n.ID, Tag: int(i), Site: spec.Site, Cost: spec.Cost, Lane: spec.Lane, Run: spec.Run})
}

// flushClusters drains the buffer into batched tasks: grouped by (Site,
// ClusterKey) in first-appearance order, split into chunks of at most
// ClusterSize. Inner Runs execute back to back inside one task — inner
// failures are recorded individually and never abort the batch, so one bad
// galaxy costs one retry, not fifteen re-runs.
func (x *execution) flushClusters() error {
	if len(x.clusterBuf) == 0 {
		return nil
	}
	type groupKey struct{ site, key, lane string }
	var order []groupKey
	groups := map[groupKey][]pendingInner{}
	for _, pi := range x.clusterBuf {
		k := groupKey{site: pi.spec.Site, key: pi.spec.ClusterKey, lane: pi.spec.Lane}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], pi)
	}
	clear(x.clusterBuf)
	x.clusterBuf = x.clusterBuf[:0]
	for _, k := range order {
		items := groups[k]
		for lo := 0; lo < len(items); lo += x.opt.ClusterSize {
			chunk := items[lo:min(lo+x.opt.ClusterSize, len(items))]
			var cost time.Duration
			cb := &clusterBatch{nodes: make([]int32, len(chunk)),
				runs: make([]condor.Body, len(chunk)), errs: make([]error, len(chunk))}
			for i, pi := range chunk {
				cb.nodes[i] = pi.node
				cost += pi.spec.Cost
				cb.runs[i] = pi.spec.Run
			}
			tag := len(x.results) + len(x.batches)
			x.batches = append(x.batches, cb)
			taskID := fmt.Sprintf("cluster-%04d_%s_%s", len(x.batches), k.key, k.site)
			x.report.ScheduleEvents++
			if len(chunk) > 1 {
				x.report.ClusteredTasks++
				x.report.ClusteredNodes += len(chunk)
			}
			if err := x.sim.Submit(condor.Task{
				ID: taskID, Tag: tag, Site: k.site, Cost: cost, Lane: k.lane, Run: cb,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// complete settles one finished Condor task: a node's own task, or a batch,
// whose inner nodes settle one by one with their own errors so recovery
// semantics match unclustered execution.
func (x *execution) complete(c condor.Completion) error {
	if c.Tag < len(x.results) {
		return x.settle(int32(c.Tag), c.Site, c.Start, c.End, c.Err)
	}
	k := c.Tag - len(x.results)
	cb := x.batches[k]
	x.batches[k] = nil
	for i, node := range cb.nodes {
		innerErr := cb.errs[i]
		if c.Err != nil {
			// A whole-task failure (e.g. an injected batch fault) fails
			// every inner job it carried.
			innerErr = c.Err
		}
		if err := x.settle(node, c.Site, c.Start, c.End, innerErr); err != nil {
			return err
		}
	}
	return nil
}

// settle applies one node's outcome: journal, retry/fail/complete, child
// release.
//
//nvo:hotpath
func (x *execution) settle(i int32, site string, startAt, endAt time.Duration, nodeErr error) error {
	res := &x.results[i]
	res.Site = site
	res.Start = startAt
	res.End = endAt
	res.Err = nodeErr
	x.inFlight--

	if nodeErr != nil {
		if res.attempt <= x.opt.MaxRetries {
			if err := x.record(journal.Record{Kind: journal.KindRetried,
				Node: res.Node, Site: site, Attempt: res.attempt,
				At: endAt, Err: nodeErr.Error()}); err != nil {
				return err
			}
			return x.release(i)
		}
		if err := x.record(journal.Record{Kind: journal.KindFailed,
			Node: res.Node, Site: site, Attempt: res.attempt,
			At: endAt, Err: nodeErr.Error()}); err != nil {
			return err
		}
		res.State = StateFailed
		x.markUnrunDescendants(i)
		return nil
	}
	if err := x.record(journal.Record{Kind: journal.KindCompleted,
		Node: res.Node, Site: site, Attempt: res.attempt, At: endAt}); err != nil {
		return err
	}
	res.State = StateDone
	// Release children whose parents are now all done.
	for _, c := range x.pos.Children(int(i)) {
		x.pending[c]--
		if x.pending[c] > 0 || x.results[c].State != StatePending {
			continue // an upstream failure may already have marked it unrun
		}
		if err := x.release(c); err != nil {
			return err
		}
	}
	return nil
}

// markUnrunDescendants marks every pending node reachable from i as unrun.
func (x *execution) markUnrunDescendants(i int32) {
	seen := make([]bool, len(x.results))
	stack := []int32{i}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range x.pos.Children(int(cur)) {
			if seen[c] {
				continue
			}
			seen[c] = true
			if x.results[c].State == StatePending {
				x.results[c].State = StateUnrun
			}
			stack = append(stack, c)
		}
	}
}

// tally counts the node states after a pass. A node still pending or
// running would indicate a scheduler bug; it is counted unrun rather than
// lost silently.
func (x *execution) tally() {
	r := x.report
	r.Results = x.results
	r.Done, r.Failed, r.Unrun = 0, 0, 0
	for i := range x.results {
		switch res := &x.results[i]; res.State {
		case StateDone:
			r.Done++
		case StateFailed:
			r.Failed++
		default:
			res.State = StateUnrun
			r.Unrun++
		}
	}
}

// rearm returns every node not done to pending with a fresh retry budget
// for the next rescue round; batch task ids restart with the round.
func (x *execution) rearm() {
	for i := range x.results {
		if res := &x.results[i]; res.State != StateDone {
			res.State, res.attempt = StatePending, 0
		}
	}
	x.batches = x.batches[:0]
}
