// Package condor simulates the Condor-G multi-pool execution fabric the
// prototype submitted its concrete workflows to (Frey et al. 2001). The
// paper's campaign ran on three Condor pools (USC, Wisconsin, Fermilab); this
// simulator models any number of pools, each with a slot count and relative
// CPU speed, a FIFO matchmaking queue, and a discrete-event clock, so the
// 1152-job campaign executes deterministically in milliseconds of wall time
// while preserving queueing and contention behaviour.
//
// The caller (internal/dagman) submits Tasks and repeatedly calls Step to
// advance the virtual clock to the next completion. A Task's Run closure
// carries its real side effects (computing morphology, moving files,
// registering replicas); by default it executes at completion time in model
// order, and with SetWorkers(n > 1) side effects fan out to a bounded worker
// pool while the model clock stays byte-identical to the serial schedule.
package condor

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/workpool"
)

// Pool describes one Condor pool.
type Pool struct {
	Name  string
	Slots int
	Speed float64 // relative CPU speed; execution time = Cost / Speed
	// TransferSlots, when > 0, gives the pool a dedicated data-movement
	// lane: tasks with Lane == LaneTransfer occupy these slots instead of
	// compute slots, so stage-ins run concurrently with computation (the
	// GridFTP server is not a worker node). 0 keeps the legacy behaviour
	// of transfers competing for compute slots.
	TransferSlots int
}

// LaneTransfer marks data-movement tasks eligible for a pool's dedicated
// transfer lane.
const LaneTransfer = "transfer"

// Task is one schedulable job.
type Task struct {
	ID   string
	Site string        // required pool; "" lets the matchmaker choose
	Cost time.Duration // model execution time at Speed 1.0
	Lane string        // "" = compute slots; LaneTransfer = transfer lane
	Run  func() error  // side effects, executed at completion (may be nil)
}

// Completion reports one finished task.
type Completion struct {
	TaskID string
	Site   string
	Start  time.Duration // model time the task began executing
	End    time.Duration // model time it finished
	Err    error         // non-nil if Run failed
}

// Errors returned by the simulator.
var (
	ErrUnknownPool = errors.New("condor: unknown pool")
	ErrBadTask     = errors.New("condor: bad task")
	ErrDuplicate   = errors.New("condor: duplicate task id in flight")
)

// Stats aggregates scheduler counters.
type Stats struct {
	Submitted int
	Completed int
	Failed    int
	// BusyTime accumulates slot-seconds of execution per site.
	BusyTime map[string]time.Duration
}

type poolState struct {
	Pool
	busy   int     // compute slots in use
	txBusy int     // transfer-lane slots in use
	wait   [2]fifo // tasks pinned here, indexed by laneIndex
}

// queued is one waiting task, stamped with its global submission sequence.
type queued struct {
	seq  int
	task Task
}

// fifo is the wait queue of one matchmaking constraint class: every task in
// it has the same pinned site (or none) and the same lane, so match() gives
// all of them the same answer and only the head can be the next one placed.
type fifo struct {
	items []queued
	head  int
}

func (f *fifo) empty() bool { return f.head == len(f.items) }

func (f *fifo) push(q queued) { f.items = append(f.items, q) }

// front returns the oldest waiting entry; the fifo must not be empty.
func (f *fifo) front() *queued { return &f.items[f.head] }

// pop removes and returns the head's task. The consumed prefix is compacted
// away once it is at least half the slice, so a queue that never drains
// stays proportional to what is waiting, at amortized O(1) per task.
func (f *fifo) pop() Task {
	t := f.items[f.head].task
	f.items[f.head] = queued{} // drop the Run closure
	f.head++
	if f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items = f.items[:n]
		f.head = 0
	}
	return t
}

// laneIndex is a task's lane half of its constraint class.
func laneIndex(t Task) int {
	if t.Lane == LaneTransfer {
		return 1
	}
	return 0
}

// lane reports which capacity a task consumes at this pool: the transfer
// lane only exists when the pool is configured with TransferSlots.
func (p *poolState) isTransferLane(t Task) bool {
	return t.Lane == LaneTransfer && p.TransferSlots > 0
}

func (p *poolState) freeFor(t Task) int {
	if p.isTransferLane(t) {
		return p.TransferSlots - p.txBusy
	}
	return p.Slots - p.busy
}

// event is a scheduled completion.
type event struct {
	at    time.Duration
	seq   int // FIFO tie-break for determinism
	task  Task
	site  string
	start time.Duration
	// fault is the injector's verdict on this execution, drawn when the task
	// was placed; a non-nil fault fails the task at its completion instant
	// without running its side effects.
	fault error
	// async carries the task's in-flight side effects in parallel mode: the
	// Run closure is launched on the worker pool the moment the model starts
	// the task, and Step waits on this handle when the clock reaches the
	// completion instant. Nil in serial mode.
	async *workpool.Future
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// OpExec is the fault-point name checked when a task is placed; rules
// select executions by pool (Site) and task id (Key).
const OpExec = "condor.exec"

// Simulator is the discrete-event scheduler. It is not safe for concurrent
// use; drive it from one goroutine (as DAGMan does). With SetWorkers(n > 1)
// the side effects of running tasks execute on a bounded worker pool — see
// SetWorkers for the determinism contract.
type Simulator struct {
	pools   map[string]*poolState
	ordered []string // pool names, sorted, for deterministic matchmaking
	now     time.Duration
	// The wait queue is one FIFO per matchmaking constraint: each pool's
	// wait[lane] for tasks pinned there, anyWait[lane] for unpinned ones.
	// classes lists them all; queued counts the tasks they hold. probes
	// counts match() calls for the complexity gate in the tests.
	anyWait  [2]fifo
	classes  []*fifo
	queued   int
	probes   int
	running  eventQueue
	inFlight map[string]bool
	seq      int
	stats    Stats
	inj      *faults.Injector
	workers  int
	pool     *workpool.Pool

	// submitOverhead models the serialized per-job scheduling cost of the
	// 2003 Condor-G/GRAM submission path: the scheduler hands jobs to the
	// gatekeeper one at a time, so each placed task's start is gated behind
	// the previous submission plus this overhead. Zero (the default)
	// reproduces the instant-start legacy behaviour exactly. This is the
	// overhead horizontal clustering amortizes: a clustered task pays it
	// once for its whole batch.
	submitOverhead time.Duration
	submitGate     time.Duration
}

// NewSimulator builds a simulator over the given pools.
func NewSimulator(pools ...Pool) (*Simulator, error) {
	if len(pools) == 0 {
		return nil, errors.New("condor: need at least one pool")
	}
	s := &Simulator{
		pools:    map[string]*poolState{},
		inFlight: map[string]bool{},
		stats:    Stats{BusyTime: map[string]time.Duration{}},
	}
	for _, p := range pools {
		if p.Name == "" || p.Slots <= 0 {
			return nil, fmt.Errorf("condor: pool needs name and positive slots: %+v", p)
		}
		if p.Speed <= 0 {
			p.Speed = 1
		}
		if p.TransferSlots < 0 {
			p.TransferSlots = 0
		}
		if _, dup := s.pools[p.Name]; dup {
			return nil, fmt.Errorf("condor: duplicate pool %q", p.Name)
		}
		s.pools[p.Name] = &poolState{Pool: p}
		s.ordered = append(s.ordered, p.Name)
	}
	sort.Strings(s.ordered)
	s.classes = []*fifo{&s.anyWait[0], &s.anyWait[1]}
	for _, name := range s.ordered {
		p := s.pools[name]
		s.classes = append(s.classes, &p.wait[0], &p.wait[1])
	}
	return s, nil
}

// SetInjector installs (or removes, with nil) the fault injector. An
// injected fault fails the task at its completion instant — the job ran on
// a flaky node — without executing its Run side effects, exactly what a
// dead worker looks like to DAGMan.
func (s *Simulator) SetInjector(in *faults.Injector) { s.inj = in }

// SetWorkers bounds the worker pool that executes task side effects. The
// default (n <= 1) is fully serial: each Run executes inline at its
// completion instant, in model order — the classic single-threaded DAGMan
// event loop, byte-identical to prior behaviour.
//
// With n > 1 the simulator launches a task's Run the moment the matchmaker
// places it on a slot (every task simultaneously in flight is independent:
// DAGMan releases a node only after all its parents have completed), lets up
// to n side-effect bodies run concurrently, and joins each task's result when
// the model clock reaches its completion instant. The discrete-event clock,
// matchmaking, completion order and per-site accounting stay byte-identical
// to the serial schedule; only wall-clock time and the interleaving of side
// effects change, so Run closures must be safe to run concurrently with each
// other. Fault-injection checks happen at placement time, in deterministic
// dispatch order, at every width.
//
// Call SetWorkers before submitting tasks; changing it mid-run leaves
// already-placed tasks on their original execution mode.
func (s *Simulator) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
	if n > 1 {
		s.pool = workpool.NewPool(n)
	} else {
		s.pool = nil
	}
}

// SetSubmitOverhead installs the serialized per-task scheduling overhead
// (see the field doc). Call before submitting tasks; 0 disables.
func (s *Simulator) SetSubmitOverhead(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.submitOverhead = d
}

// Workers returns the side-effect concurrency bound (minimum 1).
func (s *Simulator) Workers() int {
	if s.workers < 1 {
		return 1
	}
	return s.workers
}

// Now returns the current model time.
func (s *Simulator) Now() time.Duration { return s.now }

// Pools returns the pool names, sorted.
func (s *Simulator) Pools() []string { return append([]string(nil), s.ordered...) }

// BusySlots returns the running-job count at a site.
func (s *Simulator) BusySlots(site string) int {
	if p, ok := s.pools[site]; ok {
		return p.busy
	}
	return 0
}

// QueueLen returns the number of tasks waiting for a slot.
func (s *Simulator) QueueLen() int { return s.queued }

// RunningLen returns the number of tasks currently executing.
func (s *Simulator) RunningLen() int { return len(s.running) }

// Idle reports whether nothing is queued or running.
func (s *Simulator) Idle() bool { return s.queued == 0 && len(s.running) == 0 }

// Stats returns the cumulative counters.
func (s *Simulator) Stats() Stats {
	out := s.stats
	out.BusyTime = make(map[string]time.Duration, len(s.stats.BusyTime))
	for k, v := range s.stats.BusyTime {
		out.BusyTime[k] = v
	}
	return out
}

// Submit enqueues a task and dispatches it immediately if a slot is free.
func (s *Simulator) Submit(t Task) error {
	if t.ID == "" {
		return fmt.Errorf("%w: empty id", ErrBadTask)
	}
	if t.Cost < 0 {
		return fmt.Errorf("%w: negative cost", ErrBadTask)
	}
	if t.Site != "" {
		if _, ok := s.pools[t.Site]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownPool, t.Site)
		}
	}
	if s.inFlight[t.ID] {
		return fmt.Errorf("%w: %q", ErrDuplicate, t.ID)
	}
	s.inFlight[t.ID] = true
	s.stats.Submitted++
	class := &s.anyWait[laneIndex(t)]
	if t.Site != "" {
		class = &s.pools[t.Site].wait[laneIndex(t)]
	}
	// Submitted only grows, so it doubles as the global submission sequence.
	class.push(queued{seq: s.stats.Submitted, task: t})
	s.queued++
	s.dispatch()
	return nil
}

// dispatch starts every queued task that can get a slot, in submission
// order: it repeatedly places the oldest class head that match() can place
// and stops when no head is placeable. That is the order a scan of one
// global FIFO places them in: match() answers alike for every task of a
// class and placing a task only shrinks free capacity, so within a class
// only the head can be placeable, and no head older than the one just
// placed can become placeable afterwards.
func (s *Simulator) dispatch() {
	for {
		var next *fifo
		site := ""
		for _, c := range s.classes {
			if c.empty() || (next != nil && next.front().seq < c.front().seq) {
				continue
			}
			if at := s.match(c.front().task); at != "" {
				next, site = c, at
			}
		}
		if next == nil {
			return
		}
		s.queued--
		s.place(next.pop(), site)
	}
}

// place starts t on a free slot of site at the current model time.
func (s *Simulator) place(t Task, site string) {
	p := s.pools[site]
	if p.isTransferLane(t) {
		p.txBusy++
	} else {
		p.busy++
	}
	start := s.now
	if s.submitOverhead > 0 {
		// The submission path is a serial resource: this job starts
		// only after every earlier submission has cleared it.
		if s.submitGate > start {
			start = s.submitGate
		}
		start += s.submitOverhead
		s.submitGate = start
	}
	dur := time.Duration(float64(t.Cost) / p.Speed)
	s.seq++
	e := event{
		at:    start + dur,
		seq:   s.seq,
		task:  t,
		site:  site,
		start: start,
		// The fault draw happens here at every width, so an injector's
		// probability rules see tasks in placement order whether side
		// effects run inline or on the worker pool.
		fault: s.inj.Check(faults.Op{Name: OpExec, Site: site, Key: t.ID}),
	}
	if s.pool != nil {
		e.async = s.launch(t, e.fault)
	}
	heap.Push(&s.running, e)
}

// launch starts a placed task's side effects on the worker pool (parallel
// mode). An injected fault skips the Run body entirely — the job landed on
// a flaky node — and surfaces at the completion instant.
func (s *Simulator) launch(t Task, fault error) *workpool.Future {
	if fault != nil {
		return workpool.Resolved(fault)
	}
	if t.Run == nil {
		return workpool.Resolved(nil)
	}
	return s.pool.Submit(t.Run)
}

// match picks a pool with a free slot for the task: its pinned site, or the
// pool with the most free slots (ties by name). Returns "" if none is free.
// Transfer-lane tasks consume a pool's TransferSlots where configured.
func (s *Simulator) match(t Task) string {
	s.probes++
	if t.Site != "" {
		if p := s.pools[t.Site]; p.freeFor(t) > 0 {
			return t.Site
		}
		return ""
	}
	best := ""
	bestFree := 0
	for _, name := range s.ordered {
		p := s.pools[name]
		free := p.freeFor(t)
		if free > bestFree {
			best = name
			bestFree = free
		}
	}
	return best
}

// Step advances the clock to the next completion time and returns every task
// completing at that instant (deterministic order). It returns ok=false when
// nothing is running; if tasks remain queued at that point they are starved
// (pinned to saturated pools) — callers detect that via QueueLen.
func (s *Simulator) Step() (completions []Completion, ok bool) {
	if len(s.running) == 0 {
		return nil, false
	}
	next := s.running[0].at
	s.now = next
	for len(s.running) > 0 && s.running[0].at == next {
		e := heap.Pop(&s.running).(event)
		p := s.pools[e.site]
		if p.isTransferLane(e.task) {
			p.txBusy--
		} else {
			p.busy--
		}
		s.stats.BusyTime[e.site] += e.at - e.start
		delete(s.inFlight, e.task.ID)

		var err error
		if e.async != nil {
			// Parallel mode: the side effects ran when the task was placed;
			// join the result at its completion instant.
			err = e.async.Wait()
		} else if err = e.fault; err == nil && e.task.Run != nil {
			err = e.task.Run()
		}
		if err != nil {
			s.stats.Failed++
		} else {
			s.stats.Completed++
		}
		completions = append(completions, Completion{
			TaskID: e.task.ID,
			Site:   e.site,
			Start:  e.start,
			End:    e.at,
			Err:    err,
		})
	}
	// Freed slots may admit queued work.
	s.dispatch()
	return completions, true
}

// Abort discards all queued work and waits for the side effects of
// already-launched tasks to finish, leaving the simulator quiet: no task
// queued, running or in flight, every slot free, so the same ids can be
// submitted again. It models the workflow manager dying: nothing new is
// dispatched, but side effects already handed to worker nodes run to
// completion unobserved (their completions are never reported, so nothing
// downstream acts on them).
func (s *Simulator) Abort() {
	for _, e := range s.running {
		if e.async != nil {
			_ = e.async.Wait()
		}
	}
	s.running = nil
	for _, c := range s.classes {
		*c = fifo{}
	}
	s.queued = 0
	clear(s.inFlight)
	for _, p := range s.pools {
		p.busy, p.txBusy = 0, 0
	}
}

// Drain runs Step until the simulator is quiet and returns all completions.
func (s *Simulator) Drain() []Completion {
	var all []Completion
	for {
		cs, ok := s.Step()
		if !ok {
			return all
		}
		all = append(all, cs...)
	}
}
