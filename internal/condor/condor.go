// Package condor simulates the Condor-G multi-pool execution fabric the
// prototype submitted its concrete workflows to (Frey et al. 2001). The
// paper's campaign ran on three Condor pools (USC, Wisconsin, Fermilab); this
// simulator models any number of pools, each with a slot count and relative
// CPU speed, a FIFO matchmaking queue, and a discrete-event clock, so the
// 1152-job campaign executes deterministically in milliseconds of wall time
// while preserving queueing and contention behaviour.
//
// The caller (internal/dagman) submits Tasks and repeatedly calls Step to
// advance the virtual clock to the next completion. A Task's Run body
// carries its real side effects (computing morphology, moving files,
// registering replicas); by default it executes at completion time in model
// order, and with SetWorkers(n > 1) side effects fan out to a bounded worker
// set while the model clock stays byte-identical to the serial schedule.
//
// Per task the simulator allocates nothing once it is warm: a task's pool is
// resolved to an index at Submit, a running task occupies a fixed entry of
// an in-flight table sized to the pools' total capacity, the event heap is
// typed, and Step reuses one completion buffer.
package condor

import (
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

// Body is a task's side effects. It is an interface rather than a function
// so that a caller describing thousands of tasks can hand out pointers into
// one slab of its own bodies instead of allocating a closure per task.
type Body interface {
	Run() error
}

// BodyFunc adapts a function to a Body.
type BodyFunc func() error

// Run calls f.
func (f BodyFunc) Run() error { return f() }

// Task is one schedulable job.
type Task struct {
	ID   string
	Site string        // required pool; "" lets the matchmaker choose
	Cost time.Duration // model execution time at Speed 1.0
	Lane string        // "" = compute slots; LaneTransfer = transfer lane
	Run  Body          // side effects, executed at completion (may be nil)
	// Tag is an opaque integer the caller attaches to the task and gets back
	// on its Completion (DAGMan's graph position of the node), so a
	// completion is matched to its work without a lookup by ID.
	Tag int
}

// Completion reports one finished task.
type Completion struct {
	TaskID string
	Tag    int // the Task's Tag
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
	busy     int           // compute slots in use
	txBusy   int           // transfer-lane slots in use
	wait     [2]fifo       // tasks pinned here, indexed by laneIndex
	busyTime time.Duration // Stats.BusyTime of this site
	finished int           // completions here; a site with none has no BusyTime entry
}

// queued is one waiting task, stamped with its global submission sequence
// and its pinned pool's index (-1 = any pool).
type queued struct {
	seq  int
	pool int
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

// pop removes and returns the head. The consumed prefix is compacted away
// once it is at least half the slice, so a queue that never drains stays
// proportional to what is waiting, at amortized O(1) per task.
func (f *fifo) pop() queued {
	q := f.items[f.head]
	f.items[f.head] = queued{} // drop the Run body
	f.head++
	if f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items = f.items[:n]
		f.head = 0
	}
	return q
}

// laneIndex is a task's lane half of its constraint class.
func laneIndex(t Task) int {
	if t.Lane == LaneTransfer {
		return 1
	}
	return 0
}

// isTransferLane reports which capacity a task of this lane consumes at this
// pool: the transfer lane only exists when the pool has TransferSlots.
func (p *poolState) isTransferLane(lane string) bool {
	return lane == LaneTransfer && p.TransferSlots > 0
}

func (p *poolState) freeFor(lane string) int {
	if p.isTransferLane(lane) {
		return p.TransferSlots - p.txBusy
	}
	return p.Slots - p.busy
}

// flight is one running task. It holds one entry of Simulator.flights from
// placement to completion, so its result slot has a fixed address while a
// worker runs the task's side effects.
type flight struct {
	task  Task
	pool  int
	tx    bool // occupies a transfer-lane slot
	start time.Duration
	// fault is the injector's verdict on this execution, drawn when the task
	// was placed; a non-nil fault fails the task at its completion instant
	// without running its side effects.
	fault error
	// launched marks side effects handed to the worker set at placement
	// (parallel mode); their outcome lands in res and Step waits for it when
	// the clock reaches the completion instant.
	launched bool
	res      workpool.Slot
}

// event is a scheduled completion: the in-flight entry that completes, and
// its place in the completion order.
type event struct {
	at     time.Duration
	seq    int // FIFO tie-break for determinism
	flight int
}

func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// OpExec is the fault-point name checked when a task is placed; rules
// select executions by pool (Site) and task id (Key).
const OpExec = "condor.exec"

// Simulator is the discrete-event scheduler. It is not safe for concurrent
// use; drive it from one goroutine (as DAGMan does). With SetWorkers(n > 1)
// the side effects of running tasks execute on a bounded worker set — see
// SetWorkers for the determinism contract.
type Simulator struct {
	pools []poolState    // sorted by name, for deterministic matchmaking
	index map[string]int // pool name -> position in pools
	now   time.Duration
	// The wait queue is one FIFO per matchmaking constraint: each pool's
	// wait[lane] for tasks pinned there, anyWait[lane] for unpinned ones.
	// classes lists them all; queued counts the tasks they hold. probes
	// counts match() calls for the complexity gate in the tests.
	anyWait [2]fifo
	classes []*fifo
	queued  int
	probes  int
	// running is the binary min-heap of completions by (at, seq); flights
	// is the in-flight table, one entry per slot of capacity, and free the
	// stack of its unused entries.
	running  []event
	flights  []flight
	free     []int
	done     []Completion // Step's result, reused by the next Step
	inFlight map[string]bool
	seq      int
	stats    Stats
	inj      *faults.Injector
	workers  int
	// pool runs side effects in parallel mode. It is started on the first
	// launch and closed whenever the simulator goes quiet (Step finds
	// nothing running, or Abort), which joins its workers.
	pool *workpool.Pool

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
		index:    map[string]int{},
		inFlight: map[string]bool{},
	}
	capacity := 0
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
		if _, dup := s.index[p.Name]; dup {
			return nil, fmt.Errorf("condor: duplicate pool %q", p.Name)
		}
		s.index[p.Name] = -1
		s.pools = append(s.pools, poolState{Pool: p})
		capacity += p.Slots + p.TransferSlots
	}
	sort.Slice(s.pools, func(i, j int) bool { return s.pools[i].Name < s.pools[j].Name })
	s.classes = []*fifo{&s.anyWait[0], &s.anyWait[1]}
	for i := range s.pools {
		s.index[s.pools[i].Name] = i
		s.classes = append(s.classes, &s.pools[i].wait[0], &s.pools[i].wait[1])
	}
	// Every running task holds a slot, so the table never outgrows the
	// pools' total capacity.
	s.flights = make([]flight, capacity)
	s.free = make([]int, 0, capacity)
	s.resetFree()
	return s, nil
}

// resetFree marks every in-flight entry unused.
func (s *Simulator) resetFree() {
	s.free = s.free[:0]
	for i := len(s.flights) - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
}

// SetInjector installs (or removes, with nil) the fault injector. An
// injected fault fails the task at its completion instant — the job ran on
// a flaky node — without executing its Run side effects, exactly what a
// dead worker looks like to DAGMan.
func (s *Simulator) SetInjector(in *faults.Injector) { s.inj = in }

// SetWorkers bounds the worker set that executes task side effects. The
// default (n <= 1) is fully serial: each Run executes inline at its
// completion instant, in model order — the classic single-threaded DAGMan
// event loop, byte-identical to prior behaviour.
//
// With n > 1 the simulator hands a task's Run to the worker set the moment
// the matchmaker places it on a slot (every task simultaneously in flight is
// independent: DAGMan releases a node only after all its parents have
// completed); the bodies start in placement order, up to n at once, and each
// task's result is joined when the model clock reaches its completion
// instant. The discrete-event clock, matchmaking, completion order and
// per-site accounting stay byte-identical to the serial schedule; only
// wall-clock time and the interleaving of side effects change, so Run
// bodies must be safe to run concurrently with each other. Fault-injection
// checks happen at placement time, in deterministic dispatch order, at every
// width.
//
// Call SetWorkers before submitting tasks; changing it mid-run leaves
// already-placed tasks on their original execution mode.
func (s *Simulator) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
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
func (s *Simulator) Pools() []string {
	out := make([]string, len(s.pools))
	for i := range s.pools {
		out[i] = s.pools[i].Name
	}
	return out
}

// BusySlots returns the running-job count at a site.
func (s *Simulator) BusySlots(site string) int {
	if i, ok := s.index[site]; ok {
		return s.pools[i].busy
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
	out.BusyTime = map[string]time.Duration{}
	for i := range s.pools {
		if p := &s.pools[i]; p.finished > 0 {
			out.BusyTime[p.Name] = p.busyTime
		}
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
	pool := -1
	if t.Site != "" {
		i, ok := s.index[t.Site]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownPool, t.Site)
		}
		pool = i
	}
	if s.inFlight[t.ID] {
		return fmt.Errorf("%w: %q", ErrDuplicate, t.ID)
	}
	s.inFlight[t.ID] = true
	s.stats.Submitted++
	class := &s.anyWait[laneIndex(t)]
	if pool >= 0 {
		class = &s.pools[pool].wait[laneIndex(t)]
	}
	// Submitted only grows, so it doubles as the global submission sequence.
	class.push(queued{seq: s.stats.Submitted, pool: pool, task: t})
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
//
//nvo:hotpath
func (s *Simulator) dispatch() {
	for {
		var next *fifo
		pool := -1
		for _, c := range s.classes {
			if c.empty() || (next != nil && next.front().seq < c.front().seq) {
				continue
			}
			if at := s.match(c.front()); at >= 0 {
				next, pool = c, at
			}
		}
		if next == nil {
			return
		}
		s.queued--
		s.place(next.pop(), pool)
	}
}

// place starts q's task on a free slot of the pool at index pool, at the
// current model time.
//
//nvo:hotpath
func (s *Simulator) place(q queued, pool int) {
	p := &s.pools[pool]
	tx := p.isTransferLane(q.task.Lane)
	if tx {
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
	dur := time.Duration(float64(q.task.Cost) / p.Speed)
	s.seq++
	i := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	f := &s.flights[i]
	*f = flight{
		task:  q.task,
		pool:  pool,
		tx:    tx,
		start: start,
		// The fault draw happens here at every width, so an injector's
		// probability rules see tasks in placement order whether side
		// effects run inline or on the worker set.
		fault: s.inj.Check(faults.Op{Name: OpExec, Site: p.Name, Key: q.task.ID}),
	}
	// An injected fault skips the Run body entirely — the job landed on a
	// flaky node — and surfaces at the completion instant.
	if s.workers > 1 && f.fault == nil && f.task.Run != nil {
		f.launched = true
		s.workerSet().Submit(&f.res, f.task.Run)
	}
	s.push(event{at: start + dur, seq: s.seq, flight: i})
}

// workerSet returns the parallel mode's worker set, starting it if the
// simulator has been quiet since it last closed.
func (s *Simulator) workerSet() *workpool.Pool {
	if s.pool == nil {
		s.pool = workpool.NewPool(s.workers)
	}
	return s.pool
}

// quiesce closes the worker set, joining its workers. Every body it ran has
// been waited for by then.
func (s *Simulator) quiesce() {
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
}

// push adds e to the completion heap.
func (s *Simulator) push(e event) {
	h := append(s.running, e)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(h[up]) {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	s.running = h
}

// pop removes the earliest completion from the heap and returns its
// in-flight entry.
func (s *Simulator) pop() int {
	h := s.running
	top := h[0].flight
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && h[l].before(h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	s.running = h
	return top
}

// match picks a pool with a free slot for q's task: its pinned pool, or the
// pool with the most free slots (ties by name). Returns -1 if none is free.
// Transfer-lane tasks consume a pool's TransferSlots where configured.
func (s *Simulator) match(q *queued) int {
	s.probes++
	if q.pool >= 0 {
		if s.pools[q.pool].freeFor(q.task.Lane) > 0 {
			return q.pool
		}
		return -1
	}
	best, bestFree := -1, 0
	for i := range s.pools {
		if free := s.pools[i].freeFor(q.task.Lane); free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// Step advances the clock to the next completion time and returns every task
// completing at that instant (deterministic order). The returned slice is
// reused by the next Step. It returns ok=false when nothing is running; if
// tasks remain queued at that point they are starved (pinned to saturated
// pools) — callers detect that via QueueLen.
//
//nvo:hotpath
func (s *Simulator) Step() (completions []Completion, ok bool) {
	if len(s.running) == 0 {
		s.quiesce()
		return nil, false
	}
	next := s.running[0].at
	s.now = next
	s.done = s.done[:0]
	for len(s.running) > 0 && s.running[0].at == next {
		i := s.pop()
		f := &s.flights[i]
		p := &s.pools[f.pool]
		if f.tx {
			p.txBusy--
		} else {
			p.busy--
		}
		p.busyTime += next - f.start
		p.finished++
		delete(s.inFlight, f.task.ID)

		err := f.fault
		switch {
		case f.launched:
			// Parallel mode: the side effects ran when the task was placed;
			// join the result at its completion instant.
			err = s.pool.Wait(&f.res)
		case err == nil && f.task.Run != nil:
			err = f.task.Run.Run()
		}
		if err != nil {
			s.stats.Failed++
		} else {
			s.stats.Completed++
		}
		s.done = append(s.done, Completion{
			TaskID: f.task.ID,
			Tag:    f.task.Tag,
			Site:   p.Name,
			Start:  f.start,
			End:    next,
			Err:    err,
		})
		*f = flight{} // drop the Run body
		s.free = append(s.free, i)
	}
	// Freed slots may admit queued work.
	s.dispatch()
	return s.done, true
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
		if f := &s.flights[e.flight]; f.launched {
			_ = s.pool.Wait(&f.res)
		}
	}
	s.quiesce()
	s.running = s.running[:0]
	clear(s.flights)
	s.resetFree()
	for _, c := range s.classes {
		*c = fifo{}
	}
	s.queued = 0
	clear(s.inFlight)
	for i := range s.pools {
		s.pools[i].busy, s.pools[i].txBusy = 0, 0
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
