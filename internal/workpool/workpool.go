// Package workpool is the bounded worker set behind every concurrent fan-out
// in the grid stack: the Condor simulator's parallel leaf-job side effects,
// the portal's concurrent archive queries, and the compute service's image
// staging. It offers two shapes over one worker loop:
//
//   - Run: an indexed parallel for-loop over a fixed task count, for callers
//     that fan out, wait for everything, and merge results in index order —
//     the deterministic-merge pattern the portal and image cache use.
//   - Pool: streaming submission for the discrete-event simulator, which
//     launches a task's side effects the moment the model starts it and
//     collects the result when the model clock reaches its completion instant.
//     A result lands in a Slot the submitter owns, so a submission costs no
//     goroutine, channel or handle of its own.
//
// Both shapes run at most W bodies at once on at most W worker goroutines,
// which take bodies from one FIFO in submission order. A worker count ≤ 1
// degenerates to inline, submission-order execution — byte-identical to the
// serial code paths.
package workpool

import (
	"errors"
	"sync"
)

// ErrPoolClosed is the outcome of a body that Close revoked before it
// started, and of any submission after Close.
var ErrPoolClosed = errors.New("workpool: pool closed")

// Run invokes fn(i) for every i in [0, n) using at most workers concurrent
// goroutines, and returns when all calls have finished. With workers <= 1 (or
// n <= 1) the calls run inline in index order, making the serial mode an
// exact replay of a plain loop. fn must write its results into caller-owned,
// index-addressed slots; Run itself imposes no ordering on completion, so the
// caller's merge order — not scheduling — determines the output order.
func Run(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p := NewPool(workers)
	p.mu.Lock()
	for i := 0; i < n; i++ {
		p.enqueue(job{each: fn, i: i})
	}
	// Closed with a full queue: the workers drain it, then exit.
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Slot is where one submitted body's outcome lands. The submitter owns it and
// keeps it at a fixed address from Submit until Wait returns; the pool writes
// it under its lock, so a Slot needs no synchronisation of its own.
type Slot struct {
	err  error
	done bool
}

// job is one queued body: a Submit body with its Slot, or one index of a Run.
type job struct {
	run  func() error
	slot *Slot
	each func(int)
	i    int
}

func (j job) do() error {
	if j.each != nil {
		j.each(j.i)
		return nil
	}
	return j.run()
}

// Pool is a bounded set of worker goroutines draining one FIFO of bodies in
// submission order. Workers start on demand, up to the bound, park while the
// queue is empty, and all exit at Close, which joins them: a Pool never leaks
// a goroutine past its owner's lifetime.
type Pool struct {
	workers int

	mu      sync.Mutex
	work    sync.Cond // a body was queued, or the pool closed
	settled sync.Cond // a body finished
	queue   []job
	head    int
	live    int // worker goroutines started and not yet exited
	idle    int // live workers parked on work and not yet signalled
	closed  bool
	wg      sync.WaitGroup
}

// NewPool builds a pool with the given worker bound. workers <= 1 yields an
// inline pool: Submit runs the body synchronously before returning, which is
// the deterministic serial mode.
func NewPool(workers int) *Pool {
	p := &Pool{workers: workers}
	p.work.L = &p.mu
	p.settled.L = &p.mu
	return p
}

// inline reports whether the pool runs bodies on the submitting goroutine.
func (p *Pool) inline() bool { return p == nil || p.workers <= 1 }

// Workers returns the concurrency bound (minimum 1).
func (p *Pool) Workers() int {
	if p.inline() {
		return 1
	}
	return p.workers
}

// Submit queues run, whose outcome lands in slot. On an inline pool (nil, or
// Workers <= 1) run executes before Submit returns, so submission order equals
// execution order — the property the simulator's serial mode relies on. On a
// concurrent pool the oldest waiting body goes to the next free worker, and a
// worker is started while fewer than Workers are live and none is idle. After
// Close the slot resolves to ErrPoolClosed without running anything.
//
//nvo:hotpath
func (p *Pool) Submit(slot *Slot, run func() error) {
	if p.inline() {
		slot.err, slot.done = run(), true
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		slot.err, slot.done = ErrPoolClosed, true
		return
	}
	slot.err, slot.done = nil, false
	p.enqueue(job{run: run, slot: slot})
}

// enqueue appends j to the FIFO and hands it to an idle worker, or starts
// one. The caller holds p.mu.
func (p *Pool) enqueue(j job) {
	p.queue = append(p.queue, j)
	switch {
	case p.idle > 0:
		p.idle--
		p.work.Signal()
	case p.live < p.workers:
		p.live++
		p.wg.Add(1)
		go p.worker()
	}
}

// Wait blocks until the body submitted with slot has finished (or was
// revoked) and returns its error. Waiting again returns the same error.
func (p *Pool) Wait(slot *Slot) error {
	if p.inline() {
		return slot.err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for !slot.done {
		p.settled.Wait()
	}
	return slot.err
}

// Close revokes every body no worker has started (its slot resolves to
// ErrPoolClosed), lets the started ones finish, and joins every worker.
// Close is idempotent; Submit racing Close is the caller's error.
func (p *Pool) Close() {
	if p.inline() {
		return
	}
	p.mu.Lock()
	p.closed = true
	for ; p.head < len(p.queue); p.head++ {
		if s := p.queue[p.head].slot; s != nil {
			s.err, s.done = ErrPoolClosed, true
		}
		p.queue[p.head] = job{}
	}
	p.idle = 0
	p.work.Broadcast()
	p.settled.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// worker is the one worker loop: take the oldest queued body, run it outside
// the lock, settle its slot, repeat; park while the queue is empty, and exit
// once the pool is closed and the queue drained.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		j, ok := p.take()
		if !ok {
			return
		}
		p.settle(j.slot, j.do())
	}
}

// take parks until a body is queued and removes the oldest one; ok is false
// once the pool is closed and the queue drained, and the worker then exits.
func (p *Pool) take() (j job, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.head == len(p.queue) && !p.closed {
		p.idle++
		p.work.Wait()
	}
	if p.head == len(p.queue) {
		p.live--
		return job{}, false
	}
	return p.pop(), true
}

// settle publishes a finished body's outcome to its slot (a Run index has
// none) and wakes the waiters.
func (p *Pool) settle(slot *Slot, err error) {
	if slot == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	slot.err, slot.done = err, true
	p.settled.Broadcast()
}

// pop removes the oldest queued job. The consumed prefix is compacted away
// once it is at least half the slice, so the queue stays proportional to what
// is waiting and its backing array is reused. The caller holds p.mu.
func (p *Pool) pop() job {
	j := p.queue[p.head]
	p.queue[p.head] = job{} // drop the body's closure
	p.head++
	if p.head*2 >= len(p.queue) {
		n := copy(p.queue, p.queue[p.head:])
		clear(p.queue[n:])
		p.queue, p.head = p.queue[:n], 0
	}
	return j
}
