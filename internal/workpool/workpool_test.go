package workpool

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		const n = 100
		hits := make([]int32, n)
		Run(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestRunSerialPreservesOrder(t *testing.T) {
	var order []int
	Run(1, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak int32
	var mu sync.Mutex
	Run(workers, 50, func(int) {
		c := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if c > peak {
			peak = c
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
	})
	if peak > workers {
		t.Fatalf("peak concurrency %d > bound %d", peak, workers)
	}
}

func TestRunZeroTasks(t *testing.T) {
	Run(4, 0, func(int) { t.Fatal("must not run") })
}

func TestPoolInlineRunsSynchronously(t *testing.T) {
	p := NewPool(1)
	ran := false
	var slot Slot
	p.Submit(&slot, bodyFunc(func() error { ran = true; return nil }))
	if !ran {
		t.Fatal("inline pool must run the body before Submit returns")
	}
	if err := p.Wait(&slot); err != nil {
		t.Fatal(err)
	}
}

func TestNilPoolIsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers = %d", p.Workers())
	}
	want := errors.New("x")
	var slot Slot
	p.Submit(&slot, bodyFunc(func() error { return want }))
	if err := p.Wait(&slot); err != want {
		t.Fatalf("err = %v", err)
	}
}

// TestPoolConcurrentResolvesAllSlots: every submitted body's error lands in
// its own slot.
func TestPoolConcurrentResolvesAllSlots(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 64
	slots := make([]Slot, n)
	errWant := errors.New("boom")
	for i := 0; i < n; i++ {
		p.Submit(&slots[i], bodyFunc(func() error {
			if i%7 == 0 {
				return errWant
			}
			return nil
		}))
	}
	for i := range slots {
		err := p.Wait(&slots[i])
		if i%7 == 0 && err != errWant {
			t.Fatalf("slot %d: err = %v, want %v", i, err, errWant)
		}
		if i%7 != 0 && err != nil {
			t.Fatalf("slot %d: err = %v", i, err)
		}
	}
}

func TestPoolWaitIsIdempotent(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var slot Slot
	p.Submit(&slot, bodyFunc(func() error { return nil }))
	for i := 0; i < 3; i++ {
		if err := p.Wait(&slot); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolCloseJoinsAndRevokesParkedWaiters(t *testing.T) {
	p := NewPool(2)
	gate := make(chan struct{})
	var running sync.WaitGroup
	running.Add(2)
	hold := bodyFunc(func() error { running.Done(); <-gate; return nil })
	var s1, s2, s3 Slot
	p.Submit(&s1, hold)
	p.Submit(&s2, hold)
	running.Wait() // both workers now busy

	// This body waits in the queue: both workers are busy and stay busy
	// until gate closes, so Close's revocation must be what resolves it.
	p.Submit(&s3, bodyFunc(func() error {
		t.Error("revoked task body must not run")
		return nil
	}))

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	if err := p.Wait(&s3); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("queued submission after Close: err = %v, want ErrPoolClosed", err)
	}

	// Started bodies run to completion, and Close joins them.
	close(gate)
	<-closed
	if err := p.Wait(&s1); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(&s2); err != nil {
		t.Fatal(err)
	}
}

func TestPoolCloseAfterDrainReturnsImmediately(t *testing.T) {
	p := NewPool(4)
	var done int32
	slots := make([]Slot, 16)
	for i := range slots {
		p.Submit(&slots[i], bodyFunc(func() error {
			atomic.AddInt32(&done, 1)
			return nil
		}))
	}
	for i := range slots {
		if err := p.Wait(&slots[i]); err != nil {
			t.Fatalf("slot %d: err = %v", i, err)
		}
	}
	p.Close()
	if got := atomic.LoadInt32(&done); got != 16 {
		t.Fatalf("Close returned with %d/16 bodies finished", got)
	}
}

func TestPoolSubmitAfterCloseIsRefused(t *testing.T) {
	p := NewPool(2)
	p.Close()
	var slot Slot
	p.Submit(&slot, bodyFunc(func() error {
		t.Error("body must not run after Close")
		return nil
	}))
	if err := p.Wait(&slot); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

func TestPoolCloseIsIdempotent(t *testing.T) {
	p := NewPool(3)
	var slot Slot
	p.Submit(&slot, bodyFunc(func() error { return nil }))
	p.Close()
	p.Close()
}

func TestInlinePoolCloseIsNoop(t *testing.T) {
	var nilPool *Pool
	nilPool.Close()
	p := NewPool(1)
	p.Close()
	var slot Slot
	p.Submit(&slot, bodyFunc(func() error { return nil }))
	if err := p.Wait(&slot); err != nil {
		t.Fatalf("inline pool must keep running after Close: %v", err)
	}
}

// TestPoolStartsBodiesInSubmissionOrder: at every width, the bodies that have
// started are always a prefix of the submission order. Each body reports its
// start and then holds its worker until released; once every worker is busy
// the newest running body is released, so the next start must still be the
// oldest queued body, never one behind it.
func TestPoolStartsBodiesInSubmissionOrder(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		const n = 12
		inline := workers == 1 // each body runs during its own Submit
		p := NewPool(workers)
		started := make(chan int, n)
		release := make([]chan struct{}, n)
		slots := make([]Slot, n)
		for i := range release {
			release[i] = make(chan struct{})
			if inline {
				close(release[i])
			}
		}
		for i := 0; i < n; i++ {
			p.Submit(&slots[i], bodyFunc(func() error {
				started <- i
				<-release[i]
				return nil
			}))
		}
		var running []int
		for want := 0; want < n; want++ {
			if got := <-started; got != want {
				t.Fatalf("workers=%d: body %d started where body %d was next", workers, got, want)
			}
			if inline {
				continue
			}
			running = append(running, want)
			if len(running) == workers && want < n-1 {
				close(release[want])
				running = running[:len(running)-1]
			}
		}
		for _, i := range running {
			close(release[i])
		}
		for i := range slots {
			if err := p.Wait(&slots[i]); err != nil {
				t.Fatal(err)
			}
		}
		p.Close()
	}
}

// goroutinesSettle waits for the goroutine count to fall back to want: a
// joined worker has signalled its WaitGroup but may not have exited yet.
func goroutinesSettle(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n != want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestPoolNeverExceedsWorkers: however many bodies are queued behind busy
// workers, the pool runs at most Workers goroutines, and after Close none.
func TestPoolNeverExceedsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	const workers = 3
	p := NewPool(workers)
	gate := make(chan struct{})
	var started sync.WaitGroup
	started.Add(workers)
	slots := make([]Slot, 40)
	for i := range slots {
		p.Submit(&slots[i], bodyFunc(func() error {
			if i < workers {
				started.Done()
			}
			<-gate
			return nil
		}))
	}
	started.Wait()
	if got := runtime.NumGoroutine() - before; got != workers {
		t.Errorf("%d goroutines for %d queued bodies, want %d workers", got, len(slots), workers)
	}
	close(gate)
	for i := range slots {
		if err := p.Wait(&slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if after := goroutinesSettle(before); after != before {
		t.Errorf("goroutines %d after Close, %d before", after, before)
	}
}

// TestPoolSubmitAllocatesNothing pins the point of the worker set: once its
// workers and queue exist, a submission and its wait allocate nothing.
func TestPoolSubmitAllocatesNothing(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var slot Slot
	body := bodyFunc(func() error { return nil })
	p.Submit(&slot, body) // start a worker and size the queue
	_ = p.Wait(&slot)
	if allocs := testing.AllocsPerRun(200, func() {
		p.Submit(&slot, body)
		_ = p.Wait(&slot)
	}); allocs != 0 {
		t.Errorf("Submit+Wait allocates %.1f times, want 0", allocs)
	}
}

// bodyFunc adapts a function literal to the body Submit takes.
type bodyFunc func() error

func (f bodyFunc) Run() error { return f() }
