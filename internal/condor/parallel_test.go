package condor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// runSchedule drains a simulator loaded with the given tasks and returns the
// completion stream plus final stats.
func runSchedule(t *testing.T, workers int, inj *faults.Injector, tasks []Task) ([]Completion, Stats) {
	t.Helper()
	s := sim(t)
	s.SetInjector(inj)
	s.SetWorkers(workers)
	for _, task := range tasks {
		if err := s.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	return s.Drain(), s.Stats()
}

// mixedTasks builds a task set with unequal costs (so completions land on
// many distinct instants) whose side effects record execution and contend on
// a shared counter.
func mixedTasks(n int, counter *int64, order *[]string, mu *sync.Mutex) []Task {
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("t%02d", i)
		cost := time.Duration(1+i%7) * time.Second
		tasks[i] = Task{ID: id, Cost: cost, Run: BodyFunc(func() error {
			atomic.AddInt64(counter, 1)
			mu.Lock()
			*order = append(*order, id)
			mu.Unlock()
			return nil
		})}
	}
	return tasks
}

// TestParallelScheduleMatchesSerial requires the parallel worker pool to
// leave the model schedule byte-identical: same completion stream (task,
// site, start, end, order), same stats, for any worker count.
func TestParallelScheduleMatchesSerial(t *testing.T) {
	var serialCount int64
	var serialOrder []string
	var mu sync.Mutex
	serial, serialStats := runSchedule(t, 1, nil, mixedTasks(24, &serialCount, &serialOrder, &mu))

	for _, workers := range []int{2, 4, 8} {
		var count int64
		var order []string
		par, parStats := runSchedule(t, workers, nil, mixedTasks(24, &count, &order, &mu))
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d completions, want %d", workers, len(par), len(serial))
		}
		for i := range par {
			if par[i] != serial[i] {
				t.Errorf("workers=%d: completion %d = %+v, want %+v", workers, i, par[i], serial[i])
			}
		}
		if count != serialCount {
			t.Errorf("workers=%d: %d side effects, want %d", workers, count, serialCount)
		}
		if parStats.Submitted != serialStats.Submitted || parStats.Completed != serialStats.Completed {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, parStats, serialStats)
		}
		for site, busy := range serialStats.BusyTime {
			if parStats.BusyTime[site] != busy {
				t.Errorf("workers=%d: busy[%s] = %v, want %v", workers, site, parStats.BusyTime[site], busy)
			}
		}
	}
}

// TestParallelSideEffectsOverlap proves side effects actually run
// concurrently in parallel mode: two tasks block until both have started,
// which deadlocks under serial execution but completes with workers >= 2.
func TestParallelSideEffectsOverlap(t *testing.T) {
	s := sim(t)
	s.SetWorkers(2)
	var wg sync.WaitGroup
	wg.Add(2)
	meet := func() error {
		wg.Done()
		wg.Wait() // both bodies must be running at once to pass this point
		return nil
	}
	if err := s.Submit(Task{ID: "a", Cost: time.Second, Run: BodyFunc(meet)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Task{ID: "b", Cost: 2 * time.Second, Run: BodyFunc(meet)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan []Completion, 1)
	go func() { done <- s.Drain() }()
	select {
	case cs := <-done:
		if len(cs) != 2 {
			t.Fatalf("completions = %d, want 2", len(cs))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parallel side effects never overlapped (deadlock)")
	}
}

// TestParallelFaultInjectionSkipsRun verifies that an injected execution
// fault in parallel mode fails the task without running its side effects,
// exactly as in serial mode.
func TestParallelFaultInjectionSkipsRun(t *testing.T) {
	inj := faults.New(1, faults.Rule{Name: OpExec, Key: "bad", Kind: faults.KindTransient})
	var ran int64
	tasks := []Task{
		{ID: "good", Cost: time.Second, Run: BodyFunc(func() error { atomic.AddInt64(&ran, 1); return nil })},
		{ID: "bad", Cost: time.Second, Run: BodyFunc(func() error { atomic.AddInt64(&ran, 1); return nil })},
	}
	cs, stats := runSchedule(t, 4, inj, tasks)
	if len(cs) != 2 {
		t.Fatalf("completions = %d", len(cs))
	}
	for _, c := range cs {
		if c.TaskID == "bad" && c.Err == nil {
			t.Error("faulted task completed without error")
		}
		if c.TaskID == "good" && c.Err != nil {
			t.Errorf("clean task failed: %v", c.Err)
		}
	}
	if ran != 1 {
		t.Errorf("side effects ran %d times, want 1 (fault must skip Run)", ran)
	}
	if stats.Failed != 1 || stats.Completed != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestParallelQueuedTasksRunInLaterWave checks that tasks waiting for a slot
// are launched when capacity frees and still produce the serial schedule.
func TestParallelQueuedTasksRunInLaterWave(t *testing.T) {
	pools := []Pool{{Name: "solo", Slots: 1}}
	build := func() []Task {
		var tasks []Task
		for i := 0; i < 5; i++ {
			tasks = append(tasks, Task{ID: fmt.Sprintf("q%d", i), Site: "solo", Cost: time.Second})
		}
		return tasks
	}
	ser, err := NewSimulator(pools...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewSimulator(pools...)
	if err != nil {
		t.Fatal(err)
	}
	par.SetWorkers(4)
	for _, task := range build() {
		if err := ser.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range build() {
		if err := par.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	a, b := ser.Drain(), par.Drain()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("completions %d/%d, want 5/5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("completion %d: serial %+v != parallel %+v", i, a[i], b[i])
		}
	}
}

// TestSetWorkersClampsAndReports covers the accessor contract.
func TestSetWorkersClampsAndReports(t *testing.T) {
	s := sim(t)
	if s.Workers() != 1 {
		t.Errorf("default workers = %d", s.Workers())
	}
	s.SetWorkers(0)
	if s.Workers() != 1 {
		t.Errorf("clamped workers = %d", s.Workers())
	}
	s.SetWorkers(8)
	if s.Workers() != 8 {
		t.Errorf("workers = %d", s.Workers())
	}
	s.SetWorkers(1)
	if s.pool != nil {
		t.Error("serial mode must drop the pool")
	}
}

// goroutinesSettle waits for the goroutine count to fall back to want: a
// joined worker has signalled its WaitGroup but may not have exited yet.
func goroutinesSettle(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// goroutinesSteady returns the goroutine count once it has held still for
// ten consecutive milliseconds, so a baseline taken right after an earlier
// test does not count that test's workers still on their way out.
func goroutinesSteady() int {
	n := runtime.NumGoroutine()
	for i, still := 0, 0; i < 1000 && still < 10; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestWorkerSetBoundsGoroutines: however many placed tasks wait for a worker,
// one simulator runs their side effects on at most Workers goroutines (none
// when serial), and none is left once it has drained.
func TestWorkerSetBoundsGoroutines(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		s := sim(t, Pool{Name: "big", Slots: 64})
		s.SetWorkers(workers)
		before := goroutinesSteady()
		var peak atomic.Int64
		body := func() error {
			n := int64(runtime.NumGoroutine() - before)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(50 * time.Microsecond)
			return nil
		}
		for i := 0; i < 200; i++ {
			if err := s.Submit(Task{ID: fmt.Sprintf("t%03d", i), Cost: time.Duration(1+i%5) * time.Second, Run: BodyFunc(body)}); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(s.Drain()); n != 200 {
			t.Fatalf("workers=%d: %d completions, want 200", workers, n)
		}
		want := int64(workers)
		if workers == 1 {
			want = 0
		}
		if got := peak.Load(); got > want {
			t.Errorf("workers=%d: side effects ran beside %d extra goroutines, want at most %d", workers, got, want)
		}
		if after := goroutinesSettle(before); after != before {
			t.Errorf("workers=%d: %d goroutines after the drain, %d before", workers, after, before)
		}
	}
}

// TestAbortWaitsForLaunchedBodies: Abort returns only after every side effect
// handed to the worker set has finished — the two running and the two queued
// behind them — so no body touches shared state after its run was aborted.
func TestAbortWaitsForLaunchedBodies(t *testing.T) {
	before := goroutinesSteady()
	s := sim(t, Pool{Name: "a", Slots: 4})
	s.SetWorkers(2)
	gate := make(chan struct{})
	var started sync.WaitGroup
	started.Add(2)
	var finished atomic.Int64
	for i := 0; i < 4; i++ {
		if err := s.Submit(Task{ID: fmt.Sprintf("t%d", i), Cost: time.Second, Run: BodyFunc(func() error {
			if i < 2 {
				started.Done()
				<-gate
			}
			finished.Add(1)
			return nil
		})}); err != nil {
			t.Fatal(err)
		}
	}
	started.Wait()
	aborted := make(chan struct{})
	go func() {
		defer close(aborted)
		s.Abort()
	}()
	select {
	case <-aborted:
		t.Fatal("Abort returned while launched bodies were still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	<-aborted
	if n := finished.Load(); n != 4 {
		t.Errorf("%d of 4 launched bodies finished when Abort returned", n)
	}
	if !s.Idle() {
		t.Error("simulator not idle after Abort")
	}
	if after := goroutinesSettle(before); after != before {
		t.Errorf("%d goroutines after Abort, %d before", after, before)
	}
}
