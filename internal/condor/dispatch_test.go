package condor

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
)

// scheduler is what the differential test drives: the Simulator and the
// scan oracle.
type scheduler interface {
	Submit(Task) error
	Step() ([]Completion, bool)
}

// scanOracle is the matchmaker this package shipped before the per-class
// FIFOs: one global wait queue, rescanned in full on every Submit and Step.
// It keeps its queue outside the Simulator it wraps, whose own class FIFOs
// therefore stay empty (Simulator.dispatch is a no-op), and hands each task
// the scan finds a slot for to Simulator.place.
type scanOracle struct {
	sim   *Simulator
	queue []queued
}

func (o *scanOracle) Submit(t Task) error {
	s := o.sim
	if s.inFlight[t.ID] {
		return fmt.Errorf("%w: %q", ErrDuplicate, t.ID)
	}
	s.inFlight[t.ID] = true
	s.stats.Submitted++
	q := queued{seq: s.stats.Submitted, pool: -1, task: t}
	if t.Site != "" {
		q.pool = s.index[t.Site]
	}
	o.queue = append(o.queue, q)
	o.dispatch()
	return nil
}

func (o *scanOracle) Step() ([]Completion, bool) {
	cs, ok := o.sim.Step()
	if ok {
		o.dispatch()
	}
	return cs, ok
}

func (o *scanOracle) dispatch() {
	s := o.sim
	remaining := o.queue[:0]
	for _, q := range o.queue {
		pool := s.match(&q)
		if pool < 0 {
			remaining = append(remaining, q)
			continue
		}
		s.place(q, pool)
	}
	o.queue = remaining
}

// dispatchCase is one seeded scenario: a fabric, its knobs, and a stream of
// interleaved Submit (task != nil) and Step operations.
type dispatchCase struct {
	pools    []Pool
	overhead time.Duration
	workers  int
	faultPct float64
	ops      []*Task
}

var errBoom = errors.New("boom")

func randomDispatchCase(rng *rand.Rand) dispatchCase {
	c := dispatchCase{workers: 1}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		c.pools = append(c.pools, Pool{
			Name:          fmt.Sprintf("p%d", i),
			Slots:         1 + rng.Intn(4),
			Speed:         []float64{0.5, 1, 2}[rng.Intn(3)],
			TransferSlots: rng.Intn(3), // 0 = transfers compete for compute slots
		})
	}
	if rng.Intn(2) == 0 {
		c.overhead = 300 * time.Millisecond
	}
	if rng.Intn(2) == 0 {
		c.workers = 4
	}
	if rng.Intn(3) > 0 {
		c.faultPct = 0.2
	}
	submitted := 0
	for i, n := 0, 50+rng.Intn(250); i < n; i++ {
		if rng.Float64() < 0.3 {
			c.ops = append(c.ops, nil) // Step
			continue
		}
		t := &Task{ID: fmt.Sprintf("t%d", submitted)}
		submitted++
		if rng.Intn(20) == 0 {
			// Reuse an earlier id: ErrDuplicate while it is still in flight.
			t.ID = fmt.Sprintf("t%d", rng.Intn(submitted))
		}
		if rng.Intn(3) > 0 {
			t.Site = c.pools[rng.Intn(len(c.pools))].Name
		}
		if rng.Intn(3) == 0 {
			t.Lane = LaneTransfer
		}
		if rng.Intn(5) > 0 { // one in five costs nothing
			t.Cost = time.Duration(1+rng.Intn(5)) * time.Second
		}
		switch rng.Intn(4) {
		case 0:
			t.Run = BodyFunc(func() error { return errBoom })
		case 1:
			t.Run = BodyFunc(func() error { return nil })
		}
		c.ops = append(c.ops, t)
	}
	return c
}

// play runs the case's op stream and then drains, logging every observable:
// submit errors, completions, queue depth and clock after each operation,
// then the final stats and the injector's fault history.
func (c dispatchCase) play(t *testing.T, oracle bool) []string {
	t.Helper()
	s := sim(t, c.pools...)
	s.SetSubmitOverhead(c.overhead)
	s.SetWorkers(c.workers)
	if s.pool != nil {
		defer s.pool.Close()
	}
	var inj *faults.Injector
	if c.faultPct > 0 {
		inj = faults.New(7, faults.Rule{Name: OpExec, Kind: faults.KindTransient, Probability: c.faultPct})
		s.SetInjector(inj)
	}
	var sched scheduler = s
	queueLen := s.QueueLen
	if oracle {
		o := &scanOracle{sim: s}
		sched, queueLen = o, func() int { return len(o.queue) }
	}
	var log []string
	step := func() bool {
		cs, ok := sched.Step()
		for _, c := range cs {
			log = append(log, fmt.Sprintf("done %s at %s [%v, %v] err=%v", c.TaskID, c.Site, c.Start, c.End, c.Err))
		}
		log = append(log, fmt.Sprintf("step ok=%v queued=%d now=%v", ok, queueLen(), s.Now()))
		return ok
	}
	for _, op := range c.ops {
		if op == nil {
			step()
			continue
		}
		err := sched.Submit(*op)
		log = append(log, fmt.Sprintf("submit %s err=%v queued=%d", op.ID, err, queueLen()))
	}
	for step() {
	}
	if n := queueLen(); n != 0 {
		t.Fatalf("%d tasks starved", n)
	}
	log = append(log, fmt.Sprintf("stats %+v", s.Stats()))
	for _, f := range inj.History() {
		log = append(log, "fault "+f.Error())
	}
	return log
}

// TestDispatchMatchesScanOracle: over seeded random streams — pinned and
// unpinned tasks, both lanes, pools with and without TransferSlots, submit
// overhead on and off, zero-cost tasks, interleaved Submit/Step, a fault
// injector, serial and parallel side effects — the per-class dispatcher
// produces the completion sequence, stats and placement-order fault draws of
// the full queue scan, and the same ones at the other worker width.
func TestDispatchMatchesScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		c := randomDispatchCase(rng)
		got, want := c.play(t, false), c.play(t, true)
		other := c
		other.workers = 5 - c.workers // 1 <-> 4
		if atOther := other.play(t, false); !reflect.DeepEqual(got, atOther) {
			t.Fatalf("trial %d: workers=%d and workers=%d disagree", trial, c.workers, other.workers)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("trial %d (%+v overhead=%v workers=%d) diverges at event %d:\n got %q\nwant %q",
						trial, c.pools, c.overhead, c.workers, i, append(got, "<end>")[i], want[i])
				}
			}
			t.Fatalf("trial %d: %d extra events after the oracle's %d", trial, len(got)-len(want), len(want))
		}
	}
}

// TestAbortLeavesSimulatorQuiet: an abort with queued, running and
// transfer-lane tasks releases every slot and forgets every id, so the same
// work can be submitted again and completes.
func TestAbortLeavesSimulatorQuiet(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := sim(t, Pool{Name: "a", Slots: 1, TransferSlots: 1}, Pool{Name: "b", Slots: 1})
		s.SetWorkers(workers)
		tasks := []Task{
			{ID: "run-a", Site: "a", Cost: 3 * time.Second},
			{ID: "tx-a", Site: "a", Lane: LaneTransfer, Cost: 2 * time.Second},
			{ID: "run-b", Site: "b", Cost: time.Second},
			{ID: "wait-a", Site: "a", Cost: time.Second},
			{ID: "wait-tx-a", Site: "a", Lane: LaneTransfer, Cost: time.Second},
			{ID: "wait-any", Cost: time.Second},
			{ID: "wait-tx-any", Lane: LaneTransfer, Cost: time.Second},
		}
		submitAll := func() {
			t.Helper()
			for _, task := range tasks {
				if err := s.Submit(task); err != nil {
					t.Fatalf("workers=%d: submit %s: %v", workers, task.ID, err)
				}
			}
		}
		submitAll()
		if _, ok := s.Step(); !ok { // run-b completes, wait-any takes its slot
			t.Fatal("nothing running")
		}
		if s.RunningLen() != 3 || s.QueueLen() != 3 {
			t.Fatalf("workers=%d: before abort running=%d queued=%d, want 3 and 3", workers, s.RunningLen(), s.QueueLen())
		}
		s.Abort()
		if !s.Idle() || s.QueueLen() != 0 {
			t.Errorf("workers=%d: after abort idle=%v queued=%d", workers, s.Idle(), s.QueueLen())
		}
		for _, site := range s.Pools() {
			if n := s.BusySlots(site); n != 0 {
				t.Errorf("workers=%d: BusySlots(%s) = %d after abort", workers, site, n)
			}
		}
		submitAll()
		done := map[string]bool{}
		for _, c := range s.Drain() {
			if c.Err != nil {
				t.Errorf("workers=%d: %s: %v", workers, c.TaskID, c.Err)
			}
			done[c.TaskID] = true
		}
		// A transfer slot still counted busy would starve the lane's tasks.
		if len(done) != len(tasks) || s.QueueLen() != 0 {
			t.Errorf("workers=%d: resubmitted run completed %d of %d, %d starved", workers, len(done), len(tasks), s.QueueLen())
		}
		if s.pool != nil {
			s.pool.Close()
		}
	}
}

// TestDispatchProbesPerTaskBounded is the CPU-independent complexity gate:
// with 16,000 tasks queued behind three saturated pools, the matchmaker
// evaluates match() a small constant number of times per task (the three
// constraint classes in play, per placement and per refused round). A scan
// of the whole queue makes thousands per task at this depth.
func TestDispatchProbesPerTaskBounded(t *testing.T) {
	const tasks = 16000
	s := deepQueue(t, tasks)
	if got := len(s.Drain()); got != tasks {
		t.Fatalf("completions = %d", got)
	}
	if perTask := float64(s.probes) / tasks; perTask > 16 {
		t.Errorf("match() evaluated %.1f times per task, want <= 16", perTask)
	}
}

// deepQueue submits n tasks pinned round-robin across three small pools, so
// nearly all of them wait.
func deepQueue(tb testing.TB, n int) *Simulator {
	tb.Helper()
	sites := []string{"fnal", "usc", "wisc"}
	s := sim(tb, Pool{Name: "usc", Slots: 20}, Pool{Name: "wisc", Slots: 30}, Pool{Name: "fnal", Slots: 20})
	for j := 0; j < n; j++ {
		task := Task{ID: fmt.Sprintf("j%d", j), Site: sites[j%3], Cost: time.Duration(1+j%7) * time.Second}
		if err := s.Submit(task); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

func BenchmarkDispatchDeepQueue(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := len(deepQueue(b, n).Drain()); got != n {
					b.Fatalf("completions = %d", got)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/task")
		})
	}
}
