package condor

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
)

func sim(t testing.TB, pools ...Pool) *Simulator {
	t.Helper()
	if len(pools) == 0 {
		pools = []Pool{{Name: "usc", Slots: 2}, {Name: "wisc", Slots: 4}, {Name: "fnal", Slots: 2}}
	}
	s, err := NewSimulator(pools...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSimulatorValidation(t *testing.T) {
	if _, err := NewSimulator(); err == nil {
		t.Error("no pools must fail")
	}
	if _, err := NewSimulator(Pool{Name: "", Slots: 1}); err == nil {
		t.Error("unnamed pool must fail")
	}
	if _, err := NewSimulator(Pool{Name: "a", Slots: 0}); err == nil {
		t.Error("zero slots must fail")
	}
	if _, err := NewSimulator(Pool{Name: "a", Slots: 1}, Pool{Name: "a", Slots: 1}); err == nil {
		t.Error("duplicate pool must fail")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := sim(t)
	if err := s.Submit(Task{ID: "", Cost: time.Second}); err == nil {
		t.Error("empty id must fail")
	}
	if err := s.Submit(Task{ID: "x", Cost: -1}); err == nil {
		t.Error("negative cost must fail")
	}
	if err := s.Submit(Task{ID: "x", Site: "moon"}); err == nil {
		t.Error("unknown pool must fail")
	}
	if err := s.Submit(Task{ID: "x", Cost: time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Task{ID: "x", Cost: time.Second}); err == nil {
		t.Error("duplicate in-flight id must fail")
	}
}

func TestSingleTaskLifecycle(t *testing.T) {
	s := sim(t)
	ran := false
	if err := s.Submit(Task{ID: "j1", Cost: 4 * time.Second, Run: BodyFunc(func() error { ran = true; return nil })}); err != nil {
		t.Fatal(err)
	}
	if s.Idle() {
		t.Error("not idle with a running task")
	}
	cs, ok := s.Step()
	if !ok || len(cs) != 1 {
		t.Fatalf("Step = %v, %v", cs, ok)
	}
	c := cs[0]
	if c.TaskID != "j1" || c.Start != 0 || c.End != 4*time.Second || c.Err != nil {
		t.Errorf("completion = %+v", c)
	}
	if !ran {
		t.Error("Run not executed")
	}
	if s.Now() != 4*time.Second {
		t.Errorf("Now = %v", s.Now())
	}
	if !s.Idle() {
		t.Error("must be idle after drain")
	}
	st := s.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.BusyTime[c.Site] != 4*time.Second {
		t.Errorf("busy time = %v", st.BusyTime)
	}
}

func TestPinnedSiteAndSpeed(t *testing.T) {
	s := sim(t, Pool{Name: "slow", Slots: 1, Speed: 1}, Pool{Name: "fast", Slots: 1, Speed: 2})
	_ = s.Submit(Task{ID: "a", Site: "fast", Cost: 10 * time.Second})
	cs, _ := s.Step()
	if cs[0].Site != "fast" || cs[0].End != 5*time.Second {
		t.Errorf("fast pool completion = %+v", cs[0])
	}
}

func TestQueueingWhenSaturated(t *testing.T) {
	s := sim(t, Pool{Name: "p", Slots: 1})
	_ = s.Submit(Task{ID: "a", Cost: time.Second})
	_ = s.Submit(Task{ID: "b", Cost: time.Second})
	if s.QueueLen() != 1 || s.RunningLen() != 1 {
		t.Fatalf("queue=%d running=%d", s.QueueLen(), s.RunningLen())
	}
	cs, _ := s.Step()
	if cs[0].TaskID != "a" {
		t.Errorf("first completion = %v", cs[0].TaskID)
	}
	cs, _ = s.Step()
	if cs[0].TaskID != "b" || cs[0].Start != time.Second || cs[0].End != 2*time.Second {
		t.Errorf("queued task completion = %+v", cs[0])
	}
}

func TestMatchmakingPrefersFreestPool(t *testing.T) {
	s := sim(t, Pool{Name: "small", Slots: 1}, Pool{Name: "big", Slots: 8})
	for i := 0; i < 4; i++ {
		_ = s.Submit(Task{ID: fmt.Sprintf("t%d", i), Cost: time.Second})
	}
	if s.BusySlots("big") < 3 {
		t.Errorf("big pool busy = %d, want most of the work", s.BusySlots("big"))
	}
}

func TestMakespanParallelism(t *testing.T) {
	// 8 unit tasks on 4 slots -> makespan 2 units.
	s := sim(t, Pool{Name: "p", Slots: 4})
	for i := 0; i < 8; i++ {
		_ = s.Submit(Task{ID: fmt.Sprintf("t%d", i), Cost: time.Minute})
	}
	all := s.Drain()
	if len(all) != 8 {
		t.Fatalf("completions = %d", len(all))
	}
	if s.Now() != 2*time.Minute {
		t.Errorf("makespan = %v, want 2m", s.Now())
	}
}

func TestFailedRun(t *testing.T) {
	s := sim(t)
	boom := errors.New("boom")
	_ = s.Submit(Task{ID: "bad", Cost: time.Second, Run: BodyFunc(func() error { return boom })})
	cs, _ := s.Step()
	if cs[0].Err == nil {
		t.Error("error lost")
	}
	st := s.Stats()
	if st.Failed != 1 || st.Completed != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The id is reusable after completion (retries resubmit it).
	if err := s.Submit(Task{ID: "bad", Cost: time.Second}); err != nil {
		t.Errorf("resubmit after failure: %v", err)
	}
}

func TestStarvedPinnedTask(t *testing.T) {
	s := sim(t, Pool{Name: "p", Slots: 1}, Pool{Name: "q", Slots: 1})
	_ = s.Submit(Task{ID: "long", Site: "p", Cost: time.Hour})
	_ = s.Submit(Task{ID: "pinned", Site: "p", Cost: time.Second})
	// q is idle but "pinned" must wait for p.
	if s.BusySlots("q") != 0 {
		t.Error("pinned task must not run on q")
	}
	cs, _ := s.Step()
	if cs[0].TaskID != "long" {
		t.Errorf("completion order wrong: %v", cs[0].TaskID)
	}
	cs, _ = s.Step()
	if cs[0].TaskID != "pinned" || cs[0].Start != time.Hour {
		t.Errorf("pinned completion = %+v", cs[0])
	}
}

func TestStepOnIdle(t *testing.T) {
	s := sim(t)
	if _, ok := s.Step(); ok {
		t.Error("Step on idle simulator must report !ok")
	}
}

func TestDeterministicCompletionOrder(t *testing.T) {
	run := func() []string {
		s := sim(t, Pool{Name: "p", Slots: 4})
		for i := 0; i < 4; i++ {
			_ = s.Submit(Task{ID: fmt.Sprintf("t%d", i), Cost: time.Second})
		}
		var order []string
		for _, c := range s.Drain() {
			order = append(order, c.TaskID)
		}
		return order
	}
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs: %v vs %v", a, b)
		}
	}
	// Simultaneous completions arrive in submission order.
	for i, id := range a {
		if id != fmt.Sprintf("t%d", i) {
			t.Errorf("order = %v", a)
			break
		}
	}
}

func TestZeroCostTask(t *testing.T) {
	s := sim(t)
	_ = s.Submit(Task{ID: "instant", Cost: 0})
	cs, ok := s.Step()
	if !ok || cs[0].End != 0 {
		t.Errorf("zero-cost completion = %+v", cs)
	}
}

func TestPoolsAccessors(t *testing.T) {
	s := sim(t)
	p := s.Pools()
	if len(p) != 3 || p[0] != "fnal" || p[1] != "usc" || p[2] != "wisc" {
		t.Errorf("pools = %v", p)
	}
	if s.BusySlots("moon") != 0 {
		t.Error("unknown pool busy slots must be 0")
	}
}

func BenchmarkCampaign1152Jobs(b *testing.B) {
	// The paper's full campaign: 1152 jobs across three pools.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSimulator(
			Pool{Name: "usc", Slots: 20},
			Pool{Name: "wisc", Slots: 30},
			Pool{Name: "fnal", Slots: 20},
		)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 1152; j++ {
			if err := s.Submit(Task{ID: fmt.Sprintf("j%d", j), Cost: time.Duration(1+j%7) * time.Second}); err != nil {
				b.Fatal(err)
			}
		}
		if got := len(s.Drain()); got != 1152 {
			b.Fatalf("completions = %d", got)
		}
	}
}

func TestExecFaultInjection(t *testing.T) {
	s := sim(t, Pool{Name: "usc", Slots: 1})
	ran := false
	s.SetInjector(faults.New(1,
		faults.Rule{Name: OpExec, Site: "usc", Key: "j1", Kind: faults.KindTransient, Until: 1},
	))
	if err := s.Submit(Task{ID: "j1", Site: "usc", Cost: time.Second,
		Run: BodyFunc(func() error { ran = true; return nil })}); err != nil {
		t.Fatal(err)
	}
	cs, ok := s.Step()
	if !ok || len(cs) != 1 {
		t.Fatalf("completions = %v, %v", cs, ok)
	}
	if !faults.Is(cs[0].Err, faults.KindTransient) {
		t.Fatalf("err = %v, want injected transient", cs[0].Err)
	}
	if ran {
		t.Error("injected fault must suppress the task's side effects")
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 0 {
		t.Errorf("stats = %+v", st)
	}
	// Resubmitting after the fault window succeeds (a DAGMan retry).
	if err := s.Submit(Task{ID: "j1", Site: "usc", Cost: time.Second,
		Run: BodyFunc(func() error { ran = true; return nil })}); err != nil {
		t.Fatal(err)
	}
	cs, _ = s.Step()
	if cs[0].Err != nil || !ran {
		t.Fatalf("retry must succeed: %v ran=%v", cs[0].Err, ran)
	}
	// Removing the injector restores the zero-cost path.
	s.SetInjector(nil)
	if err := s.Submit(Task{ID: "j2", Site: "usc", Cost: time.Second}); err != nil {
		t.Fatal(err)
	}
	if cs, _ := s.Step(); cs[0].Err != nil {
		t.Fatal(cs[0].Err)
	}
}
