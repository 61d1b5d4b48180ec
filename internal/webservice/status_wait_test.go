package webservice

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// waiting reports whether a /status waiter is registered on r.
func (r *request) waiting() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wake != nil
}

// awaitWaiter returns once a /status waiter is registered on r.
func awaitWaiter(t *testing.T, r *request) {
	t.Helper()
	for deadline := time.Now().Add(exploreDeadline); !r.waiting(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("no /status waiter registered")
		}
	}
}

// TestWaitStatusWakesOnProgressStep: a waiter on a running request of 16
// jobs sleeps through one completed job, wakes at the second (1/8 of 16),
// and a lifecycle event wakes the next one. With no waiter, the doors it
// listens at allocate nothing.
func TestWaitStatusWakesOnProgressStep(t *testing.T) {
	svc := &Service{requests: map[string]*request{}}
	r := &request{Status: Status{ID: "req-000001", Cluster: "COMA"}}
	r.apply(evGranted, "")
	svc.requests[r.ID] = r
	l := &leg{s: svc, r: r}
	l.progress(0, 16)
	if a := testing.AllocsPerRun(100, func() { l.progress(0, 0) }); a != 0 {
		t.Errorf("progress with no waiter allocates %.0f times", a)
	}

	answer := make(chan Status)
	wait := func(state State) {
		go func() {
			st, err := svc.waitStatus(context.Background(), r.ID, state)
			if err != nil {
				t.Error(err)
			}
			answer <- st
		}()
		awaitWaiter(t, r)
	}
	wait(StateRunning)
	l.progress(1, 0)
	if !r.waiting() {
		t.Fatal("one job of 16 woke the waiter; its step is 2")
	}
	l.progress(1, 0)
	if st := <-answer; st.State != StateRunning || st.JobsDone != 2 {
		t.Errorf("answer after the step = %s %d/%d, want running 2/16", st.State, st.JobsDone, st.JobsTotal)
	}
	wait(StateRunning)
	r.apply(evPreempted, "")
	if st := <-answer; st.State != StatePreempted {
		t.Errorf("answer after a preemption = %s, want preempted", st.State)
	}
}

// TestWaitStatusAnswersEndedRequestsAtOnce: a waiting GET on a canceled
// (failed) request answers at once, whatever state it names, without
// registering a waiter; a GET for an unknown id is a 404.
func TestWaitStatusAnswersEndedRequestsAtOnce(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.svc.cfg.Fabric.Hold()
	defer h.svc.cfg.Fabric.Unhold()
	id, err := h.svc.SubmitFor(h.inputTable(t), "COMA", RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if st := awaitTerminal(t, h.svc, id); st.State != StateFailed {
		t.Fatalf("canceled request is %s", st.State)
	}
	r, _ := h.svc.lookup(id)
	handler := h.svc.Handler()
	for _, state := range []State{StateFailed, StateQueued, StateRunning, StateCompleted} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/status?id="+id+"&wait="+string(state), nil))
		var st Status
		if err := json.NewDecoder(rec.Body).Decode(&st); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("wait=%s: %d, %v", state, rec.Code, err)
		}
		if st.State != StateFailed || r.waiting() {
			t.Errorf("wait=%s on a canceled request: answered %s, waiter registered %v", state, st.State, r.waiting())
		}
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/status?id=req-999999&wait=running", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("wait on an unknown id answered %d, want 404", rec.Code)
	}
}

// TestWaitStatusLeavesWithItsClient: a GET waiting on a queued request
// returns when its client's context ends, and leaves no goroutine behind.
func TestWaitStatusLeavesWithItsClient(t *testing.T) {
	h := newHarness(t, 3, nil)
	h.svc.cfg.Fabric.Hold()
	id, err := h.svc.SubmitFor(h.inputTable(t), "COMA", RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = h.svc.Cancel(id)
		awaitTerminal(t, h.svc, id)
		h.svc.cfg.Fabric.Unhold()
	})
	r, _ := h.svc.lookup(id)
	handler := h.svc.Handler()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/status?id="+id+"&wait=queued", nil).WithContext(ctx))
	}()
	awaitWaiter(t, r)
	cancel()
	<-done
	var st Status
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil || st.State != StateQueued {
		t.Fatalf("answer of a GET whose client left = %+v, %v; want queued", st, err)
	}
	for deadline := time.Now().Add(exploreDeadline); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the GET, %d after it returned", before, runtime.NumGoroutine())
		}
	}
}
