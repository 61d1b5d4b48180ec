package resilience

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/gridftp"
)

func TestRetrySucceedsAfterTransients(t *testing.T) {
	calls := 0
	res := Retry(Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if res.Err != nil || res.Attempts != 3 || calls != 3 {
		t.Fatalf("res = %+v, calls = %d", res, calls)
	}
	if res.Backoff <= 0 {
		t.Error("expected accrued backoff")
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	boom := errors.New("boom")
	res := Retry(Policy{MaxAttempts: 4, BaseDelay: time.Millisecond}, func() error { return boom })
	if !errors.Is(res.Err, boom) || res.Attempts != 4 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRetryNonRetryableStopsImmediately(t *testing.T) {
	fatal := errors.New("fatal")
	p := Policy{MaxAttempts: 5, Retryable: func(err error) bool { return !errors.Is(err, fatal) }}
	res := Retry(p, func() error { return fatal })
	if res.Attempts != 1 || !errors.Is(res.Err, fatal) {
		t.Fatalf("res = %+v", res)
	}
}

func TestRetryBudget(t *testing.T) {
	p := Policy{MaxAttempts: 100, BaseDelay: 10 * time.Millisecond,
		Multiplier: 1, JitterFrac: -1, Budget: 35 * time.Millisecond}
	boom := errors.New("boom")
	res := Retry(p, func() error { return boom })
	if !errors.Is(res.Err, ErrBudgetExhausted) || !errors.Is(res.Err, boom) {
		t.Fatalf("err = %v", res.Err)
	}
	// 3 delays fit in the budget (30ms); the 4th would exceed it.
	if res.Attempts != 4 || res.Backoff != 30*time.Millisecond {
		t.Errorf("attempts = %d backoff = %v", res.Attempts, res.Backoff)
	}
}

func TestDelayDeterministicAndBounded(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Seed: 7}
	for attempt := 1; attempt <= 10; attempt++ {
		d1, d2 := p.Delay(attempt), p.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: %v != %v", attempt, d1, d2)
		}
		if d1 <= 0 || d1 > time.Second {
			t.Errorf("attempt %d: delay %v out of bounds", attempt, d1)
		}
	}
	// Growth: later attempts back off longer on average (no jitter).
	nj := Policy{BaseDelay: 10 * time.Millisecond, JitterFrac: -1, Multiplier: 2}
	if nj.Delay(3) != 40*time.Millisecond || nj.Delay(1) != 10*time.Millisecond {
		t.Errorf("backoff growth wrong: %v %v", nj.Delay(1), nj.Delay(3))
	}
	// Different seeds jitter differently for some attempt.
	q := p
	q.Seed = 8
	diff := false
	for a := 1; a <= 10; a++ {
		if p.Delay(a) != q.Delay(a) {
			diff = true
		}
	}
	if !diff {
		t.Error("seeds 7 and 8 produced identical schedules")
	}
}

func TestRetrySleepHook(t *testing.T) {
	var slept time.Duration
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond,
		Sleep: func(d time.Duration) { slept += d }}
	res := Retry(p, func() error { return errors.New("x") })
	if slept != res.Backoff || slept == 0 {
		t.Errorf("slept %v, backoff %v", slept, res.Backoff)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, CooldownRejects: 2})
	if b.State() != Closed || !b.Allow() {
		t.Fatal("new breaker must be closed")
	}
	// Two failures + success resets the streak.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("streak reset failed")
	}
	b.Failure() // third consecutive: opens
	if b.State() != Open || b.Opens() != 1 {
		t.Fatalf("state = %v opens = %d", b.State(), b.Opens())
	}
	// Cooldown: two rejected calls, then a half-open probe.
	if b.Allow() || b.Allow() {
		t.Fatal("open circuit must reject during cooldown")
	}
	if !b.Allow() {
		t.Fatal("cooldown elapsed: probe must be admitted")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Error("only one probe at a time")
	}
	// Failed probe re-opens; successful probe closes.
	b.Failure()
	if b.State() != Open || b.Opens() != 2 {
		t.Fatalf("failed probe: state = %v opens = %d", b.State(), b.Opens())
	}
	b.Allow()
	b.Allow()
	if !b.Allow() {
		t.Fatal("second probe must be admitted")
	}
	b.Record(nil)
	if b.State() != Closed {
		t.Fatalf("successful probe must close, got %v", b.State())
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		Closed: "closed", Open: "open", HalfOpen: "half-open", BreakerState(9): "BreakerState(?)",
	} {
		if s.String() != want {
			t.Errorf("%d = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry(BreakerConfig{FailureThreshold: 2, CooldownRejects: 1})
	if !r.Allow("isi", "transfer") {
		t.Fatal("fresh circuit must allow")
	}
	r.Record("isi", "transfer", errors.New("x"))
	r.Record("isi", "transfer", errors.New("x"))
	if r.Allow("isi", "transfer") {
		t.Error("two failures must open (threshold 2)")
	}
	// Distinct (site, op) pairs are independent.
	if !r.Allow("isi", "exec") || !r.Allow("fnal", "transfer") {
		t.Error("other circuits must stay closed")
	}
	if r.TotalOpens() != 1 {
		t.Errorf("total opens = %d", r.TotalOpens())
	}
	open := r.OpenCircuits()
	if len(open) != 1 || open[0] != "isi/transfer" {
		t.Errorf("open circuits = %v", open)
	}
	if r.For("isi", "transfer") != r.For("isi", "transfer") {
		t.Error("For must return the same breaker")
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	if !r.Allow("s", "op") {
		t.Error("nil registry must allow")
	}
	r.Record("s", "op", errors.New("x"))
	if r.TotalOpens() != 0 || r.OpenCircuits() != nil || r.For("s", "op") != nil {
		t.Error("nil registry must report nothing")
	}
}

func TestClassify(t *testing.T) {
	checksum := &gridftp.ChecksumError{Site: "isi", Path: "g.fit", Want: "aa", Got: "bb"}
	transient := faults.New(1, faults.Rule{Name: "op", Kind: faults.KindTransient, Until: 1}).
		Check(faults.Op{Name: "op"})
	timeout := faults.New(1, faults.Rule{Name: "op", Kind: faults.KindTimeout, Until: 1}).
		Check(faults.Op{Name: "op"})
	siteDown := faults.New(1, faults.Rule{Name: "op", Kind: faults.KindSiteDown, Until: 1}).
		Check(faults.Op{Name: "op"})
	corruption := faults.New(1, faults.Rule{Name: "op", Kind: faults.KindCorruption, Until: 1}).
		Check(faults.Op{Name: "op"})

	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassFatal},
		{"plain error", errors.New("boom"), ClassFatal},
		{"checksum typed", checksum, ClassAlternateReplica},
		{"checksum wrapped", fmt.Errorf("transfer: %w", checksum), ClassAlternateReplica},
		{"checksum sentinel", gridftp.ErrChecksum, ClassAlternateReplica},
		{"fault transient", transient, ClassTransient},
		{"fault timeout", timeout, ClassTransient},
		{"fault site-down", siteDown, ClassTransient},
		{"fault corruption", corruption, ClassAlternateReplica},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Retryable: only transients — a damaged replica never heals by retry.
	if Retryable(checksum) {
		t.Error("checksum errors must not be same-replica retryable")
	}
	if !Retryable(transient) {
		t.Error("transient faults must be retryable")
	}
	if Retryable(errors.New("boom")) {
		t.Error("unknown errors must not be retryable")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassFatal: "fatal", ClassTransient: "transient",
		ClassAlternateReplica: "alternate-replica", Class(9): "Class(?)",
	} {
		if c.String() != want {
			t.Errorf("%d -> %q", int(c), c.String())
		}
	}
}
