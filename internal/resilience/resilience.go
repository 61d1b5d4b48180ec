// Package resilience supplies the fault-handling policies the grid stack
// runs under: retry with exponential backoff and deterministic jitter,
// per-operation backoff budgets, and a circuit breaker per (site, operation)
// pair. The injector in internal/faults creates the failures; this package
// is how the system survives them — the DAGMan-retry / rescue-DAG behaviour
// of the paper's §4, generalized into reusable policy.
//
// All delays are model time: Retry reports the backoff it accrued but does
// not sleep unless the policy installs a Sleep function, keeping the
// discrete-event executors deterministic and tests fast.
package resilience

import (
	"errors"
	"time"

	"repro/internal/faults"
	"repro/internal/gridftp"
)

// Class is the coarse disposition of a grid-operation error — what the caller
// should do about it, not what went wrong.
type Class int

// Error classes, ordered from "give up" to "try smarter".
const (
	// ClassFatal errors do not improve with retries against any replica:
	// validation failures, missing files, programming errors.
	ClassFatal Class = iota
	// ClassTransient errors (timeouts, transient faults, site outages) are
	// worth retrying against the SAME replica after backoff.
	ClassTransient
	// ClassAlternateReplica errors mean this replica is damaged at rest
	// (checksum mismatch): retrying it is futile, but another replica of the
	// same LFN — or re-deriving the file from provenance — can succeed.
	ClassAlternateReplica
)

// String labels the class.
func (c Class) String() string {
	switch c {
	case ClassFatal:
		return "fatal"
	case ClassTransient:
		return "transient"
	case ClassAlternateReplica:
		return "alternate-replica"
	default:
		return "Class(?)"
	}
}

// Classify maps an error to its disposition. Checksum mismatches are NOT
// transient — the damage is at rest and survives any number of retries — so
// they route to alternate-replica recovery, distinct from the injected
// transient/timeout/site-down faults that heal with time.
func Classify(err error) Class {
	if err == nil {
		return ClassFatal // nothing to recover from; callers should not ask
	}
	if errors.Is(err, gridftp.ErrChecksum) {
		return ClassAlternateReplica
	}
	if f, ok := faults.As(err); ok {
		switch f.Kind {
		case faults.KindCorruption:
			return ClassAlternateReplica
		case faults.KindTransient, faults.KindTimeout, faults.KindSiteDown:
			return ClassTransient
		}
	}
	return ClassFatal
}

// Retryable reports whether a retry loop (same replica, after backoff) can
// help — the Policy.Retryable adapter for grid-operation errors. Note that
// alternate-replica errors return false here: the RIGHT retry is against a
// different replica, which plain retry loops cannot do.
func Retryable(err error) bool { return Classify(err) == ClassTransient }

// Policy is a retry policy: up to MaxAttempts tries with exponential
// backoff, deterministic jitter, and a total backoff budget.
type Policy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values < 1 default to 3.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff step (default 10s).
	MaxDelay time.Duration
	// Multiplier grows the backoff each attempt (default 2).
	Multiplier float64
	// JitterFrac in (0,1] spreads each delay by ±JitterFrac/2 of itself,
	// derived deterministically from Seed and the attempt number.
	// 0 defaults to 0.5 (the "equal jitter" family); negative disables
	// jitter entirely.
	JitterFrac float64
	// Budget bounds the cumulative backoff across all attempts; once
	// exceeded, Retry stops even with attempts remaining (0 = unbounded).
	// This is the per-operation deadline: a flaky call cannot consume more
	// than Budget of model time in waits.
	Budget time.Duration
	// Seed drives the jitter stream; two policies with the same seed
	// produce identical delay sequences.
	Seed int64
	// Retryable classifies errors; nil retries everything.
	Retryable func(error) bool
	// Sleep, when set, is called with each backoff delay (wall-clock
	// integration); nil records model time only.
	Sleep func(time.Duration)
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 10 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.JitterFrac == 0 || p.JitterFrac > 1 {
		p.JitterFrac = 0.5
	}
	return p
}

// Delay returns the backoff before attempt+1 (attempt is 1-based: Delay(1)
// precedes the second try). The jitter is a deterministic hash of
// (Seed, attempt), so the same policy replays the same schedule.
func (p Policy) Delay(attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.JitterFrac > 0 {
		// splitmix64 over (Seed, attempt): cheap, stateless, deterministic.
		u := uint64(p.Seed)*0x9E3779B97F4A7C15 + uint64(attempt)*0xBF58476D1CE4E5B9
		u ^= u >> 30
		u *= 0x94D049BB133111EB
		u ^= u >> 31
		frac := float64(u%1e6) / 1e6 // [0,1)
		d *= 1 - p.JitterFrac/2 + p.JitterFrac*frac
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	return time.Duration(d)
}

// retryable applies the classifier (nil = retry everything).
func (p Policy) retryable(err error) bool {
	if p.Retryable == nil {
		return true
	}
	return p.Retryable(err)
}

// Result reports what a Retry run did.
type Result struct {
	Attempts int           // tries performed
	Backoff  time.Duration // cumulative model-time backoff
	Err      error         // final error (nil on success)
}

// ErrBudgetExhausted marks a retry loop stopped by its backoff budget.
var ErrBudgetExhausted = errors.New("resilience: retry backoff budget exhausted")

// Retry runs op under the policy. It returns after the first success, after
// MaxAttempts failures, on a non-retryable error, or once the backoff
// budget is spent (the final error is then joined with ErrBudgetExhausted).
func Retry(p Policy, op func() error) Result {
	p = p.withDefaults()
	var res Result
	for {
		res.Attempts++
		err := op()
		if err == nil {
			res.Err = nil
			return res
		}
		res.Err = err
		if res.Attempts >= p.MaxAttempts || !p.retryable(err) {
			return res
		}
		d := p.Delay(res.Attempts)
		if p.Budget > 0 && res.Backoff+d > p.Budget {
			res.Err = errors.Join(ErrBudgetExhausted, err)
			return res
		}
		res.Backoff += d
		if p.Sleep != nil {
			p.Sleep(d)
		}
	}
}
