package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"
	"time"
)

// decisionTraceSeeds is how many seeded op sequences TestFabricDecisionTrace
// runs, and decisionTraceSHA the SHA-256 of their concatenated traces.
const (
	decisionTraceSeeds = 128
	decisionTraceSHA   = "745ee350e5e69faca4210bb8c166b0ed147cfdc40f47ff33f40e60a940f20a6b"
)

// TestFabricDecisionTrace pins every decision the fabric makes over seeded
// op sequences: which tickets hold leases, which leases are revoked, each
// lease's JobAllowance, every ShedError and the Snapshot after every op.
// A scheduler refactor that changes no decision keeps the hash.
func TestFabricDecisionTrace(t *testing.T) {
	h := sha256.New()
	var total FleetSnapshot
	for seed := int64(0); seed < decisionTraceSeeds; seed++ {
		s := traceSeed(t, h, seed)
		total.Admitted += s.Admitted
		total.Shed += s.Shed
		total.Completed += s.Completed
		total.Failed += s.Failed
		total.Preempted += s.Preempted
		total.Requeued += s.Requeued
	}
	t.Logf("%d seeds: %d admitted, %d shed, %d completed, %d failed, %d revoked, %d requeued",
		decisionTraceSeeds, total.Admitted, total.Shed, total.Completed, total.Failed, total.Preempted, total.Requeued)
	if got := hex.EncodeToString(h.Sum(nil)); got != decisionTraceSHA {
		t.Fatalf("decision trace SHA-256 = %s, want %s", got, decisionTraceSHA)
	}
}

var traceTenants = []string{"a", "b", "c", "d"}

// traceQuota draws one tenant quota; Weight includes the non-positive
// values the fabric reads as 1.
func traceQuota(rng *rand.Rand) Quota {
	return Quota{
		MaxRunningWorkflows: rng.Intn(3),
		MaxQueuedWorkflows:  rng.Intn(4),
		MaxRunningJobs:      rng.Intn(5),
		Weight:              []float64{0, -1, 0.5, 1, 2, 3}[rng.Intn(6)],
	}
}

// traceQuotaString formats the fields of q the fabric reads, so the trace
// pins decisions and not the shape of the Quota struct.
func traceQuotaString(q Quota) string {
	return fmt.Sprintf("run=%d queue=%d jobs=%d weight=%v",
		q.MaxRunningWorkflows, q.MaxQueuedWorkflows, q.MaxRunningJobs, q.Weight)
}

// traceEntry is one ticket the trace has seen, with the lease it was
// granted once the trace has looked it up.
type traceEntry struct {
	id    int
	tk    *Ticket
	lease *Lease
	done  bool // the lease was released by Done or Preempted
}

// traceSeed runs one seeded op sequence, writing its trace to h, and
// returns the fabric's final snapshot.
func traceSeed(t *testing.T, h hash.Hash, seed int64) FleetSnapshot {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		MaxRunningWorkflows: 1 + rng.Intn(4),
		MaxQueuedWorkflows:  rng.Intn(8),
		DefaultQuota:        traceQuota(rng),
		Quotas:              map[string]Quota{},
		Preemption:          rng.Intn(4) != 0,
	}
	if rng.Intn(2) == 0 {
		cfg.RetryAfter = time.Second
	}
	for _, name := range traceTenants[:2] {
		if rng.Intn(2) == 0 {
			cfg.Quotas[name] = traceQuota(rng)
		}
	}
	f := newTestFabric(t, cfg)
	fmt.Fprintf(h, "seed %d run=%d queue=%d preempt=%v retry=%s default %s\n", seed, cfg.MaxRunningWorkflows,
		cfg.MaxQueuedWorkflows, cfg.Preemption, cfg.RetryAfter, traceQuotaString(cfg.DefaultQuota))
	for _, name := range traceTenants {
		if q, ok := cfg.Quotas[name]; ok {
			fmt.Fprintf(h, "quota %s %s\n", name, traceQuotaString(q))
		}
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var entries []*traceEntry
	// pick returns a random entry satisfying ok, or nil.
	pick := func(ok func(*traceEntry) bool) *traceEntry {
		var c []*traceEntry
		for _, e := range entries {
			if ok(e) {
				c = append(c, e)
			}
		}
		if len(c) == 0 {
			return nil
		}
		return c[rng.Intn(len(c))]
	}
	live := func(e *traceEntry) bool { return e.lease != nil && !e.done }
	usage := func() time.Duration { return time.Duration(rng.Intn(50)) * time.Second }

	for op := 0; op < 160; op++ {
		switch k := rng.Intn(12); {
		case k < 4:
			tenant, prio := traceTenants[rng.Intn(len(traceTenants))], rng.Intn(3)
			tk, err := f.Admit(tenant, prio)
			if err != nil {
				s, ok := AsShed(err)
				if !ok {
					t.Fatalf("seed %d: Admit: %v", seed, err)
				}
				fmt.Fprintf(h, "admit %s/%d shed %d %s %s\n", tenant, prio, s.HTTPStatus, s.RetryAfter, s.Reason)
				break
			}
			entries = append(entries, &traceEntry{id: len(entries), tk: tk})
			fmt.Fprintf(h, "admit %s/%d ticket %d\n", tenant, prio, len(entries)-1)
		case k < 6:
			if e := pick(live); e != nil {
				fail := rng.Intn(3) == 0
				e.lease.Done(usage(), fail)
				e.done = true
				fmt.Fprintf(h, "done %d failed=%v\n", e.id, fail)
			}
		case k == 6:
			// Revoked leases answer with Preempted; an unrevoked one
			// sometimes does too, as a holder that stops on its own.
			e := pick(func(e *traceEntry) bool { return live(e) && e.lease.IsRevoked() })
			if e == nil && rng.Intn(3) == 0 {
				e = pick(live)
			}
			if e != nil {
				tk := e.lease.Preempted(usage())
				e.done = true
				entries = append(entries, &traceEntry{id: len(entries), tk: tk})
				fmt.Fprintf(h, "preempted %d requeue %d\n", e.id, len(entries)-1)
			}
		case k == 7:
			if e := pick(func(e *traceEntry) bool { return e.lease == nil }); e != nil {
				l, err := e.tk.Wait(canceled)
				fmt.Fprintf(h, "wait-canceled %d lease=%v err=%v\n", e.id, l != nil, err)
			}
		case k == 8:
			tenant, q := traceTenants[rng.Intn(len(traceTenants))], traceQuota(rng)
			f.SetQuota(tenant, q)
			fmt.Fprintf(h, "setquota %s %s\n", tenant, traceQuotaString(q))
		case k == 9:
			tenant, w := traceTenants[rng.Intn(len(traceTenants))], []float64{0, -2, 0.25, 1, 4}[rng.Intn(5)]
			f.SetWeight(tenant, w)
			fmt.Fprintf(h, "setweight %s %v\n", tenant, w)
		case k == 10:
			if rng.Intn(3) == 0 {
				f.Hold()
				fmt.Fprintln(h, "hold")
			} else {
				f.Unhold()
				fmt.Fprintln(h, "unhold")
			}
		default:
			if e := pick(live); e != nil {
				ok := rng.Intn(4) != 0
				e.lease.SetPreemptible(ok)
				fmt.Fprintf(h, "preemptible %d %v\n", e.id, ok)
			}
		}

		// The state every decision leaves behind.
		for i, e := range entries {
			if e.lease == nil && e.tk.Granted() {
				l, err := e.tk.Wait(context.Background())
				if err != nil {
					t.Fatalf("seed %d: Wait on a granted ticket: %v", seed, err)
				}
				e.lease = l
			}
			if e.lease == nil {
				continue
			}
			fmt.Fprintf(h, " %d:%s lease done=%v revoked=%v jobs=%d\n",
				i, e.lease.Tenant(), e.done, e.lease.IsRevoked(), e.lease.JobAllowance())
		}
		fmt.Fprintf(h, " %+v\n", f.Snapshot())
	}
	return f.Snapshot()
}
