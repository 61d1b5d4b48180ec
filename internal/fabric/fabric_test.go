package fabric

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/condor"
)

func newTestFabric(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	if len(cfg.Pools) == 0 {
		cfg.Pools = []condor.Pool{{Name: "usc", Slots: 4, Speed: 1}}
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

// mustGrant admits and requires an immediate grant.
func mustGrant(t *testing.T, f *Fabric, tenant string, priority int) *Lease {
	t.Helper()
	tk, err := f.Admit(tenant, priority)
	if err != nil {
		t.Fatalf("Admit(%s): %v", tenant, err)
	}
	if !tk.Granted() {
		t.Fatalf("Admit(%s): expected immediate grant", tenant)
	}
	l, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait(%s): %v", tenant, err)
	}
	return l
}

func TestPermissiveFabricGrantsImmediately(t *testing.T) {
	f := newTestFabric(t, Config{})
	for i := 0; i < 10; i++ {
		mustGrant(t, f, "anyone", 0)
	}
	snap := f.Snapshot()
	if snap.Running != 10 || snap.Admitted != 10 || snap.Shed != 0 {
		t.Fatalf("snapshot = %+v, want 10 running, 10 admitted, 0 shed", snap)
	}
}

func TestNewRequiresPools(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no pools should fail")
	}
}

func TestTenantQueueQuotaSheds429(t *testing.T) {
	f := newTestFabric(t, Config{
		DefaultQuota: Quota{MaxRunningWorkflows: 1, MaxQueuedWorkflows: 1},
	})
	mustGrant(t, f, "alice", 0) // running slot
	if tk, err := f.Admit("alice", 0); err != nil || tk.Granted() {
		t.Fatalf("second admit should queue: tk=%v err=%v", tk, err)
	}
	_, err := f.Admit("alice", 0)
	shed, ok := AsShed(err)
	if !ok || shed.HTTPStatus != 429 {
		t.Fatalf("third admit: got %v, want 429 ShedError", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("shed without Retry-After hint: %+v", shed)
	}
	// Another tenant is unaffected by alice's full queue.
	mustGrant(t, f, "bob", 0)
}

func TestGlobalQueueQuotaSheds503(t *testing.T) {
	f := newTestFabric(t, Config{
		MaxRunningWorkflows: 1,
		MaxQueuedWorkflows:  1,
	})
	mustGrant(t, f, "alice", 0)
	if tk, err := f.Admit("bob", 0); err != nil || tk.Granted() {
		t.Fatalf("bob should queue: %v err=%v", tk, err)
	}
	_, err := f.Admit("carol", 0)
	if shed, ok := AsShed(err); !ok || shed.HTTPStatus != 503 {
		t.Fatalf("carol: got %v, want 503 ShedError", err)
	}
}

func TestCloseSheds503(t *testing.T) {
	f := newTestFabric(t, Config{})
	f.Close()
	_, err := f.Admit("alice", 0)
	if shed, ok := AsShed(err); !ok || shed.HTTPStatus != 503 {
		t.Fatalf("admit after close: got %v, want 503 ShedError", err)
	}
}

func TestSheddingIsDeterministic(t *testing.T) {
	// The same submission sequence against the same quotas must produce the
	// same admit/shed outcomes — the admission decision depends only on the
	// call sequence, never on timing or randomness.
	run := func() []int {
		f := newTestFabric(t, Config{
			MaxRunningWorkflows: 2,
			MaxQueuedWorkflows:  2,
			DefaultQuota:        Quota{MaxRunningWorkflows: 1, MaxQueuedWorkflows: 1},
		})
		f.Hold()
		var outcomes []int
		for _, tenant := range []string{"a", "a", "a", "b", "b", "c", "c", "d"} {
			_, err := f.Admit(tenant, 0)
			switch shed, ok := AsShed(err); {
			case !ok:
				outcomes = append(outcomes, 202)
			default:
				outcomes = append(outcomes, shed.HTTPStatus)
			}
		}
		return outcomes
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("run %d: %v vs %v", i, got, first)
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d differs at %d: %v vs %v", i, j, got, first)
				}
			}
		}
	}
	// Held fabric: every admission queues. Per-tenant queue quota 1, global
	// queue quota 2: a queues, then sheds 429 twice (own quota, checked
	// before the global bound); b queues — global queue now full — b's
	// second sheds 429 (own quota again), and fresh tenants c, c, d hit the
	// fleet-wide bound and shed 503.
	want := []int{202, 429, 429, 202, 429, 503, 503, 503}
	for j := range first {
		if first[j] != want[j] {
			t.Fatalf("outcomes = %v, want %v", first, want)
		}
	}
}

func TestFairShareLowestDebtFirst(t *testing.T) {
	f := newTestFabric(t, Config{MaxRunningWorkflows: 1})
	f.Hold()
	tkA, _ := f.Admit("a", 0)
	tkB, _ := f.Admit("b", 0)
	f.Unhold()
	// a arrived first: granted first.
	la, err := tkA.Wait(context.Background())
	if err != nil {
		t.Fatalf("a: %v", err)
	}
	// Charge a heavily, release; b runs next.
	la.Done(100*time.Second, false)
	lb, err := tkB.Wait(context.Background())
	if err != nil {
		t.Fatalf("b: %v", err)
	}
	lb.Done(time.Second, false)

	// Both queue again; b's debt (1s) is far below a's (100s), so b wins
	// even though a arrived first.
	f.Hold()
	tkA2, _ := f.Admit("a", 0)
	tkB2, _ := f.Admit("b", 0)
	f.Unhold()
	if tkA2.Granted() || !tkB2.Granted() {
		t.Fatalf("fair share: a granted=%v b granted=%v, want b first", tkA2.Granted(), tkB2.Granted())
	}
	lb2, _ := tkB2.Wait(context.Background())
	lb2.Done(time.Second, false)
	if !tkA2.Granted() {
		t.Fatal("a should be granted after b releases")
	}
}

func TestWeightScalesFairShare(t *testing.T) {
	f := newTestFabric(t, Config{
		MaxRunningWorkflows: 1,
		Quotas: map[string]Quota{
			"heavy": {Weight: 10},
			"light": {Weight: 1},
		},
	})
	// Equal usage -> heavy's debt is 10x smaller -> heavy wins the slot.
	lh := mustGrant(t, f, "heavy", 0)
	lh.Done(50*time.Second, false)
	ll := mustGrant(t, f, "light", 0)
	ll.Done(50*time.Second, false)

	f.Hold()
	tkL, _ := f.Admit("light", 0)
	tkH, _ := f.Admit("heavy", 0)
	f.Unhold()
	if tkL.Granted() || !tkH.Granted() {
		t.Fatalf("weighted fair share: light=%v heavy=%v, want heavy first",
			tkL.Granted(), tkH.Granted())
	}
}

func TestPriorityClassBeatsDebt(t *testing.T) {
	f := newTestFabric(t, Config{MaxRunningWorkflows: 1})
	// Give "urgent" enormous debt; its higher priority class must still win.
	lu := mustGrant(t, f, "urgent", 0)
	lu.Done(1000*time.Second, false)

	f.Hold()
	tkBatch, _ := f.Admit("batch", 0)
	tkUrgent, _ := f.Admit("urgent", 5)
	f.Unhold()
	if tkBatch.Granted() || !tkUrgent.Granted() {
		t.Fatalf("priority: batch=%v urgent=%v, want urgent first",
			tkBatch.Granted(), tkUrgent.Granted())
	}
}

func TestBackfillSkipsQuotaBlockedTenant(t *testing.T) {
	f := newTestFabric(t, Config{
		MaxRunningWorkflows: 2,
		DefaultQuota:        Quota{MaxRunningWorkflows: 1},
	})
	mustGrant(t, f, "a", 0) // a is now at its per-tenant running quota
	f.Hold()
	tkA2, _ := f.Admit("a", 0) // blocked by a's quota, heads the queue
	tkB, _ := f.Admit("b", 0)  // behind a2, but b has spare quota
	f.Unhold()
	if tkA2.Granted() {
		t.Fatal("a2 must wait for a's quota")
	}
	if !tkB.Granted() {
		t.Fatal("b should backfill past the quota-blocked head-of-line a2")
	}
}

func TestCancelWhileQueuedDequeues(t *testing.T) {
	f := newTestFabric(t, Config{MaxRunningWorkflows: 1})
	la := mustGrant(t, f, "a", 0)
	tkB, _ := f.Admit("b", 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tkB.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on canceled ctx: %v", err)
	}
	snap := f.Snapshot()
	if snap.Queued != 0 {
		t.Fatalf("queued = %d after cancel, want 0", snap.Queued)
	}
	var b TenantSnapshot
	for _, ts := range snap.Tenants {
		if ts.Tenant == "b" {
			b = ts
		}
	}
	if b.Canceled != 1 {
		t.Fatalf("b.Canceled = %d, want 1", b.Canceled)
	}
	// The slot was never leaked: releasing a's lease leaves capacity free
	// and a new admission grants immediately.
	la.Done(0, false)
	mustGrant(t, f, "c", 0)
}

func TestDoneIsIdempotent(t *testing.T) {
	f := newTestFabric(t, Config{MaxRunningWorkflows: 1})
	l := mustGrant(t, f, "a", 0)
	l.Done(time.Second, false)
	l.Done(time.Second, false)
	snap := f.Snapshot()
	if snap.Running != 0 || snap.Completed != 1 {
		t.Fatalf("double Done corrupted counters: %+v", snap)
	}
	if snap.Tenants[0].UsageModelTime != time.Second {
		t.Fatalf("usage charged twice: %v", snap.Tenants[0].UsageModelTime)
	}
}

func TestSnapshotCounters(t *testing.T) {
	f := newTestFabric(t, Config{
		MaxRunningWorkflows: 1,
		DefaultQuota:        Quota{MaxQueuedWorkflows: 1, Weight: 2},
	})
	l := mustGrant(t, f, "a", 0)
	f.Admit("b", 0) // queues
	f.Admit("b", 0) // 429
	l.Done(4*time.Second, true)

	snap := f.Snapshot()
	if snap.Admitted != 2 || snap.Shed != 1 || snap.Failed != 1 {
		t.Fatalf("fleet counters: %+v", snap)
	}
	if len(snap.Tenants) != 2 || snap.Tenants[0].Tenant != "a" || snap.Tenants[1].Tenant != "b" {
		t.Fatalf("tenants not sorted: %+v", snap.Tenants)
	}
	a := snap.Tenants[0]
	if a.FairShareDebt != 2 { // 4s usage / weight 2
		t.Fatalf("a.FairShareDebt = %v, want 2", a.FairShareDebt)
	}
	b := snap.Tenants[1]
	if b.Shed429 != 1 || b.Running != 1 { // b was granted when a released
		t.Fatalf("b counters: %+v", b)
	}
}

func TestLeaseStampsSimulatorFromSharedPools(t *testing.T) {
	f := newTestFabric(t, Config{Pools: []condor.Pool{
		{Name: "usc", Slots: 2, Speed: 1, TransferSlots: 1},
		{Name: "wisc", Slots: 4, Speed: 2, TransferSlots: 1},
	}})
	l := mustGrant(t, f, "a", 0)
	sim, err := l.NewSimulator(SimOptions{})
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if sim == nil {
		t.Fatal("nil simulator")
	}
	if got := len(f.Pools()); got != 2 {
		t.Fatalf("Pools() = %d entries, want 2", got)
	}
	if l.Tenant() != "a" {
		t.Fatalf("Tenant() = %q", l.Tenant())
	}
}

func TestMaxRunningJobsComesFromQuota(t *testing.T) {
	f := newTestFabric(t, Config{Quotas: map[string]Quota{"a": {MaxRunningJobs: 3}}})
	if l := mustGrant(t, f, "a", 0); l.MaxRunningJobs() != 3 {
		t.Fatalf("MaxRunningJobs = %d, want 3", l.MaxRunningJobs())
	}
	if l := mustGrant(t, f, "b", 0); l.MaxRunningJobs() != 0 {
		t.Fatalf("default MaxRunningJobs = %d, want 0", l.MaxRunningJobs())
	}
}
