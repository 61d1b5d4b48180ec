// Package fabric is the shared multi-tenant execution fabric: one
// persistent scheduler that multiplexes many concurrent workflows over a
// single set of Condor pools. It is the "millions of users" refactor of
// the ROADMAP — before it, every portal request stamped a private
// simulator and the service had no defense against concurrent load.
//
// The fabric owns three decisions:
//
//   - Admission. Submit-side, deterministic, O(1): a workflow is either
//     granted a slot immediately, queued (bounded per tenant and
//     fleet-wide), or shed with a typed ShedError carrying the HTTP
//     status (429 for a tenant over its own queue quota, 503 for a
//     fleet-wide overload) and a deterministic Retry-After hint. The
//     service never queues unboundedly.
//
//   - Scheduling. When a slot frees, the next workflow is chosen by
//     priority class first, then weighted fair share (lowest charged
//     model-time debt per weight unit), then arrival order. Tenants at
//     their running-workflow quota are skipped, so a lower-priority
//     tenant with spare quota backfills idle capacity instead of the
//     slot going unused behind a quota-blocked head-of-line workflow.
//     Usage is charged in model time (the deterministic discrete-event
//     makespan), so fair-share debt is reproducible across runs.
//
//   - Simulator stamping. The fabric is the only package allowed to
//     construct condor.Simulator values (enforced by the nvolint
//     fabricpool analyzer): every workflow's scheduler is stamped from
//     the one shared pool configuration, so no request can conjure
//     private capacity. Each workflow still gets its own simulator
//     instance — the per-workflow discrete-event clock is what keeps a
//     workflow's schedule, journal and output bytes independent of how
//     other tenants interleave on the fabric.
//
// Cancellation propagates end to end: a context canceled while queued
// dequeues the ticket (counted per tenant); canceled while running it
// reaches DAGMan's abort check and drains only that workflow's in-flight
// side effects.
package fabric

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/condor"
	"repro/internal/faults"
)

// Quota bounds one tenant's footprint on the fabric. Zero fields mean
// unlimited, so the zero Quota is the permissive single-tenant default.
type Quota struct {
	// MaxRunningWorkflows caps the tenant's concurrently executing
	// workflows; further admitted workflows wait in the queue.
	MaxRunningWorkflows int
	// MaxQueuedWorkflows caps the tenant's waiting workflows; admissions
	// beyond it are shed with a 429 ShedError.
	MaxQueuedWorkflows int
	// MaxRunningJobs caps the simultaneously submitted DAG nodes of each
	// of the tenant's workflows (DAGMan's -maxjobs throttle).
	MaxRunningJobs int
	// Weight is the fair-share weight (default 1): a tenant with weight 2
	// may consume twice the model time of a weight-1 tenant before its
	// queued work yields.
	Weight float64
	// Priority is the scheduling class; higher-priority queued workflows
	// are granted slots first, regardless of fair-share debt.
	Priority int
}

// Config parameterizes a fabric.
type Config struct {
	// Pools is the shared Condor pool set every stamped simulator runs
	// over. Required.
	Pools []condor.Pool
	// MaxRunningWorkflows caps concurrently executing workflows
	// fleet-wide (0 = unlimited).
	MaxRunningWorkflows int
	// MaxQueuedWorkflows caps the waiting workflows fleet-wide; admissions
	// beyond it are shed with a 503 ShedError (0 = unlimited).
	MaxQueuedWorkflows int
	// DefaultQuota applies to tenants absent from Quotas.
	DefaultQuota Quota
	// Quotas overrides the default per tenant name.
	Quotas map[string]Quota
	// RetryAfter is the base client back-off hint attached to ShedErrors,
	// scaled by the shedding tenant's queue depth so the hint grows
	// deterministically with pressure. Default 2s.
	RetryAfter time.Duration
	// Preemption lets the scheduler reclaim capacity: when a
	// higher-priority-class ticket waits and the fleet is saturated, the
	// lowest-priority preemptible lease (ties: highest fair-share debt,
	// then latest arrival) is revoked. The holder checkpoint-stops and
	// requeues via Lease.Preempted. Off by default.
	Preemption bool
}

// ShedError is a deterministic admission rejection: the request was
// refused (not queued), and the client should retry after the hint.
type ShedError struct {
	Tenant     string
	HTTPStatus int // 429 (tenant quota) or 503 (fleet overload / shutdown)
	RetryAfter time.Duration
	Reason     string
}

// Error renders the rejection.
func (e *ShedError) Error() string {
	return fmt.Sprintf("fabric: %s (tenant %q, status %d, retry after %s)",
		e.Reason, e.Tenant, e.HTTPStatus, e.RetryAfter)
}

// AsShed extracts a ShedError from an error chain.
func AsShed(err error) (*ShedError, bool) {
	var s *ShedError
	if errors.As(err, &s) {
		return s, true
	}
	return nil, false
}

// tenantState is one tenant's live accounting.
type tenantState struct {
	name    string
	quota   Quota
	queued  int
	running int
	usage   time.Duration // charged model time across completed workflows

	admitted  int
	shed429   int
	shed503   int
	canceled  int
	completed int
	failed    int
	preempted int // leases revoked by the scheduler
	requeued  int // revoked workflows re-entering the queue
}

// debt is the tenant's weighted fair-share position: charged model
// seconds per weight unit. Lower debt wins the next slot.
func (ts *tenantState) debt() float64 {
	return ts.usage.Seconds() / ts.quota.Weight
}

// Fabric is the shared scheduler. Create with New; safe for concurrent
// use.
type Fabric struct {
	cfg Config

	mu       sync.Mutex
	closed   bool
	held     bool
	seq      int64
	running  int
	queued   int
	revoking int       // revoked leases not yet released (slots about to free)
	queue    []*Ticket // waiting tickets, arrival order
	leases   []*Lease  // live leases, grant order
	tenants  map[string]*tenantState
}

// New validates the configuration and builds a fabric.
func New(cfg Config) (*Fabric, error) {
	if len(cfg.Pools) == 0 {
		return nil, errors.New("fabric: at least one pool is required")
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	return &Fabric{cfg: cfg, tenants: map[string]*tenantState{}}, nil
}

// Pools returns a copy of the shared pool configuration.
func (f *Fabric) Pools() []condor.Pool {
	out := make([]condor.Pool, len(f.cfg.Pools))
	copy(out, f.cfg.Pools)
	return out
}

// tenant returns (creating on first use) a tenant's state. Caller holds mu.
func (f *Fabric) tenant(name string) *tenantState {
	ts, ok := f.tenants[name]
	if !ok {
		q := f.cfg.DefaultQuota
		if o, ok := f.cfg.Quotas[name]; ok {
			q = o
		}
		if q.Weight <= 0 {
			q.Weight = 1
		}
		ts = &tenantState{name: name, quota: q}
		f.tenants[name] = ts
	}
	return ts
}

// Ticket is one admitted workflow's place on the fabric: granted
// immediately at admission or waiting for a slot.
type Ticket struct {
	f        *Fabric
	ts       *tenantState
	priority int
	seq      int64

	lease   *Lease // set under f.mu once granted
	granted chan *Lease
	dead    bool // removed from the queue by cancellation
}

// Granted reports whether the ticket already holds a slot.
func (t *Ticket) Granted() bool {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	return t.lease != nil
}

// retryAfter computes the deterministic back-off hint for one tenant:
// the base hint scaled by the tenant's queue depth at the shed instant.
func (f *Fabric) retryAfter(ts *tenantState) time.Duration {
	return f.cfg.RetryAfter * time.Duration(1+ts.queued)
}

// Admit is the admission decision for one workflow: an immediate grant
// when capacity and quota allow, a bounded queue entry otherwise, or a
// typed ShedError. The decision is deterministic in the sequence of
// Admit/Done calls — no clocks, no randomness — which is what makes a
// shed set reproducible for a fixed submission order.
func (f *Fabric) Admit(tenant string, priority int) (*Ticket, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ts := f.tenant(tenant)
	if f.closed {
		ts.shed503++
		return nil, &ShedError{Tenant: tenant, HTTPStatus: 503,
			RetryAfter: f.retryAfter(ts), Reason: "fabric shutting down"}
	}
	f.seq++
	t := &Ticket{f: f, ts: ts, priority: priority, seq: f.seq, granted: make(chan *Lease, 1)}

	// Immediate grant: capacity free, tenant under quota, scheduling not
	// held. Queued waiters from other tenants cannot be preferable here —
	// if they were grantable, a prior schedule() would have granted them.
	if !f.held &&
		(f.cfg.MaxRunningWorkflows == 0 || f.running < f.cfg.MaxRunningWorkflows) &&
		(ts.quota.MaxRunningWorkflows == 0 || ts.running < ts.quota.MaxRunningWorkflows) {
		ts.admitted++
		f.grant(t)
		return t, nil
	}

	// Must wait: enforce the queue bounds, tenant quota first (the
	// client-correctable 429), then the fleet-wide overload 503.
	if q := ts.quota.MaxQueuedWorkflows; q > 0 && ts.queued >= q {
		ts.shed429++
		return nil, &ShedError{Tenant: tenant, HTTPStatus: 429,
			RetryAfter: f.retryAfter(ts), Reason: "tenant workflow queue full"}
	}
	if q := f.cfg.MaxQueuedWorkflows; q > 0 && f.queued >= q {
		ts.shed503++
		return nil, &ShedError{Tenant: tenant, HTTPStatus: 503,
			RetryAfter: f.retryAfter(ts), Reason: "fabric workflow queue full"}
	}
	ts.admitted++
	ts.queued++
	f.queued++
	f.queue = append(f.queue, t)
	f.preempt()
	return t, nil
}

// grant hands t a slot. Caller holds mu; t must not be in the queue.
func (f *Fabric) grant(t *Ticket) {
	t.ts.running++
	f.running++
	t.lease = &Lease{f: f, ts: t.ts, priority: t.priority, seq: t.seq,
		revoke: make(chan struct{})}
	f.leases = append(f.leases, t.lease)
	t.granted <- t.lease
}

// schedule grants slots to queued workflows while capacity lasts:
// priority class first, then lowest fair-share debt per weight, then
// arrival order; tenants at their running-workflow quota are skipped
// (backfill). Caller holds mu.
func (f *Fabric) schedule() {
	for !f.held && (f.cfg.MaxRunningWorkflows == 0 || f.running < f.cfg.MaxRunningWorkflows) {
		best := -1
		for i, t := range f.queue {
			if q := t.ts.quota.MaxRunningWorkflows; q > 0 && t.ts.running >= q {
				continue // over quota: later tenants may backfill
			}
			if best < 0 {
				best = i
				continue
			}
			b := f.queue[best]
			if t.priority != b.priority {
				if t.priority > b.priority {
					best = i
				}
				continue
			}
			if t.ts != b.ts && t.ts.debt() != b.ts.debt() {
				if t.ts.debt() < b.ts.debt() {
					best = i
				}
				continue
			}
			// Same class, same debt (or same tenant): arrival order; the
			// queue is already arrival-ordered, so keep the earlier one.
		}
		if best < 0 {
			return // every queued tenant is at quota
		}
		t := f.queue[best]
		f.queue = append(f.queue[:best], f.queue[best+1:]...)
		t.ts.queued--
		f.queued--
		f.grant(t)
	}
	f.preempt()
}

// waitersInGrantOrder returns the queue sorted by the grant preference
// (priority class desc, fair-share debt asc, arrival order). Caller
// holds mu; the queue itself is left in arrival order.
func (f *Fabric) waitersInGrantOrder() []*Ticket {
	out := make([]*Ticket, len(f.queue))
	copy(out, f.queue)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.priority != b.priority {
			return a.priority > b.priority
		}
		if da, db := a.ts.debt(), b.ts.debt(); da != db {
			return da < db
		}
		return a.seq < b.seq
	})
	return out
}

// preempt reclaims capacity for waiting higher-priority-class work: while
// the fleet is saturated and a queued ticket outranks a live preemptible
// lease, the victim — lowest priority class, then highest fair-share
// debt, then latest arrival — is revoked. The holder observes the
// revocation (Lease.Revoked) and checkpoint-stops into Lease.Preempted,
// which frees the slot and requeues the workflow. Each pending revocation
// already covers one waiter, so a saturated burst never revokes more
// leases than it has uncovered waiters. Deterministic in the call
// sequence: no clocks, no randomness. Caller holds mu.
func (f *Fabric) preempt() {
	if !f.cfg.Preemption || f.held || f.closed {
		return
	}
	if f.cfg.MaxRunningWorkflows == 0 || f.running < f.cfg.MaxRunningWorkflows {
		return // capacity free: schedule() grants without reclaiming
	}
	covered := f.revoking
	for _, t := range f.waitersInGrantOrder() {
		if q := t.ts.quota.MaxRunningWorkflows; q > 0 && t.ts.running >= q {
			continue // a freed fleet slot would not make it runnable
		}
		if covered > 0 {
			covered--
			continue // a pending revocation already frees a slot for it
		}
		v := f.victimFor(t.priority)
		if v == nil {
			return // no lease outranked: lower-ranked waiters fare no better
		}
		f.revoke(v)
	}
}

// victimFor picks the preemption victim for a waiter of the given
// priority class: among live preemptible leases of a strictly lower
// class, the lowest class loses first, ties broken by highest fair-share
// debt, then latest arrival. Returns nil when no lease is outranked.
// Caller holds mu.
func (f *Fabric) victimFor(priority int) *Lease {
	var best *Lease
	for _, l := range f.leases {
		if l.revoked || !l.preemptible || l.priority >= priority {
			continue
		}
		if best == nil {
			best = l
			continue
		}
		if l.priority != best.priority {
			if l.priority < best.priority {
				best = l
			}
			continue
		}
		if da, db := l.ts.debt(), best.ts.debt(); da != db {
			if da > db {
				best = l
			}
			continue
		}
		if l.seq > best.seq {
			best = l
		}
	}
	return best
}

// revoke marks a lease for preemption and signals its holder. The slot
// stays occupied until the holder releases it (Preempted or Done); the
// revoking gauge covers the waiter in the meantime. Caller holds mu.
func (f *Fabric) revoke(l *Lease) {
	l.revoked = true
	l.ts.preempted++
	f.revoking++
	close(l.revoke)
}

// Wait blocks until the ticket is granted a slot, returning the Lease the
// workflow executes under. A context canceled while the ticket waits
// dequeues it (counted as canceled for its tenant) and returns the
// context's error — the deadline/cancellation propagation path from the
// web handler into the scheduler.
func (t *Ticket) Wait(ctx Context) (*Lease, error) {
	t.f.mu.Lock()
	if t.lease != nil {
		l := t.lease
		t.f.mu.Unlock()
		return l, nil
	}
	if t.dead {
		t.f.mu.Unlock()
		return nil, errors.New("fabric: ticket canceled")
	}
	t.f.mu.Unlock()

	select {
	case l := <-t.granted:
		return l, nil
	case <-ctx.Done():
	}

	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	if t.lease != nil {
		// The grant raced the cancellation; honor it — the caller's dead
		// context aborts the workflow immediately and releases the slot.
		return t.lease, nil
	}
	for i, q := range t.f.queue {
		if q == t {
			t.f.queue = append(t.f.queue[:i], t.f.queue[i+1:]...)
			break
		}
	}
	t.dead = true
	t.ts.queued--
	t.f.queued--
	t.ts.canceled++
	return nil, ctx.Err()
}

// Context is the subset of context.Context the fabric needs; declared
// locally so the package's public surface states exactly what it uses.
type Context interface {
	Done() <-chan struct{}
	Err() error
}

// Lease is one granted workflow's hold on a fabric slot. Release it with
// Done when the workflow finishes (however it finishes), or with
// Preempted after a checkpoint-stop answers a revocation.
type Lease struct {
	f        *Fabric
	ts       *tenantState
	priority int
	seq      int64 // arrival order of the granting ticket

	preemptible bool
	revoked     bool
	revoke      chan struct{} // closed on revocation
	released    bool
}

// Tenant returns the tenant the lease is accounted to.
func (l *Lease) Tenant() string { return l.ts.name }

// MaxRunningJobs returns the tenant's per-workflow concurrent-job quota
// (0 = unlimited) — wire it into DAGMan's MaxInFlight throttle.
func (l *Lease) MaxRunningJobs() int { return l.ts.quota.MaxRunningJobs }

// SetPreemptible marks the lease eligible (or not) for scheduler
// revocation. Only holders that can checkpoint-stop — a journaled
// workflow — should opt in; the default is not preemptible.
func (l *Lease) SetPreemptible(ok bool) {
	l.f.mu.Lock()
	defer l.f.mu.Unlock()
	if l.released || l.revoked {
		return
	}
	l.preemptible = ok
	if ok {
		// Newly revocable capacity may unblock a starved waiter.
		l.f.preempt()
	}
}

// Revoked returns a channel closed when the scheduler revokes the lease.
// The holder should checkpoint-stop at its next safe boundary and call
// Preempted.
func (l *Lease) Revoked() <-chan struct{} { return l.revoke }

// IsRevoked reports whether the scheduler has revoked the lease — the
// poll-style twin of Revoked for abort checks.
func (l *Lease) IsRevoked() bool {
	select {
	case <-l.revoke:
		return true
	default:
		return false
	}
}

// JobAllowance returns the lease's current concurrent-job throttle: the
// tenant's own MaxRunningJobs plus an equal integer share of the job
// headroom lent by tenants whose workflows are all waiting (queued with
// nothing running — their job quota is idle until a workflow slot frees,
// at which point the loan is reclaimed because the allowance is
// recomputed at every poll). 0 = unlimited. Deterministic in the
// Admit/Done/SetQuota call sequence.
func (l *Lease) JobAllowance() int {
	l.f.mu.Lock()
	defer l.f.mu.Unlock()
	own := l.ts.quota.MaxRunningJobs
	if own == 0 || l.released {
		return own
	}
	lent := 0
	for _, ts := range l.f.tenants {
		// Order-insensitive sum, so map-range order cannot leak.
		if ts.quota.MaxRunningJobs > 0 && ts.running == 0 && ts.queued > 0 {
			lent += ts.quota.MaxRunningJobs
		}
	}
	if lent == 0 {
		return own
	}
	borrowers := 0
	for _, x := range l.f.leases {
		if x.ts.quota.MaxRunningJobs > 0 {
			borrowers++
		}
	}
	if borrowers == 0 {
		return own
	}
	return own + lent/borrowers
}

// SimOptions tune one stamped simulator.
type SimOptions struct {
	// Workers bounds concurrent side-effect execution (see condor.SetWorkers).
	Workers int
	// SubmitOverhead models the serialized per-task submission cost.
	SubmitOverhead time.Duration
	// TransferSlots gives each pool that many dedicated data-movement
	// slots (pools with an explicit setting keep it).
	TransferSlots int
	// Injector is the workflow's fault injector (nil = fault-free). A
	// per-workflow injector keeps fault schedules deterministic however
	// tenants interleave on the fabric.
	Injector *faults.Injector
}

// NewSimulator stamps one workflow's scheduler from the shared pool set.
// Each call returns a fresh simulator — a private discrete-event clock
// over the shared capacity model — which is what keeps one workflow's
// schedule and journal byte-stable regardless of co-tenants.
func (l *Lease) NewSimulator(opt SimOptions) (*condor.Simulator, error) {
	return l.f.NewSimulator(opt)
}

// NewSimulator is the package-level stamp (see Lease.NewSimulator). It is
// the only sanctioned call site of condor.NewSimulator outside tests —
// the invariant the nvolint fabricpool analyzer enforces.
func (f *Fabric) NewSimulator(opt SimOptions) (*condor.Simulator, error) {
	pools := make([]condor.Pool, len(f.cfg.Pools))
	copy(pools, f.cfg.Pools)
	if opt.TransferSlots > 0 {
		for i := range pools {
			if pools[i].TransferSlots == 0 {
				pools[i].TransferSlots = opt.TransferSlots
			}
		}
	}
	sim, err := condor.NewSimulator(pools...)
	if err != nil {
		return nil, err
	}
	sim.SetInjector(opt.Injector)
	if opt.Workers > 0 {
		sim.SetWorkers(opt.Workers)
	}
	sim.SetSubmitOverhead(opt.SubmitOverhead)
	return sim, nil
}

// release frees the slot and charges usage. Caller holds mu and has
// checked l.released.
func (l *Lease) release(usage time.Duration) {
	l.released = true
	l.ts.running--
	l.f.running--
	if l.revoked {
		l.f.revoking--
	}
	for i, x := range l.f.leases {
		if x == l {
			l.f.leases = append(l.f.leases[:i], l.f.leases[i+1:]...)
			break
		}
	}
	if usage > 0 {
		l.ts.usage += usage
	}
}

// Done releases the slot, charges the workflow's model-time usage to the
// tenant's fair-share account, and schedules waiting work. failed records
// the outcome in the tenant counters. Done is idempotent.
func (l *Lease) Done(usage time.Duration, failed bool) {
	l.f.mu.Lock()
	defer l.f.mu.Unlock()
	if l.released {
		return
	}
	l.release(usage)
	if failed {
		l.ts.failed++
	} else {
		l.ts.completed++
	}
	l.f.schedule()
}

// Preempted is the revoked holder's half of a preemption: the workflow
// has checkpoint-stopped, so release the slot, charge the model time
// consumed so far, and re-enter the queue at the original priority class
// with a fresh arrival position. The requeued ticket bypasses the
// admission shed bounds — the workflow was already admitted once — but it
// does count in the tenant's queue depth, so Retry-After hints and
// 429/503 decisions for new arrivals see the displaced work. Returns the
// ticket to Wait on (nil if the lease was already released).
func (l *Lease) Preempted(usage time.Duration) *Ticket {
	l.f.mu.Lock()
	defer l.f.mu.Unlock()
	if l.released {
		return nil
	}
	f := l.f
	l.release(usage)
	l.ts.requeued++
	f.seq++
	t := &Ticket{f: f, ts: l.ts, priority: l.priority, seq: f.seq,
		granted: make(chan *Lease, 1)}
	l.ts.queued++
	f.queued++
	f.queue = append(f.queue, t)
	f.schedule()
	return t
}

// SetQuota replaces a tenant's quota at runtime. The new bounds apply to
// the next scheduling decision — workflows already running keep their
// slots (rebalancing never yanks a compliant tenant; at most the tenant
// stops receiving new grants until it drains below the new caps). A
// non-positive Weight is normalized to 1. Deterministic in the call
// sequence, like every other fabric mutation.
func (f *Fabric) SetQuota(tenant string, q Quota) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if q.Weight <= 0 {
		q.Weight = 1
	}
	ts := f.tenant(tenant)
	ts.quota = q
	f.schedule()
}

// SetWeight adjusts only a tenant's fair-share weight at runtime,
// re-ranking its queued work at the next scheduling decision.
func (f *Fabric) SetWeight(tenant string, w float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w <= 0 {
		w = 1
	}
	f.tenant(tenant).quota.Weight = w
	f.schedule()
}

// Hold pauses slot grants: admissions still queue (and shed when bounds
// overflow) but nothing starts until Unhold. Tests use it to make a
// submission burst's shed set independent of execution timing.
func (f *Fabric) Hold() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.held = true
}

// Unhold resumes slot grants and schedules queued work.
func (f *Fabric) Unhold() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.held = false
	f.schedule()
}

// Close sheds all future admissions with 503. Queued and running
// workflows are left to finish.
func (f *Fabric) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
}

// TenantSnapshot is one tenant's counter set at a snapshot instant.
type TenantSnapshot struct {
	Tenant string
	// Cumulative outcomes.
	Admitted  int // granted or queued (not shed)
	Shed      int // total rejections
	Shed429   int // tenant queue quota rejections
	Shed503   int // fleet overload / shutdown rejections
	Canceled  int // dequeued by cancellation while waiting
	Completed int
	Failed    int
	Preempted int // leases revoked by the scheduler
	Requeued  int // revoked workflows that re-entered the queue
	// Live gauges.
	Queued  int
	Running int
	// Fair-share position.
	UsageModelTime time.Duration
	FairShareDebt  float64 // model seconds per weight unit
}

// FleetSnapshot aggregates the fabric's counters — the /stats payload of
// the multi-tenant service.
type FleetSnapshot struct {
	Running   int
	Queued    int
	Admitted  int
	Shed      int
	Completed int
	Failed    int
	Preempted int
	Requeued  int
	Tenants   []TenantSnapshot // sorted by tenant name
}

// Snapshot returns the fleet-wide and per-tenant counters.
func (f *Fabric) Snapshot() FleetSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := FleetSnapshot{Running: f.running, Queued: f.queued}
	names := make([]string, 0, len(f.tenants))
	for name := range f.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := f.tenants[name]
		snap := TenantSnapshot{
			Tenant:         name,
			Admitted:       ts.admitted,
			Shed429:        ts.shed429,
			Shed503:        ts.shed503,
			Shed:           ts.shed429 + ts.shed503,
			Canceled:       ts.canceled,
			Completed:      ts.completed,
			Failed:         ts.failed,
			Preempted:      ts.preempted,
			Requeued:       ts.requeued,
			Queued:         ts.queued,
			Running:        ts.running,
			UsageModelTime: ts.usage,
			FairShareDebt:  ts.debt(),
		}
		out.Admitted += snap.Admitted
		out.Shed += snap.Shed
		out.Completed += snap.Completed
		out.Failed += snap.Failed
		out.Preempted += snap.Preempted
		out.Requeued += snap.Requeued
		out.Tenants = append(out.Tenants, snap)
	}
	return out
}
