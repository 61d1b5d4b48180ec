// Package webservice implements the Galaxy Morphology compute service of the
// paper's §4.3: Pegasus exposed as an asynchronous web service. A request
// carries a VOTable of cluster galaxies (positions, redshifts, image URLs);
// the service
//
//  1. assigns a unique request identifier and immediately returns a status
//     URL the client polls (§4.3.1 item 2: asynchronous interface);
//  2. short-circuits if the output VOTable is already registered in the RLS
//     (Figure 6 step 2);
//  3. downloads every galaxy image into a local cache and registers it in
//     the RLS — so later requests skip the slow SIA fetch and use GridFTP
//     (§4.3.1 item 3: data caching);
//  4. transforms the VOTable into Chimera VDL — a transformation definition
//     plus one derivation per galaxy and a concatenating derivation (the
//     XSLT-stylesheet step of §4.3);
//  5. has Chimera compose the abstract workflow and Pegasus reduce and
//     concretize it;
//  6. executes the concrete workflow with DAGMan over simulated Condor
//     pools, computing the three morphology parameters per galaxy, with a
//     per-galaxy validity flag so bad images do not take down the whole
//     experiment (§4.3.1 item 4: fault tolerance);
//  7. concatenates results into the output VOTable, stores it, registers it
//     in the RLS, and publishes its URL on the status page.
package webservice

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gridftp"
	"repro/internal/httpclient"
	"repro/internal/journal"
	"repro/internal/myproxy"
	"repro/internal/pegasus"
	"repro/internal/resilience"
	"repro/internal/rls"
	"repro/internal/tcat"
	"repro/internal/vdcache"
	"repro/internal/votable"
)

// RunStats aggregates what one request cost — the quantities §5 of the paper
// reports for its campaign.
type RunStats struct {
	Galaxies      int
	ComputeJobs   int
	PrunedJobs    int
	TransferNodes int
	RegisterNodes int
	ImagesFetched int           // downloaded via SIA this request (cache misses)
	ImagesCached  int           // already in the GridFTP cache
	SIARequests   int           // HTTP requests made to image services
	SIABytes      int64         // bytes received from image services
	SIAModelTime  time.Duration // modelled wide-area cost of those requests
	FilesStaged   int           // GridFTP transfers executed
	BytesStaged   int64         // GridFTP bytes moved
	InvalidRows   int           // galaxies flagged invalid by the validity flag
	Retries       int           // DAGMan node re-submissions after failures
	Failovers     int           // transfers redirected to an alternate replica
	MemoHits      int           // galMorph results served from the virtual-data cache
	MemoMisses    int           // galMorph results measured and cached
	Makespan      time.Duration // model execution time of the concrete DAG
	ReusedOutput  bool          // whole result served from the RLS

	// Integrity and recovery accounting.
	ChecksumFailures int // replica verifications that failed
	Quarantined      int // replicas pulled from RLS circulation
	Rederived        int // files reproduced from Chimera provenance
	RestoredNodes    int // nodes recovered as done from a prior journal

	// Planner and scheduler throughput accounting.
	RLSRoundTrips     int64 // RLS read round trips planning cost (O(1) via BulkLookup)
	PlannedBytesMoved int64 // planner's link-cost estimate of bytes its transfer nodes move
	ScheduleEvents    int   // Condor tasks submitted (a clustered batch is one event)
	ClusteredTasks    int   // multi-node batches submitted
	ClusteredNodes    int   // inner jobs carried by those batches

	// Wave execution accounting (Config.WaveSize > 0).
	Waves        int // concrete waves planned and released
	MaxWaveNodes int // largest single wave — the bounded peak DAG footprint
	// ImagesEvicted counts staged cutouts deleted from the cache store
	// once their wave's outputs were registered; PeakStagedImages is the
	// high-water mark of live staged cutouts — bounded by the wave size
	// instead of the whole survey when eviction is on.
	ImagesEvicted    int
	PeakStagedImages int

	// Preemptions counts how many times the fabric revoked this request's
	// slot mid-run (each one checkpoint-stopped, requeued and resumed).
	Preemptions int
}

// add folds the delta d into s: counters add, the two high-water marks take
// the maximum, ReusedOutput latches. It is the one fold of RunStats — a leg
// accounts through it and Service.Stats totals requests with it — so a
// RunStats is the fold of its deltas in any order, which is what keeps it
// identical at every worker width.
func (s *RunStats) add(d RunStats) {
	s.Galaxies += d.Galaxies
	s.ComputeJobs += d.ComputeJobs
	s.PrunedJobs += d.PrunedJobs
	s.TransferNodes += d.TransferNodes
	s.RegisterNodes += d.RegisterNodes
	s.ImagesFetched += d.ImagesFetched
	s.ImagesCached += d.ImagesCached
	s.SIARequests += d.SIARequests
	s.SIABytes += d.SIABytes
	s.SIAModelTime += d.SIAModelTime
	s.FilesStaged += d.FilesStaged
	s.BytesStaged += d.BytesStaged
	s.InvalidRows += d.InvalidRows
	s.Retries += d.Retries
	s.Failovers += d.Failovers
	s.MemoHits += d.MemoHits
	s.MemoMisses += d.MemoMisses
	s.Makespan += d.Makespan
	s.ReusedOutput = s.ReusedOutput || d.ReusedOutput
	s.ChecksumFailures += d.ChecksumFailures
	s.Quarantined += d.Quarantined
	s.Rederived += d.Rederived
	s.RestoredNodes += d.RestoredNodes
	s.RLSRoundTrips += d.RLSRoundTrips
	s.PlannedBytesMoved += d.PlannedBytesMoved
	s.ScheduleEvents += d.ScheduleEvents
	s.ClusteredTasks += d.ClusteredTasks
	s.ClusteredNodes += d.ClusteredNodes
	s.Waves += d.Waves
	s.MaxWaveNodes = max(s.MaxWaveNodes, d.MaxWaveNodes)
	s.ImagesEvicted += d.ImagesEvicted
	s.PeakStagedImages = max(s.PeakStagedImages, d.PeakStagedImages)
	s.Preemptions += d.Preemptions
}

// Status is what the polling URL returns. JobsDone/JobsTotal stream the
// workflow's progress (DAGMan monitoring, Figure 2 step 15) so the portal
// can show intermediate status messages, as §4.3.1 item 2 intends; Stats is
// the running leg's accounting so far, final once the request ends.
type Status struct {
	ID        string
	Cluster   string
	Tenant    string
	Priority  int // fabric scheduling class the request was admitted at
	State     State
	Message   string
	ResultLFN string
	JobsDone  int
	JobsTotal int
	Stats     RunStats
}

// cacheSite is where downloaded images and the final tables live (the web
// server's local storage, "isi" in the paper's deployment).
const cacheSite = "isi"

// Config wires the service to its Grid substrate.
type Config struct {
	RLS     *rls.RLS
	TC      *tcat.Catalog
	GridFTP *gridftp.Service
	// Fabric is the multi-tenant execution fabric every workflow is
	// admitted to and scheduled on, and the one home of the Condor pool set
	// and its transfer lanes: many services (or many tenants of one
	// service) multiplex over its pools under admission control, quotas
	// and fair-share ordering. Required.
	Fabric *fabric.Fabric

	// HTTPClient fetches galaxy images from their acref URLs.
	HTTPClient *http.Client
	// Seed drives site selection deterministically.
	Seed int64
	// MaxRetries is DAGMan's retry budget per job: a failed job is
	// resubmitted up to MaxRetries times, and zero runs it once.
	MaxRetries int
	// RescueRounds resubmits the rescue DAG up to this many times after a
	// permanent workflow failure (DAGMan's rescue-file recovery).
	RescueRounds int
	// StrictFaults, when set, turns bad-image measurements into job
	// failures instead of validity-flagged rows (the rejected design of
	// §4.3.1 item 4, for the ablation).
	StrictFaults bool
	// Proxy, when set, supplies the Grid credential each computation runs
	// under; requests are refused when no valid proxy is available
	// (§4.3.1 item 5 — the MyProxy integration the paper plans; leaving it
	// nil reproduces the prototype's server-stored-credential behaviour).
	Proxy func() (myproxy.Proxy, error)
	// Now is the clock proxy-credential validity is checked against at
	// submission. The default is the wall clock — live deployments admit
	// a request only while its credential is valid — but tests and
	// resumable runs inject a fixed clock so admission, and therefore
	// the output bytes, cannot depend on when a run happens to execute.
	// Resume never re-validates: the original submission's admission
	// decision governs the whole run, however much wall time passed
	// before the journal is replayed.
	Now func() time.Time
	// BatchFetch pulls galaxy images through the batched cutout interface
	// ("this could be sped up tremendously if one could query for all
	// images at once", §4.2) when the acrefs support it, instead of one
	// HTTP request per galaxy.
	BatchFetch bool
	// Breakers, when set, tracks per-(site, operation) circuit state:
	// transfer nodes skip replicas at sites whose circuit is open and record
	// every outcome. Nil disables circuit breaking at zero cost.
	Breakers *resilience.Registry
	// MirrorSite, when non-empty, replicates every cached image to a second
	// site and registers both PFNs in the RLS, giving transfer nodes a
	// replica to fail over to when the primary cache site is down.
	MirrorSite string
	// FaultsFor, when set, supplies the fault injector installed on every
	// Condor simulator one workflow runs on, making job execution a fault
	// point (op "condor.exec"); a nil return runs that workflow fault-free.
	// The hook is per workflow because an Injector draws probability rules
	// from one rng: returning a distinct injector per (tenant, cluster)
	// keeps every tenant's chaos deterministic however workflows
	// interleave on the fabric, where one shared injector would let
	// concurrent workflows perturb each other's fault schedules.
	FaultsFor func(tenant, cluster string) *faults.Injector
	// Workers bounds the side-effect concurrency of one request: the Condor
	// simulator's leaf-job Run bodies and the image-staging fetches fan out
	// to at most this many goroutines. <= 1 (the default) is fully serial;
	// any setting leaves the model clock, the schedule, and the result
	// VOTable byte-identical — only wall-clock time changes.
	Workers int
	// JournalDir, when non-empty, makes every run crash-safe: the planned
	// DAG, the generated VDL, and a write-ahead journal of every DAGMan
	// state transition are persisted under this directory, and Resume can
	// reopen a killed run and finish only the unfinished nodes.
	JournalDir string
	// WrapJournal, when set, wraps each workflow leg's journal sink — the one
	// test hook on that seam. Kill-and-resume campaigns interpose a
	// journal.CrashSink here (simulating kill -9 after k appends; the record
	// at the crash point is never written); preemption campaigns interpose
	// event-counting triggers — e.g. admitting a higher-priority workflow
	// after exactly k appends, so a preemption lands at a chosen
	// journal-event boundary deterministically. Reopen disarms it.
	WrapJournal func(tenant, cluster string, sink journal.Sink) journal.Sink
	// Selection overrides Pegasus's site-selection policy. The zero value is
	// pegasus.SelectRandom (the paper's behaviour); pegasus.SelectLocality
	// maps each job to the site whose replicas make its inputs cheapest to
	// reach, so cutouts compute where their data already lives;
	// pegasus.SelectLeastLoaded spreads a plan's jobs over the Fabric's
	// pools in proportion to their slot counts.
	Selection pegasus.SiteSelection
	// ClusterSize enables horizontal job clustering: up to this many ready
	// nodes with the same cluster key submit as one Condor task, amortizing
	// per-task scheduling overhead. <= 1 keeps one task per node.
	ClusterSize int
	// WaveSize, when > 0, plans and executes each request as a sequence of
	// bounded waves of this many galaxies instead of one monolithic concrete
	// DAG: images are staged, planned and computed wave by wave, with the
	// concatenating job pinned to a deterministic collector site the waves
	// deliver their results to. Peak planner/scheduler memory is bounded by
	// the wave, not the request, and the output VOTable is byte-identical to
	// the classic path (the schedule is not the classic one: wave plans draw
	// sites per wave). 0 keeps the legacy whole-request plan.
	WaveSize int
	// SchedOverhead models the serialized per-task submission cost of the
	// 2003 Condor-G/GRAM stack on every simulator the service creates
	// (zero = instant-start, the legacy model). Clustering amortizes it.
	SchedOverhead time.Duration
	// EnablePprof mounts the net/http/pprof profiling endpoints under
	// /debug/pprof/ on the service handler.
	EnablePprof bool
}

// Service is the compute service. Create with New.
type Service struct {
	cfg Config

	// memo is the virtual-data cache of per-galaxy morphology measurements,
	// keyed by (image content, measurement parameters) and shared across
	// requests. Nil (always-miss) under StrictFaults, which demands faithful
	// re-execution of failing measurements.
	memo *vdcache.Cache[memoEntry]
	// slots is each Fabric pool's slot count, read once here: the counts
	// least-loaded planning divides by.
	slots map[string]int

	// mu guards the table of published requests; each record guards its
	// own facts.
	mu       sync.Mutex
	requests map[string]*request
	nextID   int
}

// request is the one record of a request's facts: its Status, guarded by mu,
// which the running leg folds its accounting and progress into and moves
// through the lifecycle table, and which /status and /stats read. cancel
// stops a published request and is guarded by Service.mu (the synchronous
// entry points leave it nil: their caller owns the context); observe, when
// set, is told every progress change, outside the lock.
//
// wake is nil while no /status GET waits on the request. A waiter makes it
// and sets wakeAt; a lifecycle event, or progress reaching wakeAt, closes it
// and sets it back to nil, so the doors allocate nothing when no one waits.
type request struct {
	mu sync.Mutex
	Status
	cancel  context.CancelFunc
	observe func(done, total int)
	wake    chan struct{}
	wakeAt  int
	// jobsExpected is a wave leg's job count as its first wave implies it
	// (that wave's jobs per galaxy times the galaxies), the size a waiting
	// /status GET steps by. JobsTotal grows as each wave is planned; a
	// one-graph leg's never does, and it leaves jobsExpected 0.
	jobsExpected int
}

// newRequest is the one constructor of a request record, for a request the
// fabric admitted with ticket: queued, or running when admission granted a
// slot synchronously.
func newRequest(cluster string, opt RequestOptions, ticket *fabric.Ticket, observe func(done, total int)) *request {
	r := &request{Status: Status{Cluster: cluster, Tenant: opt.tenant(), Priority: opt.Priority}, observe: observe}
	if ticket.Granted() {
		r.apply(evGranted, "")
	} else {
		r.apply(evQueued, "")
	}
	return r
}

// apply moves the request through the lifecycle table.
func (r *request) apply(ev event, errText string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.transition(ev, errText)
}

// transition applies ev to the record's Status and wakes every waiter. The
// caller holds r.mu.
func (r *request) transition(ev event, errText string) {
	r.Status.apply(ev, errText)
	r.signal()
}

// signal wakes every waiter. The caller holds r.mu.
func (r *request) signal() {
	if r.wake != nil {
		close(r.wake)
		r.wake = nil
	}
}

// status returns a snapshot of the record.
func (r *request) status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Status
}

// end applies the terminal event of the request's last leg and returns what
// its entry point reports: the output LFN, that leg's stats and err.
func (r *request) end(out string, err error) (string, RunStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.transition(evFailed, err.Error())
	} else {
		r.ResultLFN = out
		r.transition(evCompleted, "")
	}
	return out, r.Stats, err
}

// waitOn returns the channel a waiter that has seen the request in state
// blocks on until the record changes state or JobsDone reaches target, or
// nil when either has happened or the request has ended. Several waiters
// share one channel, closed at the lowest target; each asks again on
// waking. The caller holds r.mu.
func (r *request) waitOn(state State, target int) <-chan struct{} {
	if r.State != state || state == StateCompleted || state == StateFailed || r.JobsDone >= target {
		return nil
	}
	if r.wake == nil {
		r.wake, r.wakeAt = make(chan struct{}), target
	}
	r.wakeAt = min(r.wakeAt, target)
	return r.wake
}

// workers returns the configured side-effect concurrency bound (minimum 1).
func (s *Service) workers() int {
	if s.cfg.Workers < 1 {
		return 1
	}
	return s.cfg.Workers
}

// Errors returned by the service.
var (
	ErrBadTable   = errors.New("webservice: input table must have id, acref columns")
	ErrNoGalaxies = errors.New("webservice: input table has no rows")
	ErrNotFound   = errors.New("webservice: unknown request id")
	// ErrPreempted marks a workflow leg that checkpoint-stopped because the
	// fabric revoked its lease. It is not a failure: the workflow requeues
	// and resumes from its journal when a slot is granted again.
	ErrPreempted = errors.New("webservice: preempted by the fabric scheduler")
)

// New validates the configuration and builds a service.
func New(cfg Config) (*Service, error) {
	if cfg.RLS == nil || cfg.TC == nil || cfg.GridFTP == nil || cfg.Fabric == nil {
		return nil, errors.New("webservice: RLS, TC, GridFTP and Fabric are required")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = httpclient.Shared()
	}
	if cfg.Now == nil {
		//nvolint:ignore noclock credential admission is the service's one wall-clock boundary; replay harnesses inject Config.Now
		cfg.Now = time.Now
	}
	svc := &Service{
		cfg:      cfg,
		slots:    map[string]int{},
		requests: map[string]*request{},
	}
	for _, p := range cfg.Fabric.Pools() {
		svc.slots[p.Name] = p.Slots
	}
	if !cfg.StrictFaults {
		svc.memo = vdcache.New[memoEntry]()
	}
	return svc, nil
}

// DefaultTenant is the accounting principal of requests that carry no
// tenant — the single-tenant prototype's implicit user.
const DefaultTenant = "default"

// RequestOptions identify the principal a workflow is admitted, scheduled
// and accounted as on the fabric.
type RequestOptions struct {
	// Tenant names the accounting principal ("" = DefaultTenant).
	Tenant string
	// Priority is the fabric scheduling class (higher runs first).
	Priority int
}

func (o RequestOptions) tenant() string {
	if o.Tenant == "" {
		return DefaultTenant
	}
	return o.Tenant
}

// admit is the one admission prologue behind every entry point. A fresh
// request (resumeOp "") must carry a valid input table, which leaves here as
// the request's derivations; a resumption (resumeOp names the operation, tab
// is nil, and so are the derivations returned) needs a journal to resume
// from, and a cluster name that can name it. Then the fabric decides: a
// ticket to wait on, or a fabric.ShedError.
func (s *Service) admit(tab *votable.Table, cluster, resumeOp string, opt RequestOptions) (*derivations, *fabric.Ticket, error) {
	var dvs *derivations
	err := checkTenant(opt.Tenant)
	switch {
	case err != nil:
	case resumeOp == "":
		dvs, err = newDerivations(tab, cluster)
	case s.cfg.JournalDir == "":
		err = fmt.Errorf("webservice: %s requires JournalDir", resumeOp)
	default:
		err = checkCluster(cluster)
	}
	if err != nil {
		return nil, nil, err
	}
	ticket, err := s.cfg.Fabric.Admit(opt.tenant(), opt.Priority)
	return dvs, ticket, err
}

// SubmitFor registers a new request on behalf of a tenant and starts the
// computation in the background, returning the request ID the status URL
// embeds. The fabric's admission decision happens here, synchronously: a
// granted or queued request returns an ID to poll; an over-quota request is
// shed with a fabric.ShedError (mapped to 429/503 + Retry-After by the HTTP
// layer) and never occupies service state. The request can be stopped
// mid-flight with Cancel, which aborts the workflow at the next scheduler
// step and journals a clean abort record; canceling a queued request
// dequeues it before it ever runs.
func (s *Service) SubmitFor(tab *votable.Table, cluster string, opt RequestOptions) (string, error) {
	dvs, ticket, err := s.admit(tab, cluster, "", opt)
	if err != nil {
		return "", err
	}
	r := newRequest(cluster, opt, ticket, nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	r.ID = fmt.Sprintf("req-%06d", s.nextID)
	s.requests[r.ID] = r
	s.launch(r, ticket, dvs)
	return r.ID, nil
}

// launch runs a published request in the background, under a context that
// Cancel stops and that is released when run returns. dvs == nil resumes the
// request from its journal. The caller holds s.mu.
func (s *Service) launch(r *request, ticket *fabric.Ticket, dvs *derivations) {
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go func() {
		defer cancel()
		s.run(ctx, r, ticket, dvs)
	}()
}

// run drives an admitted request to its terminal state. It blocks until the
// fabric grants the ticket, then runs the workflow under the fabric's
// preemption protocol: when the scheduler revokes the lease mid-run the leg
// checkpoint-stops at the next journal event boundary (ErrPreempted); the
// loop answers with lease.Preempted — releasing the slot, charging the
// partial model time, and re-entering the queue at the original priority
// class — waits for a fresh grant, and resumes from the scoped journal. It
// repeats until the workflow finishes, fails for a real reason, or is
// canceled while waiting (which dequeues it before it runs), and ends the
// record completed or failed. Every grant (evGranted to a fresh leg,
// evResumed to a resuming one) and revocation (evPreempted) goes through the
// record; dvs == nil makes the first leg a resume too. The RunStats returned
// are the last leg's.
func (s *Service) run(ctx context.Context, r *request, ticket *fabric.Ticket, dvs *derivations) (string, RunStats, error) {
	waiting := "queued"
	for preemptions := 0; ; preemptions++ {
		lease, err := ticket.Wait(ctx)
		if err != nil {
			return r.end("", fmt.Errorf("webservice: canceled while %s: %w", waiting, err))
		}
		if dvs != nil {
			r.apply(evGranted, "")
		} else {
			r.apply(evResumed, "")
		}
		l := s.newLeg(r, preemptions)
		out, err := l.runLeg(ctx, lease, dvs)
		if !errors.Is(err, ErrPreempted) {
			return r.end(out, err)
		}
		if ticket = lease.Preempted(r.status().Stats.Makespan); ticket == nil {
			return r.end(out, err) // lease already released: surface the leg's error
		}
		r.apply(evPreempted, "")
		l.account(RunStats{Preemptions: 1})
		dvs, waiting = nil, "requeued after preemption"
	}
}

// Reopen builds a fresh service on the same Grid substrate (RLS, catalogs,
// GridFTP stores, journal directory) with the journal-sink test hook (the
// crash switch of a kill-and-resume drill) disarmed — the restarted
// process. Request state and the virtual-data memo start empty, exactly as
// after a real process death.
func (s *Service) Reopen() (*Service, error) {
	cfg := s.cfg
	cfg.WrapJournal = nil
	return New(cfg)
}

// Cancel aborts a running request. The workflow stops at the next scheduler
// step, appends an "aborted" record to its journal (when journaling), and the
// request transitions to failed with a cancellation message. Canceling a
// request that already finished is a no-op; an unknown ID errors.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.requests[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	r.cancel()
	return nil
}

// Requeue re-admits a failed journaled request — canceled, crashed or
// shed mid-flight — under its original tenant and priority class, and
// resumes it from its scoped journal in the background (the /cancel
// counterpart: where Cancel stops a request, Requeue puts one back).
// Fabric-revoked requests requeue themselves; this is the operator path
// for everything else. Admission is not bypassed: an over-quota requeue
// sheds like any fresh submission.
func (s *Service) Requeue(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.requests[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	st := r.status()
	if st.State != StateFailed {
		return fmt.Errorf("webservice: request %q is %s; only failed requests requeue", id, st.State)
	}
	_, ticket, err := s.admit(nil, st.Cluster, "requeue", RequestOptions{Tenant: st.Tenant, Priority: st.Priority})
	if err != nil {
		return err
	}
	r.apply(evRequeued, "")
	if ticket.Granted() {
		r.apply(evResumed, "")
	}
	s.launch(r, ticket, nil)
	return nil
}

// Fabric returns the execution fabric the service admits and schedules
// workflows on.
func (s *Service) Fabric() *fabric.Fabric { return s.cfg.Fabric }

// Status returns a snapshot of a request's state.
func (s *Service) Status(id string) (Status, error) {
	r, err := s.lookup(id)
	if err != nil {
		return Status{}, err
	}
	return r.status(), nil
}

// lookup returns the published request id.
func (s *Service) lookup(id string) (*request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.requests[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return r, nil
}

// Bounds of a waiting /status GET (waitStatus): it answers when JobsDone
// has advanced by 1/statusWaitSteps of the request's jobs (at least one
// job; for a wave leg, the jobs its first wave implies), so a
// client that loops on it sees about statusWaitSteps progress steps a
// request, and at the latest after maxStatusWait. Each answer is a JSON
// exchange of about 30 allocations; eight steps show a request's progress
// at 1/8 without making the exchanges a measurable share of its cost.
const (
	statusWaitSteps = 8
	maxStatusWait   = time.Second
)

// waitStatus is Status for a client that has seen the request in state: it
// answers at once when the request is in another state or has ended, and
// otherwise when the request changes state, when JobsDone advances by
// 1/statusWaitSteps of its jobs, when ctx ends or when maxStatusWait
// passes, whichever comes first. The wait decides only when the snapshot is
// taken, never what the request computes.
func (s *Service) waitStatus(ctx context.Context, id string, state State) (Status, error) {
	r, err := s.lookup(id)
	if err != nil {
		return Status{}, err
	}
	r.mu.Lock()
	target := r.JobsDone + max(1, cmp.Or(r.jobsExpected, r.JobsTotal)/statusWaitSteps)
	wake := r.waitOn(state, target)
	r.mu.Unlock()
	if wake != nil {
		//nvolint:ignore noclock the cap on a waiting /status GET decides only when an answer is sent, never what it holds
		timeout := time.NewTimer(maxStatusWait)
		defer timeout.Stop()
		for wake != nil {
			select {
			case <-wake:
				r.mu.Lock()
				wake = r.waitOn(state, target)
				r.mu.Unlock()
			case <-ctx.Done():
				wake = nil
			case <-timeout.C:
				wake = nil
			}
		}
	}
	return r.status(), nil
}

// outputLFN names the result table after the cluster, as §4.3 describes.
func outputLFN(cluster string) string { return cluster + ".vot" }

// requestSeed derives a deterministic, order-independent seed for one
// cluster's computation.
func (s *Service) requestSeed(cluster string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(cluster))
	return s.cfg.Seed ^ int64(h.Sum64())
}

// Compute runs the full §4.3 pipeline synchronously and returns the output
// LFN. The portal normally reaches it through SubmitFor/Status polling.
func (s *Service) Compute(tab *votable.Table, cluster string) (string, RunStats, error) {
	return s.ComputeWithProgress(tab, cluster, nil)
}

// ComputeWithProgress is Compute with a workflow-progress callback
// (done/total concrete nodes), folded from DAGMan's journal records.
func (s *Service) ComputeWithProgress(tab *votable.Table, cluster string,
	onProgress func(done, total int)) (string, RunStats, error) {
	return s.ComputeWithContext(context.Background(), tab, cluster, onProgress)
}

// ComputeWithContext is ComputeWithProgress under a cancellation context:
// when ctx is canceled the workflow aborts at the next scheduler step,
// journaling a clean "aborted" record so a later ResumeFor picks up exactly
// where the run stopped.
func (s *Service) ComputeWithContext(ctx context.Context, tab *votable.Table, cluster string,
	onProgress func(done, total int)) (string, RunStats, error) {
	return s.ComputeFor(ctx, tab, cluster, RequestOptions{}, onProgress)
}

// ComputeFor is ComputeWithContext on behalf of a tenant: the workflow is
// admitted to the fabric (an over-quota admission returns the
// fabric.ShedError without queueing), waits under ctx for its fair-share
// slot, and executes under the granted lease. Canceling ctx while queued
// dequeues the workflow before it runs.
func (s *Service) ComputeFor(ctx context.Context, tab *votable.Table, cluster string,
	opt RequestOptions, onProgress func(done, total int)) (string, RunStats, error) {
	dvs, ticket, err := s.admit(tab, cluster, "", opt)
	if err != nil {
		return "", RunStats{}, err
	}
	return s.run(ctx, newRequest(cluster, opt, ticket, onProgress), ticket, dvs)
}

// ResumeFor reopens, on behalf of a tenant, a journaled run that died
// mid-flight — a killed web service, a machine crash — and finishes it: the
// persisted concrete DAG is reloaded (never replanned), the journal's intact
// prefix restores every completed node (they count as already done on the
// optional progress callback), and only the unfinished remainder executes.
// The output VOTable is byte-identical to what the uninterrupted run would
// have produced. A resumed workflow consumes fabric capacity like a fresh
// one, so it passes admission and fair-share scheduling first; its journal
// must carry the resuming workflow's scope — resuming one tenant's journal
// as another fails with journal.ErrScope instead of bleeding state across
// workflows.
func (s *Service) ResumeFor(ctx context.Context, cluster string, opt RequestOptions,
	onProgress func(done, total int)) (string, RunStats, error) {
	_, ticket, err := s.admit(nil, cluster, "resume", opt)
	if err != nil {
		return "", RunStats{}, err
	}
	return s.run(ctx, newRequest(cluster, opt, ticket, onProgress), ticket, nil)
}
