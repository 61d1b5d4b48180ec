package webservice

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/dagman"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gridftp"
	"repro/internal/journal"
	"repro/internal/resilience"
	"repro/internal/votable"
)

// The schedule explorer is the one harness behind the service's kill,
// preemption, cancel, rebalance, corruption, transfer-outage, worker-width
// and arrival campaigns. A schedule is a pure function of a seed: one to
// three flows — workflows, each on its own Service with its own
// configuration axes and priority — on one shared fabric and Grid
// substrate, optionally under a cache-site transfer outage, plus a list of
// steps. A step fires right after the after-th journal record its flow
// appends, counted across every leg of the flow. After every schedule run
// checks the invariants; a failing seeded schedule is shrunk to the fewest
// steps that still fail and printed as a replay line. The rows of
// TestExplore are the sweeps and campaigns that used to be hand-written
// tests, enumerated as one schedule per cut point.

// stepKind is what a step does when it fires.
type stepKind int

const (
	stepCrash         stepKind = iota // kill -9: the leg's next append is refused; Reopen, resume
	stepPreempt                       // a priority-5 intruder arrives (intrude)
	stepCancel                        // Cancel the request (or its context), then Requeue (or resume)
	stepQuota                         // Fabric.SetQuota: MaxRunningJobs arg%4+1
	stepWeight                        // Fabric.SetWeight: arg%4+1
	stepCorruptImage                  // Store.Corrupt galaxy arg's cached image
	stepCorruptResult                 // Store.Corrupt every replica of galaxy arg's result
	numStepKinds                      // the disturbances generate draws from
	// stepArrive starts held flow arg's fresh call. A flow some arrival
	// names is held until then, or until every flow not held has ended.
	stepArrive
)

type step struct {
	kind             stepKind
	flow, after, arg int
}

// faultMode is a flow's condor.exec fault schedule.
type faultMode int

const (
	noFaults     faultMode = iota
	probFaults             // execFaults(0.3): a fresh injector per leg, MaxRetries 20
	windowFaults           // occurrences 1-2 fail, on one injector every leg shares
)

type flow struct {
	cluster                        int // multiSpecs cluster: 4+cluster galaxies
	tenant                         string
	workers, waveSize, clusterSize int
	faults                         faultMode
	throughput                     bool // throughputConfig's planner and scheduler axes, on lanes (schedule.lanes)
	submit                         bool // SubmitFor and Status polling, not ComputeFor
	priority                       int  // the request's fabric class
}

type schedule struct {
	slots  int  // fabric MaxRunningWorkflows (0 = unlimited)
	mirror bool // MirrorSite "mirror", so a damaged cached image has a healthy replica
	// outage takes the cache site's GridFTP server down (outageInjector),
	// with one breaker registry every flow shares and the retry budget of 5
	// the fault-injecting testbeds run with. The
	// flows stage only about six images from the cache site, so three
	// outage failures are all an explorer schedule sees; concurrent workers
	// may record a success between them, and the circuit opens on two in a
	// row, not the default three.
	outage bool
	flows  []flow
	steps  []step
}

// lanes reports whether the schedule's fabric is built over throughputPools.
// Transfer lanes belong to the fabric, so one throughput flow puts every
// flow of its schedule on them.
func (sc schedule) lanes() bool {
	return slices.ContainsFunc(sc.flows, func(fl flow) bool { return fl.throughput })
}

// generate draws the schedule of a seed.
func generate(seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	sc := schedule{slots: rng.Intn(3), mirror: true}
	for i, c := range rng.Perm(3)[:1+rng.Intn(3)] {
		tenant := []string{"alice", "bob", "carol"}[i]
		if i == 0 && rng.Intn(3) == 0 {
			tenant = DefaultTenant
		}
		sc.flows = append(sc.flows, flow{cluster: c, tenant: tenant,
			workers: []int{1, 4}[rng.Intn(2)], waveSize: []int{0, 2, 3}[rng.Intn(3)],
			clusterSize: []int{0, 2, 3}[rng.Intn(3)], faults: faultMode(rng.Intn(3)), submit: rng.Intn(2) == 0})
	}
	for n := 2 + rng.Intn(4); n > 0; n-- {
		sc.steps = append(sc.steps, step{kind: stepKind(rng.Intn(int(numStepKinds))),
			flow: rng.Intn(len(sc.flows)), after: 1 + rng.Intn(48), arg: rng.Intn(8)})
	}
	// The later axes draw after everything above, so a seed keeps the flows
	// and steps it had before they existed.
	sc.outage = rng.Intn(4) == 0
	for i := range sc.flows {
		if rng.Intn(4) == 0 {
			sc.flows[i].priority = 5
		}
	}
	if n := len(sc.flows); n > 1 && rng.Intn(3) == 0 {
		held := rng.Intn(n)
		sc.steps = append(sc.steps, step{kind: stepArrive, flow: (held + 1 + rng.Intn(n-1)) % n,
			after: 1 + rng.Intn(48), arg: held})
	}
	return sc
}

// only keeps the steps at the given indices: a shrunk schedule.
func (sc schedule) only(keep []int) schedule {
	out := sc
	out.steps = nil
	for _, i := range keep {
		out.steps = append(out.steps, sc.steps[i])
	}
	return out
}

// configure sets a flow's axes on a copy of the substrate's configuration.
func (fl flow) configure(c *Config, window *faults.Injector) {
	c.Workers, c.WaveSize, c.ClusterSize = fl.workers, fl.waveSize, fl.clusterSize
	if fl.throughput {
		throughputConfig(c)
	}
	switch fl.faults {
	case probFaults:
		c.FaultsFor, c.MaxRetries = execFaults(0.3), 20
	case windowFaults:
		c.FaultsFor = func(_, _ string) *faults.Injector { return window }
	}
}

func windowInjector() *faults.Injector {
	return faults.New(31, faults.Rule{Name: condor.OpExec, Kind: faults.KindTransient, From: 1, Until: 3})
}

// outageInjector fails transfers from the cache site at occurrences 3-8
// (0-based), long enough to open its circuit and force transfers over to
// the mirror replicas.
func outageInjector() *faults.Injector {
	return faults.New(42, faults.Rule{Name: gridftp.OpTransfer, Site: "isi", Kind: faults.KindSiteDown, From: 3, Until: 9})
}

// sweepTrigger counts one workflow's journal appends across all its legs
// (every leg gets a fresh wrapped sink, so the count lives outside it) and
// fires each cut once, right after the append that brings the count to the
// cut's after: a disturbance landing at a chosen journal-record boundary.
// wrap is its Config.WrapJournal hook.
type sweepTrigger struct {
	mu    sync.Mutex
	n     int
	cuts  []*cut
	crash *journal.CrashSink // the current leg's kill switch
	// aborted, when set, is called after each aborted record: a cancel or a
	// revoked lease stopped the flow, whoever's step caused it.
	aborted func()
}

type cut struct {
	after int
	fire  func()
	fired bool
}

func (st *sweepTrigger) wrap(_, _ string, sink journal.Sink) journal.Sink {
	cs := &journal.CrashSink{Sink: sink}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.crash = cs
	return &triggerSink{t: st, sink: cs}
}

// kill makes the current leg's next append its crash point. Cuts fire on
// the leg's own goroutine, the only one appending through its sinks.
func (st *sweepTrigger) kill() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.crash.After = st.crash.Appended()
}

type triggerSink struct {
	t    *sweepTrigger
	sink journal.Sink
}

func (ts *triggerSink) Append(rec journal.Record) error {
	if err := ts.sink.Append(rec); err != nil {
		return err
	}
	ts.t.mu.Lock()
	ts.t.n++
	var due []*cut
	for _, c := range ts.t.cuts {
		if !c.fired && ts.t.n >= c.after {
			c.fired = true
			due = append(due, c)
		}
	}
	ts.t.mu.Unlock()
	if rec.Kind == journal.KindAborted && ts.t.aborted != nil {
		ts.t.aborted()
	}
	for _, c := range due {
		c.fire()
	}
	return nil
}

// exploreRows are the sweeps and campaigns that used to be tests of their
// own, each named after what it holds. A row runs its schedule once, as is;
// a row with cut points then runs one schedule per cut point k, the row's
// at(k) applied to a copy. parent is the cut points the replaced test
// visited; want is what the row as a whole must have exercised, summed over
// its cut points (over its one run when it has none).
var exploreRows = []struct {
	name   string
	sc     schedule
	cuts   func(records int) []int // given the first run's journal records
	at     func(sc *schedule, k int)
	parent int
	want   func(r *report) bool
}{
	{"KillAndResumeByteIdentity", schedule{flows: []flow{{cluster: 0, tenant: DefaultTenant}}},
		upTo(-1), every(stepCrash), 37, everyCrash},
	{"KillAndResumeAtWorkerWidth", schedule{flows: []flow{{cluster: 1, tenant: DefaultTenant, workers: 4}}},
		func(r int) []int { return []int{1, r / 3, r / 2, r - 1} }, every(stepCrash), 4, everyCrash},
	{"WaveKillAndResumeByteIdentity", schedule{flows: []flow{{cluster: 2, tenant: DefaultTenant, waveSize: 2}}},
		upTo(-1), every(stepCrash), 51, everyCrash},
	{"ClusteredKillAndResumeByteIdentity", schedule{flows: []flow{{cluster: 0, tenant: DefaultTenant, throughput: true}}},
		upTo(-1), every(stepCrash), 33, everyCrash},
	{"PreemptionSweepByteIdentity", schedule{slots: 1, flows: []flow{{cluster: 0, tenant: "victim", clusterSize: 2, waveSize: 3}}},
		upTo(1), every(stepPreempt), 39, func(r *report) bool { return r.preemptions > 0 }},
	{"PreemptedVictimMatchesSoloUnderFaults", schedule{slots: 1, flows: []flow{{cluster: 1, tenant: "victim", faults: windowFaults}}},
		fixed(6), every(stepPreempt), 1, func(r *report) bool { return r.preemptions > 0 && len(r.histories) > 0 }},
	{"FabricKillResumeNoJournalBleed", schedule{flows: []flow{{cluster: 0, tenant: "alice"}, {cluster: 1, tenant: "bob"}, {cluster: 2, tenant: "carol"}}},
		fixed(8), every(stepCrash), 3, everyCrash},
	{"StatsAndProgressFoldTheStream", schedule{flows: []flow{{cluster: 2, tenant: DefaultTenant, clusterSize: 3, faults: probFaults}}},
		fixed(3, 11, 17, 23), every(stepCrash), 4, func(r *report) bool { return r.crashes == r.steps && r.resRetries > 0 }},
	// Found by seeds 184, 190, 194 and 197: a result damaged on every replica
	// after wave eviction deleted its image could not be re-derived.
	{"CorruptResultAfterWaveEviction", schedule{flows: []flow{{cluster: 2, tenant: DefaultTenant, waveSize: 3}}},
		upTo(0), every(stepCorruptResult), 0, func(*report) bool { return true }},
	// Found by seed 102: a wave resume replanned the wave it died in, and a
	// job the journal restored could land at a site its output never reached.
	{"PreemptedWaveRunsItsSavedPlan", schedule{slots: 1, flows: []flow{{cluster: 2, tenant: "victim", workers: 4, waveSize: 2, clusterSize: 3}}},
		upTo(1), every(stepPreempt), 0, func(r *report) bool { return r.preemptions > 0 }},
	// Exec faults on every flow and the cache site's transfer outage at once,
	// at three worker widths: retries, replica failover and an opened circuit
	// must all take effect, and every output is its solo run's bytes.
	{"RecoverableChaosByteIdentity", schedule{mirror: true, outage: true, flows: []flow{
		{cluster: 0, tenant: "alice", workers: 1, faults: probFaults},
		{cluster: 1, tenant: "bob", workers: 2, faults: probFaults},
		{cluster: 2, tenant: "carol", workers: 8, faults: probFaults}}},
		nil, nil, 0, func(r *report) bool { return r.retries > 0 && r.failovers > 0 && r.opens > 0 }},
	// One undisturbed flow alone at each width: side effects fan out, the
	// model does not move.
	{"WorkerWidthsMatchSerial", schedule{flows: []flow{{cluster: 1, tenant: DefaultTenant}}},
		fixed(1, 2, 8), width, 0, sameModel},
	// carol, urgent, arrives at alice's k-th record on a full two-slot
	// fabric, every flow under its own fault window: the arrival preempts,
	// and each flow keeps its solo output and fault history.
	{"UrgentArrivalPreemptsUnderFaults", schedule{slots: 2, mirror: true, flows: []flow{
		{cluster: 0, tenant: "alice", faults: windowFaults},
		{cluster: 1, tenant: "bob", faults: windowFaults},
		{cluster: 2, tenant: "carol", faults: windowFaults, priority: 5}}},
		fixed(6, 12, 18, 24), func(sc *schedule, k int) { sc.steps = []step{{kind: stepArrive, flow: 0, after: k, arg: 2}} },
		4, func(r *report) bool { return r.preemptions > 0 && len(r.histories) == 3 }},
}

// every puts one step of kind at cut point k on every flow.
func every(kind stepKind) func(*schedule, int) {
	return func(sc *schedule, k int) {
		sc.steps = nil
		for i := range sc.flows {
			sc.steps = append(sc.steps, step{kind: kind, flow: i, after: k})
		}
	}
}

// width runs the first flow on k workers.
func width(sc *schedule, k int) {
	sc.flows = slices.Clone(sc.flows)
	sc.flows[0].workers = k
}

// sameModel holds every run to the first one's model: makespan and staging
// accounting do not depend on the worker width.
func sameModel(r *report) bool {
	for _, s := range r.stats {
		if s.Makespan != r.stats[0].Makespan || s.FilesStaged != r.stats[0].FilesStaged || s.BytesStaged != r.stats[0].BytesStaged {
			return false
		}
	}
	return len(r.stats) == 3
}

// upTo cuts at every record boundary from 1 to records+delta.
func upTo(delta int) func(int) []int {
	return func(records int) []int {
		var ks []int
		for k := 1; k <= records+delta; k++ {
			ks = append(ks, k)
		}
		return ks
	}
}

func fixed(ks ...int) func(int) []int { return func(int) []int { return ks } }

func everyCrash(r *report) bool { return r.crashes == r.steps }

// TestExplore runs the enumerated rows, then EXPLORE_SEEDS seeded schedules
// (default 4), or the one schedule EXPLORE_REPLAY names as seed:steps (the
// replay line a failing seed prints).
func TestExplore(t *testing.T) {
	x := &explorer{solos: map[soloKey][]faults.Fault{}}
	for c := range x.refs {
		x.refs[c] = soloBytes(t, 3, c, nil)
	}
	if replay := os.Getenv("EXPLORE_REPLAY"); replay != "" {
		seedText, stepsText, _ := strings.Cut(replay, ":")
		seed, err := strconv.ParseInt(seedText, 10, 64)
		var keep []int
		for _, f := range strings.FieldsFunc(stepsText, func(r rune) bool { return r == ',' }) {
			i, aerr := strconv.Atoi(f)
			err, keep = errors.Join(err, aerr), append(keep, i)
		}
		if err != nil || slices.ContainsFunc(keep, func(i int) bool { return i < 0 || i >= len(generate(seed).steps) }) {
			t.Fatalf("EXPLORE_REPLAY=%q: want seed:step,step,... (%v)", replay, err)
		}
		x.fail(t, x.run(t, generate(seed).only(keep)).bad, replay)
		return
	}
	for _, row := range exploreRows {
		t.Run(row.name, func(t *testing.T) {
			probe := x.run(t, row.sc)
			x.fail(t, probe.bad, "go test -run '^"+t.Name()+"$' ./internal/webservice/")
			var total report
			var ks []int
			if row.cuts == nil {
				total.add(probe)
			} else {
				ks = row.cuts(probe.records)
			}
			for _, k := range ks {
				sc := row.sc
				row.at(&sc, k)
				t.Run("k="+strconv.Itoa(k), func(t *testing.T) {
					rep := x.run(t, sc)
					x.fail(t, rep.bad, "go test -run '^"+t.Name()+"$' ./internal/webservice/")
					total.add(rep)
				})
			}
			if total.steps < row.parent || !row.want(&total) {
				var model []string
				for _, s := range total.stats {
					model = append(model, fmt.Sprintf("%v/%d/%d", s.Makespan, s.FilesStaged, s.BytesStaged))
				}
				t.Errorf("the row's want does not hold (%d steps, %d at the parent): %s; makespan/files/bytes staged %v",
					total.steps, row.parent, total.summary(), model)
			}
			t.Logf("%d cut points, %d steps (%d at the parent); %s took effect", len(ks), total.steps, row.parent, total.summary())
		})
	}
	seeds := 4
	if s := os.Getenv("EXPLORE_SEEDS"); s != "" {
		var err error
		if seeds, err = strconv.Atoi(s); err != nil {
			t.Fatalf("EXPLORE_SEEDS=%q: %v", s, err)
		}
	}
	ran, mixed := 0, 0
	var all report
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			sc := generate(seed)
			t.Logf("schedule %+v", sc)
			rep := x.run(t, sc)
			ran++
			all.add(rep)
			if len(rep.kinds) >= 3 && len(rep.flowsHit) >= 2 {
				mixed++
			}
			if len(rep.bad) == 0 {
				return
			}
			keep := x.shrink(t, sc)
			steps := make([]string, len(keep))
			for i, k := range keep {
				steps[i] = strconv.Itoa(k)
			}
			t.Logf("shrunk to %d of %d steps: %+v", len(keep), len(sc.steps), sc.only(keep).steps)
			x.fail(t, rep.bad, fmt.Sprintf("EXPLORE_REPLAY=%d:%s go test -race -run '^TestExplore$' ./internal/webservice/",
				seed, strings.Join(steps, ",")))
		})
	}
	t.Logf("%d seeded schedules, %d fired three or more step kinds across two or more workflows; %d steps, %s took effect",
		ran, mixed, all.steps, all.summary())
	if ran >= 4 && mixed == 0 {
		t.Error("no seeded schedule fired three step kinds across two workflows")
	}
}

// fail reports a schedule's violations with the line that re-runs it.
func (x *explorer) fail(t *testing.T, bad []string, replay string) {
	t.Helper()
	if len(bad) > 0 {
		t.Errorf("%s\nreplay: %s", strings.Join(bad, "\n"), replay)
	}
}

// shrink drops steps from a failing seeded schedule while it still fails and
// returns the indices of the steps left.
func (x *explorer) shrink(t *testing.T, sc schedule) []int {
	keep := make([]int, len(sc.steps))
	for i := range keep {
		keep[i] = i
	}
	for i := 0; i < len(keep); {
		try := append(append([]int(nil), keep[:i]...), keep[i+1:]...)
		if len(x.run(t, sc.only(try)).bad) > 0 {
			keep = try
		} else {
			i++
		}
	}
	return keep
}

// exploreDeadline bounds every call a schedule makes: a request that has not
// terminated by then is a violation.
const exploreDeadline = time.Minute

// flowRun is one flow's state while its schedule runs.
type flowRun struct {
	flow
	name, journal string
	tab           *votable.Table
	svc           *Service
	trig          *sweepTrigger
	inj           *faults.Injector // windowFaults: the flow's one injector
	histAt        atomic.Int64     // faults injected when the flow was first disturbed; -1 before
	// held, for a flow an arrival names, is closed by arrive (once) when its
	// fresh call may start; freshDone is set when that call has returned.
	held      chan struct{}
	arrive    func()
	freshDone atomic.Bool
	// cancel stops the current call; it is set before the call starts.
	cancel    func()
	canceled  atomic.Bool // a cancel step fired during the current call
	submitted bool        // the current call is a request on fr.svc (SubmitFor, Requeue)
	id        string
	stats     RunStats // the last successful call's
}

func (fr *flowRun) galaxy(i int) string { return fr.tab.Cell(i%fr.tab.NumRows(), "id") }

// disturbed notes a disturbance of the flow — a step on it fired, or another
// flow's step preempted it — for the fault-history invariant, which holds
// only when the first one came after the flow's fault window closed.
func (fr *flowRun) disturbed() {
	if fr.inj != nil {
		fr.histAt.CompareAndSwap(-1, int64(fr.inj.Injected()))
	}
}

// report is what one schedule did and which invariants it broke.
type report struct {
	mu                                      sync.Mutex
	bad                                     []string
	records                                 int          // journal records the first flow appended
	steps, crashes, preemptions, resRetries int          // resRetries: retried records of resumed legs
	retries, failovers, opens               int          // RunStats.Retries and Failovers of every call; circuits opened
	histories                               map[int]bool // flows whose fault history was held to the solo run's
	stats                                   []RunStats   // each flow's last successful call's, in flow order
	kinds                                   map[stepKind]bool
	flowsHit                                map[int]bool
}

func (r *report) errorf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bad = append(r.bad, fmt.Sprintf(format, args...))
}

func (r *report) add(o *report) {
	r.steps += o.steps
	r.crashes += o.crashes
	r.preemptions += o.preemptions
	r.resRetries += o.resRetries
	r.retries += o.retries
	r.failovers += o.failovers
	r.opens += o.opens
	if r.histories == nil {
		r.histories = map[int]bool{}
	}
	maps.Copy(r.histories, o.histories)
	r.stats = append(r.stats, o.stats...)
}

// summary is what runs exercised, for a log or a failure.
func (r *report) summary() string {
	return fmt.Sprintf("%d crashes, %d preemptions, %d resumed retries, %d retries, %d failovers, %d circuits opened, fault histories checked by flow %v",
		r.crashes, r.preemptions, r.resRetries, r.retries, r.failovers, r.opens, r.histories)
}

// explorer runs schedules against each cluster's solo-run bytes and each
// windowFaults flow's solo fault history.
type explorer struct {
	refs  [3][]byte
	solos map[soloKey][]faults.Fault
}

// soloKey is what a solo fault history depends on: the flow's
// configuration axes and the mirror.
type soloKey struct {
	fl            flow // tenant, priority and entry point cleared
	mirror, lanes bool
}

// soloHistory is the fault history of a windowFaults flow run alone, run
// once per set of axes it depends on.
func (x *explorer) soloHistory(t *testing.T, fl flow, mirror, lanes bool) []faults.Fault {
	key := soloKey{flow{cluster: fl.cluster, workers: fl.workers, waveSize: fl.waveSize, clusterSize: fl.clusterSize,
		faults: fl.faults, throughput: fl.throughput}, mirror, lanes}
	if h, ok := x.solos[key]; ok {
		return h
	}
	inj := windowInjector()
	soloBytes(t, 3, fl.cluster, func(c *Config) {
		fl.configure(c, inj)
		if lanes {
			c.Fabric = permissiveFabric(throughputPools())
		}
		if mirror {
			c.MirrorSite = "mirror"
		}
	})
	x.solos[key] = inj.History()
	return x.solos[key]
}

// run executes one schedule: every flow's fresh request at once (a held
// flow's when it arrives), then each unfinished flow's recovery in turn
// (Reopen and resume after a crash, Requeue or resume after a cancel) until
// it completes; then it checks.
func (x *explorer) run(t *testing.T, sc schedule) *report {
	rep := &report{kinds: map[stepKind]bool{}, flowsHit: map[int]bool{}, histories: map[int]bool{}, steps: len(sc.steps)}
	pools := gridPools()
	if sc.lanes() {
		pools = throughputPools()
	}
	f := preemptFabric(t, sc.slots, pools)
	dir := t.TempDir()
	h := newGrid(t, multiSpecs(3), func(c *Config) {
		c.Fabric, c.JournalDir = f, dir
		if sc.mirror {
			c.MirrorSite = "mirror"
		}
		if sc.outage {
			c.Breakers, c.MaxRetries = resilience.NewRegistry(resilience.BreakerConfig{FailureThreshold: 2}), 5
		}
	})
	if sc.outage {
		h.ftp.SetInjector(outageInjector())
	}
	runs := make([]*flowRun, len(sc.flows))
	for i, fl := range sc.flows {
		fr := &flowRun{flow: fl, name: h.clusters[fl.cluster].Name, tab: h.inputTableFor(t, fl.cluster), trig: &sweepTrigger{}}
		fr.journal = filepath.Join(dir, wfBase(fl.tenant, fr.name)+".journal")
		fr.histAt.Store(-1)
		fr.trig.aborted = func() {
			// A leg stopped before its first job was placed has the flow's
			// whole exec sequence still ahead of it.
			if fr.inj.Checks() > 0 {
				fr.disturbed()
			}
		}
		if fl.faults == windowFaults {
			fr.inj = windowInjector()
		}
		cfg := h.svc.cfg
		fl.configure(&cfg, fr.inj)
		cfg.WrapJournal = fr.trig.wrap
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fr.svc, runs[i] = svc, fr
	}
	var intruders []chan struct{} // guarded by rep.mu, like corrupted
	corrupted := map[string]int{}
	for _, s := range sc.steps {
		if s.kind == stepArrive && runs[s.arg].held == nil {
			ch := make(chan struct{})
			runs[s.arg].held, runs[s.arg].arrive = ch, sync.OnceFunc(func() { close(ch) })
		}
	}
	for _, s := range sc.steps {
		s, fr := s, runs[s.flow]
		corrupt := func(store *gridftp.Store, lfn, path string) {
			store.Corrupt(path)
			rep.mu.Lock()
			corrupted[lfn]++
			rep.mu.Unlock()
		}
		fr.trig.cuts = append(fr.trig.cuts, &cut{after: s.after, fire: func() {
			if s.kind != stepArrive {
				fr.disturbed()
			}
			rep.mu.Lock()
			rep.kinds[s.kind], rep.flowsHit[s.flow] = true, true
			rep.mu.Unlock()
			switch s.kind {
			case stepCrash:
				fr.trig.kill()
			case stepPreempt:
				fire, done := intrude(t, f, 5)
				rep.mu.Lock()
				intruders = append(intruders, done)
				rep.mu.Unlock()
				fire()
			case stepCancel:
				fr.canceled.Store(true)
				fr.cancel()
			case stepQuota:
				f.SetQuota(fr.tenant, fabric.Quota{MaxRunningJobs: s.arg%4 + 1})
			case stepWeight:
				f.SetWeight(fr.tenant, float64(s.arg%4+1))
			case stepCorruptImage:
				lfn := fr.galaxy(s.arg) + ".fit"
				corrupt(h.ftp.Store(cacheSite), lfn, lfn)
			case stepCorruptResult:
				lfn := fr.galaxy(s.arg) + ".txt"
				for _, p := range h.r.Lookup(lfn) {
					if site, path, err := gridftp.ParseURL(p.URL); err == nil {
						corrupt(h.ftp.Store(site), lfn, path)
					}
				}
			case stepArrive:
				// The arrival lands at this boundary: the trigger's leg waits
				// here until the fabric has admitted the held flow (or its
				// fresh call ended without), as an intruder is admitted
				// before its step returns. A flow already started is left be.
				hf := runs[s.arg]
				select {
				case <-hf.held:
				default:
					before := admissions(f, hf.tenant)
					hf.arrive()
					for admissions(f, hf.tenant) == before && !hf.freshDone.Load() {
						time.Sleep(50 * time.Microsecond)
					}
				}
			}
		}})
	}

	// A held flow whose arrival never fires starts once every flow not held
	// has ended, so no schedule waits forever.
	var unheld atomic.Int32
	for _, fr := range runs {
		if fr.held == nil {
			unheld.Add(1)
		}
	}
	releaseAll := func() {
		for _, fr := range runs {
			if fr.arrive != nil {
				fr.arrive()
			}
		}
	}
	if unheld.Load() == 0 {
		releaseAll()
	}
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, fr := range runs {
		wg.Add(1)
		go func(i int, fr *flowRun) {
			defer wg.Done()
			if fr.held != nil {
				<-fr.held
			} else {
				defer func() {
					if unheld.Add(-1) == 0 {
						releaseAll()
					}
				}()
			}
			errs[i] = x.call(rep, fr, "fresh")
			fr.freshDone.Store(true)
		}(i, fr)
	}
	wg.Wait()
	for i, fr := range runs {
		err := errs[i]
	recovery:
		for attempt := 0; err != nil && attempt <= len(sc.steps); attempt++ {
			how := "resume"
			switch {
			case strings.Contains(err.Error(), journal.ErrCrash.Error()):
				svc, rerr := fr.svc.Reopen()
				if rerr != nil {
					t.Fatal(rerr)
				}
				svc.cfg.WrapJournal = fr.trig.wrap
				fr.svc = svc
			case fr.canceled.Load():
				if fr.submitted {
					how = "requeue"
				}
			default:
				break recovery
			}
			others := map[string][]byte{}
			for _, o := range runs {
				if o != fr {
					others[o.journal], _ = os.ReadFile(o.journal)
				}
			}
			err = x.call(rep, fr, how)
			for path, was := range others {
				if now, _ := os.ReadFile(path); !bytes.Equal(now, was) {
					rep.errorf("%s: %s of %s changed journal %s", fr.name, how, fr.name, filepath.Base(path))
				}
			}
		}
		if err != nil {
			rep.errorf("%s never completed: %v", fr.name, err)
		}
	}
	rep.mu.Lock()
	waits := intruders
	rep.mu.Unlock()
	for _, done := range waits {
		<-done
	}
	rep.records = runs[0].trig.n // every leg has ended
	rep.opens = h.svc.cfg.Breakers.TotalOpens()
	x.check(t, rep, sc, h, f, runs, corrupted)
	return rep
}

// call runs one entry point of a flow to its end — "fresh" (ComputeFor or
// SubmitFor), "resume" (ResumeFor) or "requeue" (Requeue) — and checks what
// that call alone can show: a crash surfaces as ErrCrash and ErrAborted, a
// resumed monolithic leg restores exactly the nodes its journal prefix
// completed, and a call that was not preempted reports the Retries and the
// progress that the records it appended fold to.
func (x *explorer) call(rep *report, fr *flowRun, how string) error {
	var prefix []journal.Record
	if how != "fresh" {
		prefix, _, _ = journal.Replay(fr.journal)
	}
	type progress struct{ done, total int }
	var calls []progress
	onProgress := func(done, total int) { calls = append(calls, progress{done, total}) }
	fr.canceled.Store(false)
	fr.submitted = how == "requeue" || (how == "fresh" && fr.submit)
	opt := RequestOptions{Tenant: fr.tenant, Priority: fr.priority}
	var stats RunStats
	var out string
	var err error
	if fr.submitted {
		ready := make(chan struct{})
		fr.cancel = func() {
			<-ready
			_ = fr.svc.Cancel(fr.id)
		}
		if how == "fresh" {
			fr.id, err = fr.svc.SubmitFor(fr.tab, fr.name, opt)
		} else {
			err = fr.svc.Requeue(fr.id)
		}
		close(ready)
		var st Status
		if err == nil {
			st, err = pollTerminal(fr.svc, fr.id)
		}
		if stats, out = st.Stats, st.ResultLFN; err == nil && st.State != StateCompleted {
			err = errors.New(st.Message)
		}
		if err == nil && !stats.ReusedOutput && st.JobsDone != st.JobsTotal {
			rep.errorf("%s %s: completed at progress %d/%d", fr.name, how, st.JobsDone, st.JobsTotal)
		}
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), exploreDeadline)
		defer cancel()
		fr.cancel = cancel
		if how == "fresh" {
			out, stats, err = fr.svc.ComputeFor(ctx, fr.tab, fr.name, opt, onProgress)
		} else {
			out, stats, err = fr.svc.ResumeFor(ctx, fr.name, opt, onProgress)
		}
	}
	if err == nil && out != outputLFN(fr.name) {
		rep.errorf("%s %s: output %q", fr.name, how, out)
	}
	crashed := err != nil && strings.Contains(err.Error(), journal.ErrCrash.Error())
	rep.mu.Lock()
	rep.preemptions += stats.Preemptions
	rep.retries += stats.Retries
	rep.failovers += stats.Failovers
	if crashed {
		rep.crashes++
	}
	rep.mu.Unlock()
	if crashed && !(strings.Contains(err.Error(), dagman.ErrAborted.Error()) &&
		(fr.submitted || errors.Is(err, journal.ErrCrash) && errors.Is(err, dagman.ErrAborted))) {
		rep.errorf("%s %s: crash not surfaced as ErrCrash and ErrAborted: %v", fr.name, how, err)
	}
	recs, _, rerr := journal.Replay(fr.journal)
	if rerr != nil || len(recs) < len(prefix) {
		rep.errorf("%s %s: journal replay: %v", fr.name, how, rerr)
		return err
	}
	if !fr.submitted && stats.Preemptions == 0 && !stats.ReusedOutput {
		retried, done := 0, 0
		for _, r := range recs[len(prefix):] {
			switch r.Kind {
			case journal.KindRetried:
				retried++
			case journal.KindCompleted, journal.KindRestored:
				done++
			}
		}
		var last progress
		if len(calls) > 0 {
			last = calls[len(calls)-1]
		}
		if stats.Retries != retried || last.done != done || (err == nil && last.total != done) {
			rep.errorf("%s %s: Retries %d, last progress %+v; the call appended %d retried and %d completed or restored records",
				fr.name, how, stats.Retries, last, retried, done)
		}
		if how == "resume" {
			rep.mu.Lock()
			rep.resRetries += retried
			rep.mu.Unlock()
		}
	}
	if how == "resume" && err == nil && fr.waveSize == 0 && stats.Preemptions == 0 && !stats.ReusedOutput {
		if want := len(journal.CompletedNodes(prefix)); stats.RestoredNodes != want {
			rep.errorf("%s resume: restored %d nodes, the journal recorded %d done", fr.name, stats.RestoredNodes, want)
		}
	}
	if err == nil {
		fr.stats = stats
	}
	return err
}

// admissions is how many requests the fabric has admitted for tenant.
func admissions(f *fabric.Fabric, tenant string) int {
	for _, ts := range f.Snapshot().Tenants {
		if ts.Tenant == tenant {
			return ts.Admitted
		}
	}
	return 0
}

// pollTerminal polls a submitted request until it completes or fails.
func pollTerminal(svc *Service, id string) (Status, error) {
	for deadline := time.Now().Add(exploreDeadline); ; time.Sleep(time.Millisecond) {
		st, err := svc.Status(id)
		if err != nil || (st.State != StateRunning && st.State != StateQueued && st.State != StatePreempted) {
			return st, err
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("request %s still %s after %s", id, st.State, exploreDeadline)
		}
	}
}

// check holds a finished schedule to the invariants: each flow's output is
// its solo run's bytes, its journal carries only its own scope, ends with
// the end marker and never re-submits a completed node, Galaxies is right
// and, without the outage, a windowFaults flow repeats its solo fault
// history; a foreign-scope resume fails with journal.ErrScope; the fleet is
// idle and every tenant's admissions are accounted for; and no quarantined
// replica is served damaged or from a stale cache.
func (x *explorer) check(t *testing.T, rep *report, sc schedule, h *harness, f *fabric.Fabric, runs []*flowRun, corrupted map[string]int) {
	for i, fr := range runs {
		if got, err := h.ftp.Store(cacheSite).Get(fr.name + ".vot"); err != nil || !bytes.Equal(got, x.refs[fr.cluster]) {
			rep.errorf("%s: output differs from the solo run (%v)", fr.name, err)
		}
		recs, _, err := journal.Replay(fr.journal)
		if _, ended := journal.Ended(recs); err != nil || !ended {
			rep.errorf("%s: journal lacks its end marker (%v)", fr.name, err)
		}
		done := map[string]bool{}
		for _, r := range recs {
			if r.Scope != wfScope(fr.tenant, fr.name) {
				rep.errorf("%s: record %d has scope %q", fr.name, r.Seq, r.Scope)
			}
			if r.Kind == journal.KindSubmitted && done[r.Node] {
				rep.errorf("%s: completed node %s re-submitted (record %d)", fr.name, r.Node, r.Seq)
			}
			if r.Kind == journal.KindCompleted || r.Kind == journal.KindRestored {
				done[r.Node] = true
			}
		}
		if fr.stats.Galaxies != fr.tab.NumRows() {
			rep.errorf("%s: last call reports %d galaxies, want %d", fr.name, fr.stats.Galaxies, fr.tab.NumRows())
		}
		rep.stats = append(rep.stats, fr.stats)
		// Which flow meets the outage depends on interleaving, and so does
		// the exec schedule of a flow whose transfers it fails.
		if fr.inj != nil && !sc.outage {
			solo := x.soloHistory(t, fr.flow, sc.mirror, sc.lanes())
			if len(solo) == 0 {
				rep.errorf("%s: the fault window injected nothing", fr.name)
			}
			if fr.histAt.Load() < 0 || fr.histAt.Load() == int64(len(solo)) {
				rep.histories[i] = true
				if got := fr.inj.History(); !reflect.DeepEqual(got, solo) {
					rep.errorf("%s: fault history diverged from the solo run:\n  solo: %v\n  got:  %v", fr.name, solo, got)
				}
			}
		}
	}
	for _, fr := range runs {
		if fr.tenant == DefaultTenant {
			continue
		}
		// The same files under the default tenant's names: the journal's
		// records still carry fr's scope.
		base := strings.TrimSuffix(fr.journal, ".journal")
		for _, ext := range []string{".journal", ".vdl", ".dag", ".waves"} {
			if data, err := os.ReadFile(base + ext); err == nil {
				if err := os.WriteFile(filepath.Join(filepath.Dir(base), fr.name+ext), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, _, err := resume(fr.svc, fr.name); !errors.Is(err, journal.ErrScope) {
			rep.errorf("%s: resume under a foreign scope = %v, want journal.ErrScope", fr.name, err)
		}
		break
	}
	snap := f.Snapshot()
	if snap.Running != 0 || snap.Queued != 0 {
		rep.errorf("fleet not idle after the schedule: %+v", snap)
	}
	for _, ts := range snap.Tenants {
		if ts.Admitted != ts.Completed+ts.Failed+ts.Canceled || ts.Requeued > ts.Preempted {
			rep.errorf("tenant %s counters do not add up: %+v", ts.Tenant, ts)
		}
		for _, fr := range runs {
			if fr.tenant == ts.Tenant && fr.stats.Preemptions > ts.Requeued {
				rep.errorf("%s reported %d preemptions, the fleet requeued %s %d times", fr.name, fr.stats.Preemptions, ts.Tenant, ts.Requeued)
			}
		}
	}
	cat := h.r
	for _, fr := range runs {
		lfns := []string{fr.name + ".vot"}
		for i := 0; i < fr.tab.NumRows(); i++ {
			lfns = append(lfns, fr.galaxy(i)+".fit", fr.galaxy(i)+".txt")
		}
		for _, lfn := range lfns {
			served := cat.Lookup(lfn)
			for _, q := range cat.Quarantined(lfn) {
				// A heal writes intact bytes back and re-registers the same
				// PFN; only a second corruption may leave it damaged again.
				if site, path, err := gridftp.ParseURL(q.URL); err == nil && slices.Contains(served, q) &&
					corrupted[lfn] <= 1 && h.ftp.Store(site).Verify(path) != nil {
					rep.errorf("%s: quarantined %s is served again while damaged", lfn, q.URL)
				}
			}
		}
	}
}
