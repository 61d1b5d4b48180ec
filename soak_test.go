// The multi-tenant soak campaign: thousands of workflows across priority
// classes on one preemption-enabled fabric, with runtime quota/weight
// rebalancing mid-flight — checking that nothing is lost, fleet accounting
// stays consistent, the high-priority class's queue wait stays bounded,
// and (end to end through the compute service) every preempted-and-resumed
// workflow's science output stays byte-identical with zero journal bleed.
// Scale with SOAK_WORKFLOWS (make soak runs the full campaign race-enabled).
package repro

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/rls"
	"repro/internal/webservice"
)

// soakCount reads the campaign scale from SOAK_WORKFLOWS, defaulting to a
// CI-sized fleet. `make soak` overrides it into the thousands.
func soakCount(t testing.TB, def int) int {
	s := os.Getenv("SOAK_WORKFLOWS")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 16 {
		t.Fatalf("SOAK_WORKFLOWS=%q: want an integer >= 16", s)
	}
	return n
}

// Priority classes of the synthetic fleet.
const (
	soakBatch       = 0
	soakInteractive = 2
	soakUrgent      = 5
)

// soakTenant deterministically assigns workflow i a tenant and priority
// class: a sprinkle of urgent work, a steady interactive stream, and a bulk
// batch population spread over four tenants.
func soakTenant(i int) (string, int) {
	switch {
	case i%16 == 0:
		return "urgent", soakUrgent
	case i%4 == 1:
		return "int-" + strconv.Itoa(i%2), soakInteractive
	default:
		return "batch-" + strconv.Itoa(i%4), soakBatch
	}
}

// soakSample is one workflow's admission measurement: its grant distance
// (how many other grants happened between this workflow's admission and its
// own grant — a clock-free congestion metric).
type soakSample struct {
	priority int
	dist     int64
}

// runSoakFleet drives n synthetic checkpointable workflows through one
// shared fabric. Each workflow runs a handful of steps, polling its lease
// at every step boundary and answering a revocation with the
// checkpoint-preempt handshake (Preempted -> re-Wait -> continue). A third
// of the way in, one batch tenant's quota is tightened at runtime; two
// thirds in, an interactive tenant's weight is boosted — the rebalancing
// path under load. Client concurrency is bounded so arrivals stay
// open-loop rather than one giant thundering herd.
func runSoakFleet(t *testing.T, n int) (fabric.FleetSnapshot, []soakSample) {
	t.Helper()
	f, err := fabric.New(fabric.Config{
		Pools: []condor.Pool{
			{Name: "usc", Slots: 8}, {Name: "wisc", Slots: 16}, {Name: "fnal", Slots: 8},
		},
		MaxRunningWorkflows: 8,
		Preemption:          true,
	})
	if err != nil {
		t.Fatal(err)
	}

	var grants, completions int64
	samples := make([]soakSample, n)
	inflight := make(chan struct{}, 64)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inflight <- struct{}{}
			defer func() { <-inflight }()

			tenant, prio := soakTenant(i)
			g0 := atomic.LoadInt64(&grants)
			tkt, err := f.Admit(tenant, prio)
			if err != nil {
				t.Errorf("workflow %d (%s): shed with no queue bounds configured: %v", i, tenant, err)
				return
			}
			lease, err := tkt.Wait(context.Background())
			if err != nil {
				t.Errorf("workflow %d (%s): wait: %v", i, tenant, err)
				return
			}
			g1 := atomic.AddInt64(&grants, 1)
			samples[i] = soakSample{priority: prio, dist: g1 - g0 - 1}
			lease.SetPreemptible(true)

			steps := 3 + i%5
			for s := 0; s < steps; s++ {
				if lease.IsRevoked() {
					// Checkpoint-stop at the step boundary and requeue;
					// completed steps are not redone after the regrant.
					tkt := lease.Preempted(time.Duration(s) * time.Second)
					if tkt == nil {
						t.Errorf("workflow %d: revoked lease already released", i)
						return
					}
					if lease, err = tkt.Wait(context.Background()); err != nil {
						t.Errorf("workflow %d: resume wait: %v", i, err)
						return
					}
					atomic.AddInt64(&grants, 1)
					lease.SetPreemptible(true)
				}
				time.Sleep(time.Duration(40+10*(i%5)) * time.Microsecond)
			}
			lease.Done(time.Duration(steps)*time.Second, false)

			// Runtime rebalancing while the fleet is busy: AddInt64 hands
			// each goroutine a unique count, so each trigger fires once.
			switch atomic.AddInt64(&completions, 1) {
			case int64(n / 3):
				f.SetQuota("batch-0", fabric.Quota{MaxRunningWorkflows: 2})
			case int64(2 * n / 3):
				f.SetWeight("int-0", 4)
				f.SetQuota("batch-1", fabric.Quota{MaxRunningWorkflows: 3, Weight: 2})
			}
		}(i)
	}
	wg.Wait()
	return f.Snapshot(), samples
}

// distPercentile returns the p-th percentile grant distance among samples
// of one priority class.
func distPercentile(samples []soakSample, priority int, p float64) int64 {
	var ds []int64
	for _, s := range samples {
		if s.priority == priority {
			ds = append(ds, s.dist)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(p * float64(len(ds)-1))
	return ds[idx]
}

// TestSoakFabricCampaign floods the fabric with SOAK_WORKFLOWS synthetic
// checkpointable workflows under preemption and mid-run rebalancing and
// checks the soak invariants: every workflow completes exactly once,
// fleet and per-tenant accounting agree, revocations and requeues balance,
// and the urgent class's queue congestion stays bounded while the batch
// population queues arbitrarily deep behind it.
func TestSoakFabricCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("soak campaign skipped in -short mode")
	}
	n := soakCount(t, 600)
	snap, samples := runSoakFleet(t, n)

	// Nothing lost, nothing stuck, nothing shed, nothing failed.
	if snap.Completed != n || snap.Failed != 0 || snap.Shed != 0 {
		t.Errorf("fleet outcome: completed=%d failed=%d shed=%d, want %d/0/0",
			snap.Completed, snap.Failed, snap.Shed, n)
	}
	if snap.Running != 0 || snap.Queued != 0 {
		t.Errorf("fleet not drained: running=%d queued=%d", snap.Running, snap.Queued)
	}

	// Per-tenant counters must sum to the fleet totals — the accounting
	// cannot drift under preemption churn.
	var completed, admitted, preempted, requeued int
	for _, ts := range snap.Tenants {
		completed += ts.Completed
		admitted += ts.Admitted
		preempted += ts.Preempted
		requeued += ts.Requeued
	}
	if completed != snap.Completed || admitted != snap.Admitted ||
		preempted != snap.Preempted || requeued != snap.Requeued {
		t.Errorf("tenant counters do not sum to fleet: %+v", snap)
	}

	// Preemption must actually have fired, and every revocation is matched
	// by at most one requeue (a victim that finished its last step before
	// noticing calls Done instead).
	if snap.Preempted == 0 || snap.Requeued == 0 {
		t.Fatalf("soak saw no preemption (preempted=%d requeued=%d); the campaign tested nothing",
			snap.Preempted, snap.Requeued)
	}
	if snap.Requeued > snap.Preempted {
		t.Errorf("more requeues (%d) than revocations (%d)", snap.Requeued, snap.Preempted)
	}

	// Bounded urgent-class latency: with preemption on, an urgent arrival
	// is granted within a small constant number of grant events — fleet
	// slots plus the handful of urgent peers in flight — independent of how
	// deep the batch backlog queues.
	urgentP99 := distPercentile(samples, soakUrgent, 0.99)
	batchP99 := distPercentile(samples, soakBatch, 0.99)
	if bound := int64(48); urgentP99 > bound {
		t.Errorf("urgent p99 grant distance = %d, want <= %d", urgentP99, bound)
	}
	t.Logf("soak: %d workflows, %d preemptions, %d requeues; grant-distance p99 urgent=%d batch=%d",
		n, snap.Preempted, snap.Requeued, urgentP99, batchP99)
}

// soakServiceRounds scales the end-to-end slice of the soak with the fleet
// size: three tenants each run this many full compute workflows.
func soakServiceRounds(n int) int {
	r := n / 150
	if r < 2 {
		r = 2
	}
	if r > 8 {
		r = 8
	}
	return r
}

// purgeProducts unregisters every data product of one cluster's workflow
// (the result table, morphology files and staged cutouts all carry the
// cluster-name prefix) so the next round recomputes the science instead of
// serving the materialized output from the RLS.
func purgeProducts(t *testing.T, r *rls.RLS, cluster string) {
	t.Helper()
	for _, lfn := range r.LFNs() {
		if lfn != cluster+".vot" && !strings.HasPrefix(lfn, cluster+"-") {
			continue
		}
		for _, pfn := range r.Lookup(lfn) {
			if err := r.Unregister(lfn, pfn); err != nil {
				t.Errorf("purge %s @ %s: %v", lfn, pfn.Site, err)
			}
		}
	}
}

// soakFaultPlan is a deterministic occurrence-window fault schedule (first
// transient OpExec failures of a workflow), safe across checkpoint legs.
func soakFaultPlan(cluster string) *faults.Injector {
	seed := int64(1700)
	for _, c := range cluster {
		seed = seed*31 + int64(c)
	}
	return faults.New(seed,
		faults.Rule{Name: condor.OpExec, Kind: faults.KindTransient, From: 1, Until: 2})
}

// TestSoakServiceCampaign is the end-to-end slice of the soak: three
// tenants loop full compute workflows over a two-slot preemption-enabled
// fabric with transient faults injected; the high-priority tenant submits
// only while the fleet is saturated, so its admissions checkpoint-preempt
// a running victim. Every round of every tenant must produce output bytes
// identical to a solo fault-free never-preempted run, and the journals on
// disk must carry only their own workflow's scope — zero bleed.
func TestSoakServiceCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("soak campaign skipped in -short mode")
	}
	const n = 3
	rounds := soakServiceRounds(soakCount(t, 600))
	tenants := []string{"alice", "bob", "carol"}
	prios := []int{soakBatch, soakBatch, soakUrgent}

	// Solo baselines: each cluster alone, fault-free, on a private testbed.
	solo := make([][]byte, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		tb, err := core.NewTestbed(core.Config{
			ClusterSpecs: chaosSpecs(n), Seed: 7, Resilience: true,
			Compute: webservice.Config{MirrorSite: "mirror"},
		})
		if err != nil {
			t.Fatal(err)
		}
		names[i] = tb.Clusters[i].Name
		cat, err := tb.Portal.BuildCatalog(names[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tb.Compute.Compute(cat, names[i]); err != nil {
			t.Fatalf("solo %s: %v", names[i], err)
		}
		if solo[i], err = tb.FTP.Store("isi").Get(names[i] + ".vot"); err != nil {
			t.Fatal(err)
		}
	}

	// The shared soak testbed: two workflow slots, preemption on, journaled
	// (journaling is what makes a lease preemptible), faulted.
	f, err := fabric.New(fabric.Config{
		Pools: []condor.Pool{
			{Name: "usc", Slots: 8}, {Name: "wisc", Slots: 16}, {Name: "fnal", Slots: 8},
		},
		MaxRunningWorkflows: 2,
		Preemption:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tb, err := core.NewTestbed(core.Config{
		ClusterSpecs: chaosSpecs(n), Seed: 7, Resilience: true,
		Compute: webservice.Config{
			MirrorSite: "mirror", Fabric: f, JournalDir: dir, MaxRetries: 5,
			FaultsFor: func(tenant, cluster string) *faults.Injector {
				return soakFaultPlan(cluster)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		cat, err := tb.Portal.BuildCatalog(names[i])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if prios[i] == soakUrgent {
					// Submit only into a saturated fleet, so the admission
					// exercises the preemption path (the wait is bounded:
					// when the batch tenants have drained, give up and run).
					deadline := time.Now().Add(2 * time.Second)
					for time.Now().Before(deadline) && f.Snapshot().Running < 2 {
						time.Sleep(200 * time.Microsecond)
					}
				}
				_, _, err := tb.Compute.ComputeFor(context.Background(), cat, names[i],
					webservice.RequestOptions{Tenant: tenants[i], Priority: prios[i]}, nil)
				if err != nil {
					errs[i] = err
					return
				}
				got, err := tb.FTP.Store("isi").Get(names[i] + ".vot")
				if err != nil {
					errs[i] = err
					return
				}
				if !bytes.Equal(got, solo[i]) {
					t.Errorf("%s (%s) round %d: output differs from solo fault-free never-preempted run",
						names[i], tenants[i], r)
					return
				}
				// Clear the round's data products so the next round runs the
				// whole pipeline again rather than reusing the RLS output.
				if r < rounds-1 {
					purgeProducts(t, tb.RLS, names[i])
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %s: %v", tenants[i], err)
		}
	}

	fleet := tb.Compute.Fabric().Snapshot()
	if fleet.Completed != n*rounds || fleet.Failed != 0 {
		t.Errorf("fleet completed=%d failed=%d, want %d/0", fleet.Completed, fleet.Failed, n*rounds)
	}
	if fleet.Preempted == 0 || fleet.Requeued == 0 {
		t.Errorf("end-to-end soak saw no preemption: %+v", fleet)
	}

	// Zero journal bleed: every journal on disk carries only the scope of
	// the workflow its filename names.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	journals := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".journal") {
			continue
		}
		journals++
		base := strings.TrimSuffix(e.Name(), ".journal")
		tenant, cluster, ok := strings.Cut(base, "__")
		if !ok {
			t.Errorf("journal %s is not tenant-namespaced", e.Name())
			continue
		}
		recs, _, err := journal.Replay(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("replay %s: %v", e.Name(), err)
		}
		want := tenant + "/" + cluster
		for _, rec := range recs {
			if rec.Scope != "" && rec.Scope != want {
				t.Errorf("journal %s carries foreign scope %q (want %q): bleed",
					e.Name(), rec.Scope, want)
				break
			}
		}
		if _, ended := journal.Ended(recs); !ended {
			t.Errorf("journal %s of a completed workflow has no end record", e.Name())
		}
	}
	if journals != n {
		t.Errorf("found %d journals, want %d (one per tenant/cluster)", journals, n)
	}
	t.Logf("end-to-end soak: %d tenants x %d rounds, %d preemptions, %d requeues, outputs byte-identical",
		n, rounds, fleet.Preempted, fleet.Requeued)
}
