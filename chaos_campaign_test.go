package repro

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/faults"
	"repro/internal/gridftp"
	"repro/internal/skysim"
	"repro/internal/votable"
	"repro/internal/webservice"
)

// chaosSpecs is the §5 eight-cluster campaign scaled down so the chaos
// matrix (fault-free + faulted + determinism re-runs) stays fast.
func chaosSpecs(n int) []skysim.Spec {
	specs := skysim.StandardClusters()[:n]
	for i := range specs {
		specs[i].NumGalaxies = 10 + 3*i
	}
	return specs
}

// chaosTestbed wires a resilient testbed (retry policy, circuit breakers,
// mirrored image cache) around the given injector; nil runs fault-free.
func chaosTestbed(t *testing.T, clusters int, inj *faults.Injector) *core.Testbed {
	t.Helper()
	tb, err := core.NewTestbed(core.Config{
		ClusterSpecs: chaosSpecs(clusters),
		Seed:         7,
		Resilience:   true,
		Faults:       inj,
		Compute:      webservice.Config{MirrorSite: "mirror", MaxRetries: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// renderTables serializes every cluster's merged result table, keyed by
// cluster name, for byte-level comparison between campaigns.
func renderTables(t *testing.T, rep *core.CampaignReport) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, c := range rep.Clusters {
		var b bytes.Buffer
		if err := votable.WriteTable(&b, c.Table); err != nil {
			t.Fatal(err)
		}
		out[c.Cluster] = b.Bytes()
	}
	return out
}

// recoverableSchedule is a fault load the resilience stack must absorb
// completely: transient worker deaths across all Condor pools, plus an
// outage window on the image cache's GridFTP server long enough to trip its
// circuit and force transfers over to the mirror replicas.
func recoverableSchedule() *faults.Injector {
	return faults.New(42,
		faults.Rule{Name: condor.OpExec, Kind: faults.KindTransient, Probability: 0.08},
		faults.Rule{Name: gridftp.OpTransfer, Site: "isi", Kind: faults.KindSiteDown, From: 3, Until: 9},
	)
}

// TestChaosCampaignRecoverable runs the eight-cluster campaign fault-free
// and again under a recoverable fault schedule, and requires the faulted run
// to (a) actually exercise retries, replica failover and the circuit
// breaker, and (b) still produce byte-identical science output.
func TestChaosCampaignRecoverable(t *testing.T) {
	clean := chaosTestbed(t, 8, nil)
	cleanRep, err := core.RunCampaign(clean)
	if err != nil {
		t.Fatal(err)
	}
	// Nil injector must be a true no-op: no retries, failovers or opens.
	for _, c := range cleanRep.Clusters {
		if c.Retries != 0 || c.Failovers != 0 || len(c.Degraded) != 0 {
			t.Fatalf("%s: fault-free run reports retries=%d failovers=%d degraded=%v",
				c.Cluster, c.Retries, c.Failovers, c.Degraded)
		}
	}
	if n := clean.Breakers.TotalOpens(); n != 0 {
		t.Fatalf("fault-free run opened %d circuits", n)
	}

	inj := recoverableSchedule()
	chaos := chaosTestbed(t, 8, inj)
	chaosRep, err := core.RunCampaign(chaos)
	if err != nil {
		t.Fatalf("recoverable faults must not fail the campaign: %v", err)
	}

	if inj.Injected() == 0 {
		t.Fatal("schedule injected no faults; the chaos run tested nothing")
	}
	if inj.CountKind(faults.KindSiteDown) == 0 {
		t.Error("cache-site outage window never fired")
	}
	var retries, failovers int
	for _, c := range chaosRep.Clusters {
		retries += c.Retries
		failovers += c.Failovers
		if len(c.Degraded) != 0 {
			t.Errorf("%s: no archive faults scheduled, yet degraded %v", c.Cluster, c.Degraded)
		}
	}
	if retries == 0 {
		t.Error("faulted campaign never retried a DAG node")
	}
	if failovers == 0 {
		t.Error("faulted campaign never failed a transfer over to a mirror replica")
	}
	if chaos.Breakers.TotalOpens() == 0 {
		t.Error("cache-site outage never opened a circuit")
	}

	// The science must not notice the chaos: identical tables, identical
	// Figure 7 correlations.
	want := renderTables(t, cleanRep)
	got := renderTables(t, chaosRep)
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s: result table differs between fault-free and faulted runs", name)
		}
	}
	for i := range cleanRep.Clusters {
		if a, b := cleanRep.Clusters[i].AsymmetryRadiusRho, chaosRep.Clusters[i].AsymmetryRadiusRho; a != b {
			t.Errorf("%s: rho %v (fault-free) != %v (faulted)",
				cleanRep.Clusters[i].Cluster, a, b)
		}
	}
}

// TestChaosSameSeedSameSchedule replays the identical faulted campaign twice
// and requires the two injectors to have produced the exact same fault
// history — the property that makes a chaos failure reproducible.
func TestChaosSameSeedSameSchedule(t *testing.T) {
	run := func() (*faults.Injector, map[string][]byte) {
		inj := recoverableSchedule()
		tb := chaosTestbed(t, 2, inj)
		rep, err := core.RunCampaign(tb)
		if err != nil {
			t.Fatal(err)
		}
		return inj, renderTables(t, rep)
	}
	injA, tabA := run()
	injB, tabB := run()
	if injA.Injected() == 0 {
		t.Fatal("schedule injected no faults")
	}
	if !reflect.DeepEqual(injA.History(), injB.History()) {
		t.Errorf("fault histories diverge:\n  A: %v\n  B: %v", injA.History(), injB.History())
	}
	for name, a := range tabA {
		if !bytes.Equal(tabB[name], a) {
			t.Errorf("%s: tables differ between identical runs", name)
		}
	}
}

// tenantFaultPlan builds the per-workflow Condor fault injector of the
// concurrent-tenants campaign: every workflow gets its own deterministic
// transient-failure schedule, seeded from its cluster, independent of what
// any other tenant's workflow is doing on the shared fabric.
func tenantFaultPlan(cluster string) *faults.Injector {
	seed := int64(900)
	for _, c := range cluster {
		seed = seed*31 + int64(c)
	}
	return faults.New(seed,
		faults.Rule{Name: condor.OpExec, Kind: faults.KindTransient, Probability: 0.12})
}

// TestChaosConcurrentTenants runs N workflows simultaneously on one shared
// fabric — distinct tenants, distinct seeds, distinct fault plans — and
// requires every workflow's output table to be byte-identical to a solo
// run of the same cluster on a private testbed, with the same fault
// history. Fault isolation under interleaving: one tenant's chaos must not
// leak into another tenant's science or schedule.
func TestChaosConcurrentTenants(t *testing.T) {
	const n = 3
	tenants := []string{"alice", "bob", "carol"}

	// Solo baselines: each cluster alone on a fresh testbed, same fault plan.
	soloTables := make([]map[string][]byte, n)
	soloHist := make([][]faults.Fault, n)
	for i := 0; i < n; i++ {
		var inj *faults.Injector
		tb, err := core.NewTestbed(core.Config{
			ClusterSpecs: chaosSpecs(n),
			Seed:         7,
			Resilience:   true,
			Compute: webservice.Config{
				MirrorSite: "mirror",
				MaxRetries: 5,
				FaultsFor: func(tenant, cluster string) *faults.Injector {
					in := tenantFaultPlan(cluster)
					inj = in
					return in
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		name := tb.Clusters[i].Name
		rep, err := core.RunCluster(tb, name)
		if err != nil {
			t.Fatalf("solo %s: %v", name, err)
		}
		var b bytes.Buffer
		if err := votable.WriteTable(&b, rep.Table); err != nil {
			t.Fatal(err)
		}
		soloTables[i] = map[string][]byte{name: b.Bytes()}
		soloHist[i] = inj.History()
		if inj.Injected() == 0 {
			t.Fatalf("solo %s: fault plan injected nothing; the chaos run tests nothing", name)
		}
	}

	// Concurrent run: all N workflows at once on one shared testbed, each
	// under its own tenant with its own injector.
	injectors := make([]*faults.Injector, n)
	var mu sync.Mutex
	tb, err := core.NewTestbed(core.Config{
		ClusterSpecs: chaosSpecs(n),
		Seed:         7,
		Resilience:   true,
		Compute: webservice.Config{
			MirrorSite: "mirror",
			MaxRetries: 5,
			FaultsFor: func(tenant, cluster string) *faults.Injector {
				inj := tenantFaultPlan(cluster)
				mu.Lock()
				for i := range tenants {
					if tenant == tenants[i] {
						injectors[i] = inj
					}
				}
				mu.Unlock()
				return inj
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Catalogs are built through the shared portal up front (deterministic
	// per cluster); the workflows themselves run simultaneously.
	cats := make([]*votable.Table, n)
	for i := 0; i < n; i++ {
		cat, _, err := tb.Portal.BuildCatalogReport(tb.Clusters[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		cats[i] = cat
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = tb.Compute.ComputeFor(context.Background(), cats[i],
				tb.Clusters[i].Name, webservice.RequestOptions{Tenant: tenants[i]}, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent workflow %d (%s): %v", i, tenants[i], err)
		}
	}

	// Byte-identity and fault-history identity per workflow, solo vs
	// interleaved.
	for i := 0; i < n; i++ {
		name := tb.Clusters[i].Name
		morph, err := tb.Compute.ResultTable(name + ".vot")
		if err != nil {
			t.Fatal(err)
		}
		if err := votable.MergeColumns(cats[i], morph, "id", "id",
			"surface_brightness", "concentration", "asymmetry", "valid"); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := votable.WriteTable(&b, cats[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), soloTables[i][name]) {
			t.Errorf("%s (%s): concurrent-tenant table differs from solo run", name, tenants[i])
		}
		if injectors[i] == nil {
			t.Fatalf("%s: FaultsFor never called for tenant %s", name, tenants[i])
		}
		if !reflect.DeepEqual(injectors[i].History(), soloHist[i]) {
			t.Errorf("%s (%s): fault history diverged between solo and concurrent runs:\n  solo: %v\n  conc: %v",
				name, tenants[i], soloHist[i], injectors[i].History())
		}
	}

	// The fabric accounted one completed workflow per tenant.
	fleet := tb.Compute.Fabric().Snapshot()
	if fleet.Admitted != n || fleet.Completed != n {
		t.Errorf("fleet = %+v, want %d admitted and completed", fleet, n)
	}
}

// nodeResult is the DAGMan report's result for node id.
func nodeResult(t *testing.T, rep *dagman.Report, id string) dagman.Result {
	t.Helper()
	for _, res := range rep.Results {
		if res.Node == id {
			return res
		}
	}
	t.Fatalf("no result for %s", id)
	return dagman.Result{}
}

// TestChaosUnrecoverableRescue drives a workflow into permanent failure (a
// node whose site stays down past the retry budget), verifies the rescue
// DAG holds exactly the failed and unrun work, and completes it on
// re-execution once the outage has passed — the DAGMan rescue semantics the
// paper's §4.3.1 relies on.
func TestChaosUnrecoverableRescue(t *testing.T) {
	g := dag.New()
	ids := []string{"n1", "n2", "n3", "n4"}
	for _, id := range ids {
		if err := g.AddNode(&dag.Node{ID: id, Type: "compute"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(ids); i++ {
		if err := g.AddEdge(ids[i-1], ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	// n3's site is down for its first two execution attempts — exactly the
	// retry budget of round one.
	inj := faults.New(5, faults.Rule{
		Name: condor.OpExec, Key: "n3", Kind: faults.KindSiteDown, Until: 2,
	})
	runner := func(n *dag.Node, attempt int) (dagman.Spec, error) {
		return dagman.Spec{Cost: time.Second, Run: condor.BodyFunc(func() error { return nil })}, nil
	}
	newSim := func() *condor.Simulator {
		sim, err := condor.NewSimulator(condor.Pool{Name: "p", Slots: 2})
		if err != nil {
			t.Fatal(err)
		}
		sim.SetInjector(inj)
		return sim
	}

	rep1, err := dagman.Execute(g, runner, newSim(), dagman.Options{MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Succeeded() {
		t.Fatal("outage outlasting the retry budget must fail the workflow")
	}
	if n3 := nodeResult(t, rep1, "n3"); n3.Attempts != 2 {
		t.Errorf("n3 attempts = %d, want 2", n3.Attempts)
	}

	rescue := rep1.RescueDAG(g)
	if rescue.Len() != 2 {
		t.Fatalf("rescue DAG has %d nodes, want 2 (failed n3 + unrun n4)", rescue.Len())
	}
	for _, id := range []string{"n3", "n4"} {
		if _, ok := rescue.Node(id); !ok {
			t.Errorf("rescue DAG missing %s", id)
		}
	}
	for _, id := range []string{"n1", "n2"} {
		if _, ok := rescue.Node(id); ok {
			t.Errorf("rescue DAG re-runs completed node %s", id)
		}
	}

	// Re-execution after the outage window completes the remaining work.
	rep2, err := dagman.Execute(rescue, runner, newSim(), dagman.Options{MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Succeeded() {
		t.Fatalf("rescue execution: done %d failed %d unrun %d", rep2.Done, rep2.Failed, rep2.Unrun)
	}
	if inj.Injected() != 2 {
		t.Errorf("injected %d faults, want exactly the 2 scheduled", inj.Injected())
	}
}
