package webservice

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/fabric"
	"repro/internal/gridftp"
	"repro/internal/journal"
	"repro/internal/rls"
	"repro/internal/services"
	"repro/internal/skysim"
	"repro/internal/tcat"
	"repro/internal/votable"
)

// multiSpecs is a set of n small, distinct clusters — one workflow each —
// for multi-tenant fabric tests.
func multiSpecs(n int) []skysim.Spec {
	specs := skysim.StandardClusters()[:n]
	for i := range specs {
		specs[i].NumGalaxies = 4 + i
	}
	return specs
}

// multiHarness is the multi-cluster analog of harness: one archive serving
// several clusters, one Grid substrate, one compute service.
type multiHarness struct {
	archive  *services.Archive
	archSrv  *httptest.Server
	svc      *Service
	ftp      *gridftp.Service
	clusters []*skysim.Cluster
}

func newMultiHarness(t testing.TB, n int, cfgMut func(*Config)) *multiHarness {
	t.Helper()
	var cls []*skysim.Cluster
	for _, spec := range multiSpecs(n) {
		cls = append(cls, skysim.Generate(spec))
	}
	arch := services.NewArchive("mast", cls...)
	srv := httptest.NewServer(arch.Handler())
	t.Cleanup(srv.Close)

	r := rls.New()
	ftp := gridftp.NewService(gridftp.Network{})
	tc := tcat.New()
	for _, site := range []string{"usc", "wisc", "fnal"} {
		_ = tc.Add(tcat.Entry{Transformation: "galMorph", Site: site, Path: "/nvo/bin/galMorph"})
		_ = tc.Add(tcat.Entry{Transformation: "concatVOT", Site: site, Path: "/nvo/bin/concatVOT"})
	}
	cfg := Config{
		RLS: r, TC: tc, GridFTP: ftp,
		Pools: []condor.Pool{
			{Name: "usc", Slots: 8}, {Name: "wisc", Slots: 16}, {Name: "fnal", Slots: 8},
		},
		CacheSite:  "isi",
		HTTPClient: srv.Client(),
		Seed:       5,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &multiHarness{archive: arch, archSrv: srv, svc: svc, ftp: ftp, clusters: cls}
}

// inputTableFor builds the catalog VOTable for the i-th cluster.
func (h *multiHarness) inputTableFor(t testing.TB, i int) *votable.Table {
	t.Helper()
	cl := h.clusters[i]
	tab := h.archive.SIAQueryCutouts(cl.Center, 2)
	if tab.NumRows() == 0 {
		t.Fatalf("no galaxies from cutout service for %s", cl.Name)
	}
	zCol := votable.Field{Name: "z", Datatype: votable.TypeDouble}
	tab.AddColumn(zCol, func(i int) string {
		g, _ := h.archive.Galaxy(tab.Cell(i, "id"))
		return votable.FormatFloat(g.Redshift)
	})
	for i := range tab.Fields {
		if tab.Fields[i].Name == "title" {
			tab.Fields[i].Name = "id"
		}
	}
	for r := 0; r < tab.NumRows(); r++ {
		if err := tab.SetCell(r, "acref", h.archSrv.URL+tab.Cell(r, "acref")); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func (h *multiHarness) outputBytes(t *testing.T, lfn string) []byte {
	t.Helper()
	data, err := h.ftp.Store("isi").Get(lfn)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// soloBytes computes cluster i alone on a fresh single-tenant substrate
// with the same seeds — the byte-identity baseline every fabric run is
// held to.
func soloBytes(t *testing.T, n, i int, cfgMut func(*Config)) []byte {
	t.Helper()
	h := newMultiHarness(t, n, cfgMut)
	name := h.clusters[i].Name
	if _, _, err := h.svc.Compute(h.inputTableFor(t, i), name); err != nil {
		t.Fatalf("solo %s: %v", name, err)
	}
	return h.outputBytes(t, name+".vot")
}

// awaitTerminal polls a submitted request to its terminal state.
func awaitTerminal(t *testing.T, svc *Service, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateRunning && st.State != StateQueued {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("request %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stressFabric is the overload configuration of the acceptance stress
// test: 2 workflow slots, 2 queue slots fleet-wide; each tenant may run 1
// workflow and queue 1 more.
func stressFabric(t *testing.T) *fabric.Fabric {
	t.Helper()
	f, err := fabric.New(fabric.Config{
		Pools: []condor.Pool{
			{Name: "usc", Slots: 8}, {Name: "wisc", Slots: 16}, {Name: "fnal", Slots: 8},
		},
		MaxRunningWorkflows: 2,
		MaxQueuedWorkflows:  2,
		DefaultQuota:        fabric.Quota{MaxRunningWorkflows: 1, MaxQueuedWorkflows: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// stressSubmissions is the fixed overload burst: tenant and cluster index
// per request, in submission order.
var stressSubmissions = []struct {
	tenant  string
	cluster int
}{
	{"alice", 0}, {"alice", 1}, {"alice", 2},
	{"bob", 3}, {"bob", 4},
	{"carol", 5},
}

// submitBurst posts the fixed burst through the HTTP handler against a
// held fabric and returns the HTTP status per submission plus the request
// IDs of the admitted ones (in submission order).
func submitBurst(t *testing.T, h *multiHarness, srv *httptest.Server) (statuses []int, ids []string, shedRetryAfter []string) {
	t.Helper()
	for _, sub := range stressSubmissions {
		tab := h.inputTableFor(t, sub.cluster)
		var body strings.Builder
		if err := votable.WriteTable(&body, tab); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(
			srv.URL+"/galmorph?cluster="+h.clusters[sub.cluster].Name+"&tenant="+sub.tenant,
			"text/xml", strings.NewReader(body.String()))
		if err != nil {
			t.Fatal(err)
		}
		payload := readAll(t, resp)
		statuses = append(statuses, resp.StatusCode)
		if resp.StatusCode == http.StatusAccepted {
			ids = append(ids, strings.TrimPrefix(payload, "/status?id="))
		} else {
			shedRetryAfter = append(shedRetryAfter, resp.Header.Get("Retry-After"))
		}
	}
	return statuses, ids, shedRetryAfter
}

// TestDeterministicSheddingUnderOverload is the PR's acceptance stress
// test: a submission burst over quota sheds a deterministic, repeatable
// set of 429/503s, while every admitted workflow's output VOTable is
// byte-identical to its single-tenant run — including after the shared
// fabric is killed mid-flight and every journaled workflow resumed.
func TestDeterministicSheddingUnderOverload(t *testing.T) {
	const n = 6
	// Held fabric, per-tenant queue quota 1, fleet queue quota 2:
	// alice queues c0 (202), then sheds her own quota twice (429);
	// bob queues c3 (202, fleet queue now full), sheds his quota (429);
	// carol hits the fleet-wide bound (503).
	wantStatuses := []int{202, 429, 429, 202, 429, 503}

	runBurst := func(killAfter int, dir string) ([]int, []string, *multiHarness) {
		h := newMultiHarness(t, n, func(c *Config) {
			c.Fabric = stressFabric(t)
			c.JournalDir = dir
			c.WrapJournal = crashAfter(killAfter)
		})
		h.svc.Fabric().Hold()
		srv := httptest.NewServer(h.svc.Handler())
		t.Cleanup(srv.Close)
		statuses, ids, retryAfter := submitBurst(t, h, srv)
		for i, ra := range retryAfter {
			if ra == "" {
				t.Fatalf("shed response %d missing Retry-After", i)
			}
		}
		h.svc.Fabric().Unhold()
		return statuses, ids, h
	}

	// Two identical bursts on fresh substrates: the shed set must repeat
	// exactly — deterministic overload degradation, not racy best-effort.
	statuses1, ids1, h1 := runBurst(0, t.TempDir())
	statuses2, _, _ := runBurst(0, t.TempDir())
	for i := range wantStatuses {
		if statuses1[i] != wantStatuses[i] {
			t.Fatalf("burst statuses = %v, want %v", statuses1, wantStatuses)
		}
		if statuses2[i] != statuses1[i] {
			t.Fatalf("second burst diverged: %v vs %v", statuses2, statuses1)
		}
	}

	// Every admitted workflow completes and matches its single-tenant run
	// byte for byte.
	admitted := []int{0, 3} // cluster index of each admitted submission
	for k, id := range ids1 {
		st := awaitTerminal(t, h1.svc, id)
		if st.State != StateCompleted {
			t.Fatalf("admitted request %s: %s (%s)", id, st.State, st.Message)
		}
		name := h1.clusters[admitted[k]].Name
		want := soloBytes(t, n, admitted[k], nil)
		if !bytes.Equal(h1.outputBytes(t, name+".vot"), want) {
			t.Fatalf("%s: fabric output differs from single-tenant run", name)
		}
	}

	// Fleet counters reflect the burst.
	fleet := h1.svc.Fleet()
	if fleet.Admitted != 2 || fleet.Shed != 4 || fleet.Completed != 2 {
		t.Fatalf("fleet = %+v, want 2 admitted, 4 shed, 2 completed", fleet)
	}

	// Kill/resume leg: same burst with the crash switch armed — both
	// admitted workflows die mid-flight; a reopened service resumes each
	// under its own tenant and still reproduces the solo bytes.
	dir := t.TempDir()
	statuses3, ids3, h3 := runBurst(12, dir)
	for i := range wantStatuses {
		if statuses3[i] != wantStatuses[i] {
			t.Fatalf("crash burst statuses = %v, want %v", statuses3, wantStatuses)
		}
	}
	tenants := []string{"alice", "bob"}
	for _, id := range ids3 {
		st := awaitTerminal(t, h3.svc, id)
		if st.State != StateFailed || !strings.Contains(st.Message, "simulated crash") {
			t.Fatalf("crash-armed request %s: %s (%s)", id, st.State, st.Message)
		}
	}
	svc2, err := h3.svc.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	for k, ci := range admitted {
		name := h3.clusters[ci].Name
		if _, _, err := svc2.ResumeFor(context.Background(), name,
			RequestOptions{Tenant: tenants[k]}, nil); err != nil {
			t.Fatalf("resume %s as %s: %v", name, tenants[k], err)
		}
		want := soloBytes(t, n, ci, nil)
		if !bytes.Equal(h3.outputBytes(t, name+".vot"), want) {
			t.Fatalf("%s: resumed fabric output differs from single-tenant run", name)
		}
	}
}

// TestFabricKillResumeNoJournalBleed kills the shared fabric with several
// journaled workflows in flight, then resumes all of them: every journal
// holds only its own workflow's scoped records, resuming one workflow
// never touches another's journal, and every output is byte-identical to
// its solo run.
func TestFabricKillResumeNoJournalBleed(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	h := newMultiHarness(t, n, func(c *Config) {
		c.JournalDir = dir
		c.WrapJournal = crashAfter(8)
	})
	tenants := []string{"alice", "bob", "carol"}

	// All three workflows in flight simultaneously on the shared fabric
	// when the crash switch fires in each.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		tab := h.inputTableFor(t, i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = h.svc.ComputeFor(context.Background(), tab,
				h.clusters[i].Name, RequestOptions{Tenant: tenants[i]}, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, journal.ErrCrash) {
			t.Fatalf("workflow %d: err = %v, want simulated crash", i, err)
		}
	}

	// Each journal is namespaced per workflow and carries only its own
	// scoped records — no cross-workflow bleed under interleaving.
	for i, tenant := range tenants {
		cluster := h.clusters[i].Name
		path := filepath.Join(dir, tenant+"__"+cluster+".journal")
		recs, _, err := journal.Replay(path)
		if err != nil {
			t.Fatalf("replay %s: %v", path, err)
		}
		if len(recs) == 0 {
			t.Fatalf("%s: empty journal after crash", path)
		}
		for _, r := range recs {
			if r.Scope != tenant+"/"+cluster {
				t.Fatalf("%s: record %d has scope %q, want %q",
					path, r.Seq, r.Scope, tenant+"/"+cluster)
			}
		}
	}

	// Resume them one at a time on a reopened service. While resuming one
	// workflow, the other workflows' journals must not change by a byte.
	svc2, err := h.svc.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	journalBytes := func(i int) []byte {
		data, err := os.ReadFile(filepath.Join(dir, tenants[i]+"__"+h.clusters[i].Name+".journal"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for i, tenant := range tenants {
		var others [][]byte
		for j := range tenants {
			if j != i {
				others = append(others, journalBytes(j))
			}
		}
		if _, _, err := svc2.ResumeFor(context.Background(), h.clusters[i].Name,
			RequestOptions{Tenant: tenant}, nil); err != nil {
			t.Fatalf("resume %s: %v", h.clusters[i].Name, err)
		}
		k := 0
		for j := range tenants {
			if j != i {
				if !bytes.Equal(journalBytes(j), others[k]) {
					t.Fatalf("resuming %s's workflow modified %s's journal",
						tenant, tenants[j])
				}
				k++
			}
		}
		want := soloBytes(t, n, i, nil)
		if !bytes.Equal(h.outputBytes(t, h.clusters[i].Name+".vot"), want) {
			t.Fatalf("%s: resumed output differs from solo run", h.clusters[i].Name)
		}
	}

	// A resume under the wrong identity must fail with the scope error,
	// not silently adopt another workflow's history: point a service at a
	// journal whose records belong to alice and resume it as the default
	// tenant (same on-disk path, different scope).
	src := filepath.Join(dir, "alice__"+h.clusters[0].Name+".journal")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, h.clusters[0].Name+".journal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".dag", ".vdl"} {
		artifact, err := os.ReadFile(filepath.Join(dir, "alice__"+h.clusters[0].Name+ext))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, h.clusters[0].Name+ext), artifact, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := resume(svc2, h.clusters[0].Name); !errors.Is(err, journal.ErrScope) {
		t.Fatalf("resume under foreign identity = %v, want journal.ErrScope", err)
	}
}

// clusterGate blocks the first archive fetch of each cluster until
// released, so a test can hold several workflows provably mid-flight at
// once.
type clusterGate struct {
	base    http.RoundTripper
	release chan struct{}

	mu      sync.Mutex
	started map[string]chan struct{}
	seen    map[string]bool
}

func (g *clusterGate) RoundTrip(req *http.Request) (*http.Response, error) {
	id := req.URL.Query().Get("id")
	cluster := id
	if cut := strings.LastIndex(id, "-"); cut >= 0 {
		cluster = id[:cut]
	}
	g.mu.Lock()
	first := !g.seen[cluster]
	g.seen[cluster] = true
	ch := g.started[cluster]
	g.mu.Unlock()
	if first && ch != nil {
		close(ch)
		<-g.release
	}
	return g.base.RoundTrip(req)
}

// TestCancelIsolationAcrossWorkflows is the regression for POST /cancel on
// a shared fabric: canceling one tenant's workflow must abort exactly that
// workflow — the other in-flight workflow keeps its side effects, runs to
// completion, and produces its solo-run bytes.
func TestCancelIsolationAcrossWorkflows(t *testing.T) {
	const n = 2
	dir := t.TempDir()
	gate := &clusterGate{
		release: make(chan struct{}),
		started: map[string]chan struct{}{},
		seen:    map[string]bool{},
	}
	h := newMultiHarness(t, n, func(c *Config) {
		c.JournalDir = dir
		gate.base = c.HTTPClient.Transport
		if gate.base == nil {
			gate.base = http.DefaultTransport
		}
		c.HTTPClient = &http.Client{Transport: gate}
		for _, cl := range multiSpecs(n) {
			gate.started[cl.Name] = make(chan struct{})
		}
	})
	srv := httptest.NewServer(h.svc.Handler())
	defer srv.Close()

	submit := func(i int, tenant string) string {
		tab := h.inputTableFor(t, i)
		var body strings.Builder
		if err := votable.WriteTable(&body, tab); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(
			srv.URL+"/galmorph?cluster="+h.clusters[i].Name+"&tenant="+tenant,
			"text/xml", strings.NewReader(body.String()))
		if err != nil {
			t.Fatal(err)
		}
		payload := readAll(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		return strings.TrimPrefix(payload, "/status?id=")
	}
	idA := submit(0, "alice")
	idB := submit(1, "bob")

	// Both workflows are provably mid-flight (each blocked on its first
	// archive fetch); cancel alice's only.
	<-gate.started[h.clusters[0].Name]
	<-gate.started[h.clusters[1].Name]
	cresp, err := http.Post(srv.URL+"/cancel?id="+idA, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("/cancel status = %d", cresp.StatusCode)
	}
	close(gate.release)

	stA := awaitTerminal(t, h.svc, idA)
	if stA.State != StateFailed || !strings.Contains(stA.Message, "abort") {
		t.Fatalf("canceled workflow: %s (%s)", stA.State, stA.Message)
	}
	stB := awaitTerminal(t, h.svc, idB)
	if stB.State != StateCompleted {
		t.Fatalf("bob's workflow was dragged down by alice's cancel: %s (%s)",
			stB.State, stB.Message)
	}

	// Bob's journal must record a clean completed run — no abort record
	// bled over from alice's cancellation.
	recsB, _, err := journal.Replay(filepath.Join(dir, "bob__"+h.clusters[1].Name+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recsB {
		if r.Kind == journal.KindAborted {
			t.Fatal("bob's journal carries an abort record from alice's cancel")
		}
	}
	if last := recsB[len(recsB)-1]; last.Kind != journal.KindEnd {
		t.Fatalf("bob's journal ends with %s, want end", last.Kind)
	}

	// And bob's science is untouched: byte-identical to his solo run.
	want := soloBytes(t, n, 1, nil)
	if !bytes.Equal(h.outputBytes(t, h.clusters[1].Name+".vot"), want) {
		t.Fatal("bob's output differs from his single-tenant run after alice's cancel")
	}
}

// TestQueuedStatusAndCancelWhileQueued covers the queued leg of the
// request lifecycle: a workflow behind the quota reports StateQueued, and
// canceling it dequeues it without ever running it.
func TestQueuedStatusAndCancelWhileQueued(t *testing.T) {
	const n = 2
	h := newMultiHarness(t, n, func(c *Config) {
		f, err := fabric.New(fabric.Config{
			Pools:               c.Pools,
			MaxRunningWorkflows: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Fabric = f
	})
	h.svc.Fabric().Hold()
	id0, err := h.svc.SubmitFor(h.inputTableFor(t, 0), h.clusters[0].Name, RequestOptions{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	id1, err := h.svc.SubmitFor(h.inputTableFor(t, 1), h.clusters[1].Name, RequestOptions{Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.svc.Status(id1)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Tenant != "bob" {
		t.Fatalf("held request: state=%s tenant=%s, want queued/bob", st.State, st.Tenant)
	}
	if err := h.svc.Cancel(id1); err != nil {
		t.Fatal(err)
	}
	st1 := awaitTerminal(t, h.svc, id1)
	if st1.State != StateFailed || !strings.Contains(st1.Message, "canceled while queued") {
		t.Fatalf("canceled queued request: %s (%s)", st1.State, st1.Message)
	}
	h.svc.Fabric().Unhold()
	if st0 := awaitTerminal(t, h.svc, id0); st0.State != StateCompleted {
		t.Fatalf("alice's workflow: %s (%s)", st0.State, st0.Message)
	}
	snap := h.svc.Fleet()
	var bob fabric.TenantSnapshot
	for _, ts := range snap.Tenants {
		if ts.Tenant == "bob" {
			bob = ts
		}
	}
	if bob.Canceled != 1 || bob.Completed != 0 {
		t.Fatalf("bob's counters after queued cancel: %+v", bob)
	}
}

// TestStatsEndpointReportsFleet checks the /stats payload carries the
// fabric's per-tenant admission and fair-share counters.
func TestStatsEndpointReportsFleet(t *testing.T) {
	h := newMultiHarness(t, 1, nil)
	if _, _, err := h.svc.ComputeFor(context.Background(), h.inputTableFor(t, 0),
		h.clusters[0].Name, RequestOptions{Tenant: "alice"}, nil); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.svc.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Fleet.Admitted != 1 || len(got.Fleet.Tenants) != 1 {
		t.Fatalf("fleet stats = %+v, want 1 admitted for tenant alice", got.Fleet)
	}
	alice := got.Fleet.Tenants[0]
	if alice.Tenant != "alice" || alice.Completed != 1 || alice.UsageModelTime <= 0 {
		t.Fatalf("alice snapshot = %+v", alice)
	}
}
