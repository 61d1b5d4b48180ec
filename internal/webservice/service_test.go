package webservice

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gridftp"
	"repro/internal/journal"
	"repro/internal/myproxy"
	"repro/internal/resilience"
	"repro/internal/rls"
	"repro/internal/services"
	"repro/internal/skysim"
	"repro/internal/tcat"
	"repro/internal/vdl"
	"repro/internal/votable"
	"repro/internal/wcs"
)

// harness wires a full Grid: an archive HTTP server serving its clusters,
// RLS, TC, GridFTP, pools and the compute service.
type harness struct {
	archive  *services.Archive
	archSrv  *httptest.Server
	svc      *Service
	r        *rls.RLS
	ftp      *gridftp.Service
	clusters []*skysim.Cluster
}

// newHarness is the one-cluster harness: COMA with nGalaxies galaxies.
func newHarness(t testing.TB, nGalaxies int, cfgMut func(*Config)) *harness {
	t.Helper()
	return newGrid(t, []skysim.Spec{{Name: "COMA", Center: wcs.New(195, 28), Redshift: 0.023,
		NumGalaxies: nGalaxies, Seed: 11}}, cfgMut)
}

func newGrid(t testing.TB, specs []skysim.Spec, cfgMut func(*Config)) *harness {
	t.Helper()
	var cls []*skysim.Cluster
	for _, spec := range specs {
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
		RLS: r, TC: tc, GridFTP: ftp, Fabric: permissiveFabric(gridPools()),
		HTTPClient: srv.Client(),
		Seed:       5,
		MaxRetries: 2,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{archive: arch, archSrv: srv, svc: svc, r: r, ftp: ftp, clusters: cls}
}

// gridPools is the harness's pool set: the paper's three Condor sites.
func gridPools() []condor.Pool {
	return []condor.Pool{{Name: "usc", Slots: 8}, {Name: "wisc", Slots: 16}, {Name: "fnal", Slots: 8}}
}

// permissiveFabric is a fabric over pools with no quotas and no queue
// bounds, so every admission is granted at once.
func permissiveFabric(pools []condor.Pool) *fabric.Fabric {
	f, err := fabric.New(fabric.Config{Pools: pools})
	if err != nil {
		panic(err)
	}
	return f
}

// leg is a leg of an unpublished default-tenant COMA request, for tests that
// drive leg methods directly.
func (h *harness) leg() *leg {
	return h.svc.newLeg(&request{Status: Status{Tenant: DefaultTenant, Cluster: "COMA"}}, 0)
}

// crashAfter is the kill switch of the kill-and-resume campaigns as a
// Config.WrapJournal hook: every workflow leg gets a fresh sink that
// simulates kill -9 after k journal appends (k <= 0 never crashes).
// Service.Reopen disarms it.
func crashAfter(k int) func(tenant, cluster string, sink journal.Sink) journal.Sink {
	return func(_, _ string, sink journal.Sink) journal.Sink {
		return &journal.CrashSink{Sink: sink, After: k}
	}
}

// execFaults is the dead-worker-node ablation as a Config.FaultsFor hook:
// every workflow leg gets a fresh seeded injector that fails each Condor
// task with probability p (transient; DAGMan retries).
func execFaults(p float64) func(tenant, cluster string) *faults.Injector {
	return func(_, _ string) *faults.Injector {
		return faults.New(5, faults.Rule{Name: condor.OpExec, Kind: faults.KindTransient, Probability: p})
	}
}

// submit and resume are SubmitFor and ResumeFor as the default tenant, without
// cancellation or a progress callback.
func submit(svc *Service, tab *votable.Table, cluster string) (string, error) {
	return svc.SubmitFor(tab, cluster, RequestOptions{})
}

func resume(svc *Service, cluster string) (string, RunStats, error) {
	return svc.ResumeFor(context.Background(), cluster, RequestOptions{}, nil)
}

// inputTable builds the catalog VOTable the portal would send for the
// first cluster: id, ra, dec, z and absolute acref URLs.
func (h *harness) inputTable(t testing.TB) *votable.Table {
	t.Helper()
	return h.inputTableFor(t, 0)
}

// inputTableFor builds the catalog VOTable for the i-th cluster.
func (h *harness) inputTableFor(t testing.TB, i int) *votable.Table {
	t.Helper()
	cl := h.clusters[i]
	tab := h.archive.SIAQueryCutoutsPage(cl.Center, 2, 0, -1)
	if tab.NumRows() == 0 {
		t.Fatalf("no galaxies from cutout service for %s", cl.Name)
	}
	zCol := votable.Field{Name: "z", Datatype: votable.TypeDouble}
	tab.AddColumn(zCol, func(i int) string {
		g, _ := h.archive.Galaxy(tab.Cell(i, "id"))
		return votable.FormatFloat(g.Redshift)
	})
	// Rename title column to id for the service contract.
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

// requestRefs is the (id, acref) staging list admission reads from a table.
func requestRefs(t testing.TB, tab *votable.Table) []imageRef {
	t.Helper()
	dvs, err := newDerivations(tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	return dvs.refs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config must fail")
	}
	if _, err := New(Config{RLS: rls.New(), TC: tcat.New(), GridFTP: gridftp.NewService(gridftp.Network{})}); err == nil {
		t.Error("config without a Fabric must fail")
	}
}

func TestValidateInput(t *testing.T) {
	h := newHarness(t, 5, nil)
	bad := votable.NewTable("x", votable.Field{Name: "nope", Datatype: votable.TypeChar})
	if _, _, err := h.svc.Compute(bad, "C"); err == nil {
		t.Error("table without id/acref must fail")
	}
	empty := votable.NewTable("x",
		votable.Field{Name: "id", Datatype: votable.TypeChar},
		votable.Field{Name: "acref", Datatype: votable.TypeChar})
	if _, _, err := h.svc.Compute(empty, "C"); err == nil {
		t.Error("empty table must fail")
	}
}

func TestComputeEndToEnd(t *testing.T) {
	h := newHarness(t, 20, nil)
	tab := h.inputTable(t)

	lfn, stats, err := h.svc.Compute(tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if lfn != "COMA.vot" {
		t.Errorf("output lfn = %q", lfn)
	}
	if stats.Galaxies != tab.NumRows() {
		t.Errorf("galaxies = %d", stats.Galaxies)
	}
	if stats.ImagesFetched != tab.NumRows() || stats.ImagesCached != 0 {
		t.Errorf("fetch/cache = %d/%d", stats.ImagesFetched, stats.ImagesCached)
	}
	if stats.ComputeJobs != tab.NumRows()+1 {
		t.Errorf("compute jobs = %d, want %d", stats.ComputeJobs, tab.NumRows()+1)
	}
	if stats.Makespan <= 0 {
		t.Error("makespan must be positive")
	}
	if stats.FilesStaged == 0 {
		t.Error("staging must have happened")
	}
	if !h.r.Exists("COMA.vot") {
		t.Error("output not registered in RLS")
	}

	// The result table has one row per galaxy with the three parameters.
	res, err := h.svc.ResultTable(lfn)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != tab.NumRows() {
		t.Fatalf("result rows = %d", res.NumRows())
	}
	validCount := 0
	for i := 0; i < res.NumRows(); i++ {
		if v, ok := res.Bool(i, "valid"); ok && v {
			validCount++
			if _, ok := res.Float(i, "asymmetry"); !ok {
				t.Errorf("row %d: no asymmetry", i)
			}
			if _, ok := res.Float(i, "concentration"); !ok {
				t.Errorf("row %d: no concentration", i)
			}
			if _, ok := res.Float(i, "surface_brightness"); !ok {
				t.Errorf("row %d: no surface brightness", i)
			}
		}
	}
	if validCount < res.NumRows()*3/4 {
		t.Errorf("only %d/%d rows valid", validCount, res.NumRows())
	}
}

func TestComputeSecondRequestUsesCache(t *testing.T) {
	h := newHarness(t, 10, nil)
	tab := h.inputTable(t)

	if _, _, err := h.svc.Compute(tab, "COMA"); err != nil {
		t.Fatal(err)
	}
	// Second identical request: output exists in RLS -> no work at all.
	_, stats2, err := h.svc.Compute(tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.ReusedOutput {
		t.Error("second request must reuse the registered output")
	}
	if stats2.ComputeJobs != 0 || stats2.ImagesFetched != 0 {
		t.Errorf("second request did work: %+v", stats2)
	}

	// A different cluster name over the same galaxies: images are cached
	// (no SIA fetches), compute jobs are pruned because the per-galaxy
	// .txt products are registered.
	_, stats3, err := h.svc.Compute(tab, "COMA2")
	if err != nil {
		t.Fatal(err)
	}
	if stats3.ImagesFetched != 0 || stats3.ImagesCached != 10 {
		t.Errorf("images fetch/cache = %d/%d, want 0/10", stats3.ImagesFetched, stats3.ImagesCached)
	}
	if stats3.PrunedJobs != 10 {
		t.Errorf("pruned = %d, want 10 galMorph jobs", stats3.PrunedJobs)
	}
	if stats3.ComputeJobs != 1 { // only the new concat
		t.Errorf("compute jobs = %d, want 1", stats3.ComputeJobs)
	}
}

// TestWarmMemoRequestSkipsRecompute exercises the virtual-data memo on the
// regeneration case: the derived .txt files are reclaimed from storage, so a
// repeat request must re-run every galMorph node — but each measurement comes
// out of the content-keyed cache instead of being recomputed, and the table
// is identical.
func TestWarmMemoRequestSkipsRecompute(t *testing.T) {
	const n = 20
	h := newHarness(t, n, func(c *Config) { c.Workers = 4 })
	tab := h.inputTable(t)
	coldLFN, cold, err := h.svc.Compute(tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if cold.MemoHits != 0 || cold.MemoMisses == 0 {
		t.Fatalf("cold run: MemoHits=%d MemoMisses=%d, want 0 hits and >0 misses", cold.MemoHits, cold.MemoMisses)
	}
	// Reclaim the derived result files, as a storage sweep would: unregister
	// every replica and delete its bytes.
	for i := 0; i < tab.NumRows(); i++ {
		lfn := tab.Cell(i, "id") + ".txt"
		for _, pfn := range h.r.Lookup(lfn) {
			site, path, err := gridftp.ParseURL(pfn.URL)
			if err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(h.r.Unregister(lfn, pfn), h.ftp.Store(site).Delete(path)); err != nil {
				t.Fatal(err)
			}
		}
	}
	warmLFN, warm, err := h.svc.Compute(tab, "COMA-AGAIN")
	if err != nil {
		t.Fatal(err)
	}
	if warm.MemoMisses != 0 || warm.MemoHits != n {
		t.Errorf("warm run: MemoHits=%d MemoMisses=%d, want %d hits (one per galaxy) and 0 misses", warm.MemoHits, warm.MemoMisses, n)
	}
	coldTab, err := h.svc.ResultTable(coldLFN)
	if err != nil {
		t.Fatal(err)
	}
	warmTab, err := h.svc.ResultTable(warmLFN)
	if err != nil {
		t.Fatal(err)
	}
	if coldTab.NumRows() != n || !reflect.DeepEqual(coldTab.Rows, warmTab.Rows) {
		t.Errorf("warm table differs from the cold one (%d and %d rows)", coldTab.NumRows(), warmTab.NumRows())
	}
}

func TestValidityFlagFaultTolerance(t *testing.T) {
	// Corrupt one galaxy's cached image: the workflow must still complete,
	// with that galaxy flagged invalid (§4.3.1 item 4).
	h := newHarness(t, 8, nil)
	tab := h.inputTable(t)
	// Pre-cache a corrupt image for the first galaxy.
	id := tab.Cell(0, "id")
	store := h.ftp.Store("isi")
	if err := store.Put(id+".fit", []byte("this is not FITS data at all, but long enough")); err != nil {
		t.Fatal(err)
	}
	if err := h.r.Register(id+".fit", rls.PFN{Site: "isi", URL: gridftp.URL("isi", id+".fit")}); err != nil {
		t.Fatal(err)
	}

	lfn, stats, err := h.svc.Compute(tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if stats.InvalidRows != 1 {
		t.Errorf("invalid rows = %d, want 1", stats.InvalidRows)
	}
	res, err := h.svc.ResultTable(lfn)
	if err != nil {
		t.Fatal(err)
	}
	sawInvalid := false
	for i := 0; i < res.NumRows(); i++ {
		if res.Cell(i, "id") == id {
			if v, _ := res.Bool(i, "valid"); v {
				t.Error("corrupt galaxy marked valid")
			}
			sawInvalid = true
		}
	}
	if !sawInvalid {
		t.Error("corrupt galaxy missing from results")
	}
}

func TestStrictFaultsAblation(t *testing.T) {
	// The rejected design: a bad image fails its job, exhausts retries and
	// takes down the workflow.
	h := newHarness(t, 6, func(c *Config) { c.StrictFaults = true; c.MaxRetries = 1 })
	tab := h.inputTable(t)
	id := tab.Cell(0, "id")
	_ = h.ftp.Store("isi").Put(id+".fit", []byte("garbage garbage garbage garbage"))
	_ = h.r.Register(id+".fit", rls.PFN{Site: "isi", URL: gridftp.URL("isi", id+".fit")})

	if _, _, err := h.svc.Compute(tab, "COMA"); err == nil {
		t.Error("strict-faults run must fail on the corrupt image")
	}
}

func TestInjectedTransientFailuresRetried(t *testing.T) {
	h := newHarness(t, 12, func(c *Config) { c.FaultsFor = execFaults(0.2); c.MaxRetries = 20 })
	tab := h.inputTable(t)
	lfn, _, err := h.svc.Compute(tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.svc.ResultTable(lfn)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 12 {
		t.Errorf("rows = %d", res.NumRows())
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	h := newHarness(t, 8, nil)
	tab := h.inputTable(t)

	id, err := submit(h.svc, tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "req-") {
		t.Errorf("request id = %q", id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := h.svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateCompleted {
			if st.ResultLFN != "COMA.vot" {
				t.Errorf("result lfn = %q", st.ResultLFN)
			}
			break
		}
		if st.State == StateFailed {
			t.Fatalf("request failed: %s", st.Message)
		}
		if time.Now().After(deadline) {
			t.Fatal("request did not complete in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := h.svc.Status("req-999999"); err == nil {
		t.Error("unknown request must fail")
	}
}

func TestHTTPProtocol(t *testing.T) {
	h := newHarness(t, 6, nil)
	tab := h.inputTable(t)
	wsSrv := httptest.NewServer(h.svc.Handler())
	defer wsSrv.Close()

	var body bytes.Buffer
	if err := votable.WriteTable(&body, tab); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(wsSrv.URL+"/galmorph?cluster=COMA", "text/xml", &body)
	if err != nil {
		t.Fatal(err)
	}
	statusPath := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, statusPath)
	}
	if !strings.HasPrefix(statusPath, "/status?id=") {
		t.Fatalf("status path = %q", statusPath)
	}

	// Poll until completed, as the portal does.
	var resultURL string
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(wsSrv.URL + statusPath)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State     State
			Message   string
			ResultURL string
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == StateCompleted {
			resultURL = st.ResultURL
			break
		}
		if st.State == StateFailed {
			t.Fatalf("failed: %s", st.Message)
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err = http.Get(wsSrv.URL + resultURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	res, err := votable.ReadTable(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 6 {
		t.Errorf("result rows = %d", res.NumRows())
	}
}

// TestGalmorphBodyCap: an upload over maxRequestBody — well-formed, so only
// its size can refuse it — answers 413 and admits nothing: the fabric
// snapshot and /stats read the same before and after.
func TestGalmorphBodyCap(t *testing.T) {
	h := newHarness(t, 3, nil)
	srv := httptest.NewServer(h.svc.Handler())
	defer srv.Close()
	stats := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		return readAll(t, resp)
	}

	tab := h.inputTable(t)
	if err := tab.SetCell(0, "acref", strings.Repeat("x", maxRequestBody)); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := votable.WriteTable(&body, tab); err != nil {
		t.Fatal(err)
	}
	fleetBefore, statsBefore := h.svc.Fabric().Snapshot(), stats()

	resp, err := http.Post(srv.URL+"/galmorph?cluster=COMA", "text/xml", &body)
	if err != nil {
		t.Fatal(err)
	}
	msg := readAll(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap POST /galmorph = %d (%s), want 413", resp.StatusCode, msg)
	}
	if fleet := h.svc.Fabric().Snapshot(); !reflect.DeepEqual(fleet, fleetBefore) {
		t.Errorf("over-cap POST changed the fabric snapshot:\nbefore %+v\nafter  %+v", fleetBefore, fleet)
	}
	if got := stats(); got != statsBefore {
		t.Errorf("over-cap POST changed /stats:\nbefore %s\nafter  %s", statsBefore, got)
	}
}

// TestGalmorphBadPriority: a priority that is not an int — a word, or a
// number that overflows one — answers 400 and admits nothing.
func TestGalmorphBadPriority(t *testing.T) {
	h := newHarness(t, 3, nil)
	srv := httptest.NewServer(h.svc.Handler())
	defer srv.Close()
	var body bytes.Buffer
	if err := votable.WriteTable(&body, h.inputTable(t)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"abc", "99999999999999999999"} {
		resp, err := http.Post(srv.URL+"/galmorph?cluster=COMA&priority="+p, "text/xml", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if msg := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /galmorph priority=%s = %d (%s), want 400", p, resp.StatusCode, msg)
		}
	}
	if fleet := h.svc.Fabric().Snapshot(); fleet.Admitted != 0 {
		t.Errorf("bad priorities admitted %d requests, want 0", fleet.Admitted)
	}
	if st := h.svc.Stats(); st.Requests != 0 {
		t.Errorf("bad priorities published %d requests, want 0", st.Requests)
	}
}

// TestWorkflowNamesCannotCollide submits pairs of workflows whose journal
// artifacts once shared a basename under JournalDir: tenants that differ
// only in characters a sanitizer folded to '_', and a default-tenant
// cluster spelled like another tenant's namespaced one. Every accepted
// workflow must own its own journal; the rest are refused with a 400
// before admission.
func TestWorkflowNamesCannotCollide(t *testing.T) {
	type sub struct{ tenant, cluster string }
	for _, pair := range [][2]sub{
		{{"a/b", "COMA"}, {"a_b", "COMA"}},
		{{"a b", "COMA"}, {"a_b", "COMA"}},
		{{"alice", "COMA"}, {"", "alice__COMA"}},
	} {
		dir := t.TempDir()
		h := newHarness(t, 3, func(c *Config) { c.JournalDir = dir })
		srv := httptest.NewServer(h.svc.Handler())
		var body bytes.Buffer
		if err := votable.WriteTable(&body, h.inputTable(t)); err != nil {
			t.Fatal(err)
		}
		accepted := 0
		for _, s := range pair {
			resp, err := http.Post(srv.URL+"/galmorph?cluster="+url.QueryEscape(s.cluster)+"&tenant="+url.QueryEscape(s.tenant),
				"text/xml", bytes.NewReader(body.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			msg := readAll(t, resp)
			switch resp.StatusCode {
			case http.StatusAccepted:
				accepted++
				awaitTerminal(t, h.svc, strings.TrimPrefix(msg, "/status?id="))
			case http.StatusBadRequest:
			default:
				t.Errorf("tenant %q cluster %q: status %d (%s), want 202 or 400", s.tenant, s.cluster, resp.StatusCode, msg)
			}
		}
		srv.Close()
		journals, err := filepath.Glob(filepath.Join(dir, "*.journal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(journals) != accepted {
			t.Errorf("%+v: %d accepted workflows wrote journals %v", pair, accepted, journals)
		}
		if fleet := h.svc.Fabric().Snapshot(); fleet.Admitted != accepted {
			t.Errorf("%+v: fabric admitted %d, want the %d accepted", pair, fleet.Admitted, accepted)
		}
	}
	if got := wfBase("alice", "COMA"); got != "alice__COMA" {
		t.Errorf("wfBase(alice, COMA) = %q, want alice__COMA", got)
	}
	if got := wfBase(DefaultTenant, "COMA"); got != "COMA" {
		t.Errorf("wfBase(default, COMA) = %q, want COMA", got)
	}
}

func TestHTTPErrors(t *testing.T) {
	h := newHarness(t, 3, nil)
	wsSrv := httptest.NewServer(h.svc.Handler())
	defer wsSrv.Close()

	resp, _ := http.Get(wsSrv.URL + "/galmorph?cluster=X")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /galmorph = %d", resp.StatusCode)
	}
	resp, _ = http.Post(wsSrv.URL+"/galmorph", "text/xml", strings.NewReader("x"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing cluster = %d", resp.StatusCode)
	}
	resp, _ = http.Post(wsSrv.URL+"/galmorph?cluster=X", "text/xml", strings.NewReader("not xml"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body = %d", resp.StatusCode)
	}
	resp, _ = http.Get(wsSrv.URL + "/status?id=nope")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown status = %d", resp.StatusCode)
	}
	resp, _ = http.Get(wsSrv.URL + "/result?lfn=ghost.vot")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown result = %d", resp.StatusCode)
	}
	resp, _ = http.Get(wsSrv.URL + "/result")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing lfn = %d", resp.StatusCode)
	}
}

// TestResultEndpointServesStoredBytes: /result answers with the stored
// result blob itself, which is also exactly what decoding and re-encoding it
// gives, on the 48-galaxy request the golden artifacts pin.
func TestResultEndpointServesStoredBytes(t *testing.T) {
	h := newHarness(t, 48, nil)
	lfn, _, err := h.svc.Compute(h.inputTable(t), "COMA")
	if err != nil {
		t.Fatal(err)
	}
	wsSrv := httptest.NewServer(h.svc.Handler())
	defer wsSrv.Close()
	resp, err := http.Get(wsSrv.URL + "/result?lfn=" + lfn)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/result = %d: %s", resp.StatusCode, body.Bytes())
	}
	stored, err := h.svc.cfg.GridFTP.Store(cacheSite).Get(lfn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body.Bytes(), stored) {
		t.Errorf("/result body (%d bytes) differs from the stored blob (%d bytes)", body.Len(), len(stored))
	}
	tab, err := h.svc.ResultTable(lfn)
	if err != nil {
		t.Fatal(err)
	}
	var reencoded bytes.Buffer
	if err := votable.WriteTable(&reencoded, tab); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reencoded.Bytes(), stored) {
		t.Errorf("WriteTable(ResultTable) (%d bytes) differs from the stored blob (%d bytes)", reencoded.Len(), len(stored))
	}

	// The store also caches the cutouts; /result and ResultTable answer
	// result tables only.
	const image = "COMA-000003.fit"
	if !h.svc.cfg.GridFTP.Store(cacheSite).Exists(image) {
		t.Fatalf("%s is not in the cache store", image)
	}
	resp, err = http.Get(wsSrv.URL + "/result?lfn=" + image)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/result?lfn=%s = %d, want 404", image, resp.StatusCode)
	}
	if _, err := h.svc.ResultTable(image); err == nil {
		t.Errorf("ResultTable(%s) succeeded", image)
	}
}

func TestResultCodec(t *testing.T) {
	r := GalMorphResult{
		ID: "COMA-000001", SurfaceBrightness: 21.5, Concentration: 3.2,
		Asymmetry: 0.12, Valid: true,
	}
	got, err := decodeResult(appendResult(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip: %+v != %+v", got, r)
	}
	bad := GalMorphResult{ID: "X", Valid: false, Reason: "no signal\nmultiline"}
	got, err = decodeResult(appendResult(nil, bad))
	if err != nil {
		t.Fatal(err)
	}
	if got.Valid || got.Reason == "" {
		t.Errorf("invalid round trip: %+v", got)
	}
	// Non-finite values are legitimate measurements and must round-trip.
	odd := GalMorphResult{ID: "Y", SurfaceBrightness: math.Inf(1), Concentration: math.NaN(), Asymmetry: math.Inf(-1), Valid: true}
	got, err = decodeResult(appendResult(nil, odd))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.SurfaceBrightness, 1) || !math.IsNaN(got.Concentration) || !math.IsInf(got.Asymmetry, -1) || !got.Valid {
		t.Errorf("non-finite round trip: %+v", got)
	}
	if _, err := decodeResult([]byte("garbage-without-space")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := decodeResult([]byte("valid true\n")); err == nil {
		t.Error("missing id must fail")
	}
	// A number or flag that does not parse is an error naming its key, never
	// a silent zero published as a valid measurement.
	for key, file := range map[string]string{
		"surface_brightness": "id X\nsurface_brightness 2l.5\nconcentration 3\nasymmetry 0.1\nvalid true\n",
		"concentration":      "id X\nsurface_brightness 21.5\nconcentration abc\nasymmetry 0.1\nvalid true\n",
		"asymmetry":          "id X\nsurface_brightness 21.5\nconcentration 3\nasymmetry \nvalid true\n",
		"valid":              "id X\nsurface_brightness 21.5\nconcentration 3\nasymmetry 0.1\nvalid True\n",
	} {
		if _, err := decodeResult([]byte(file)); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("malformed %s: err = %v, want an error naming the key", key, err)
		}
	}
}

// FuzzResultRoundTrip: decodeResult never panics, and a result file it
// accepts, written back by appendResult, decodes to the same result, floats
// bit for bit.
func FuzzResultRoundTrip(f *testing.F) {
	for _, r := range []GalMorphResult{
		{ID: "COMA-000001", SurfaceBrightness: 21.5, Concentration: 3.2, Asymmetry: 0.12, Valid: true},
		{ID: "X", Reason: "no signal\nmultiline"},
		{ID: "Y", SurfaceBrightness: math.Inf(1), Concentration: math.NaN(), Asymmetry: math.Copysign(0, -1), Valid: true},
	} {
		f.Add(appendResult(nil, r))
	}
	f.Add([]byte("id  X\r\nsurface_brightness 0x1p-2\nvalid false\nid Z\nextra key\n"))
	f.Add([]byte("valid True\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeResult(data)
		if err != nil {
			return
		}
		got, err := decodeResult(appendResult(nil, r))
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", r, err)
		}
		if got.ID != r.ID || got.Valid != r.Valid || got.Reason != r.Reason ||
			math.Float64bits(got.SurfaceBrightness) != math.Float64bits(r.SurfaceBrightness) ||
			math.Float64bits(got.Concentration) != math.Float64bits(r.Concentration) ||
			math.Float64bits(got.Asymmetry) != math.Float64bits(r.Asymmetry) {
			t.Fatalf("round trip changed the result:\nwas %+v\nnow %+v", r, got)
		}
	})
}

func TestBuildVDLParses(t *testing.T) {
	tab := votable.NewTable("in",
		votable.Field{Name: "id", Datatype: votable.TypeChar},
		votable.Field{Name: "acref", Datatype: votable.TypeChar},
		votable.Field{Name: "z", Datatype: votable.TypeDouble},
	)
	_ = tab.AppendRow("G1", "http://x/1", "0.02")
	_ = tab.AppendRow("G2", "http://x/2", "")

	dvs, err := newDerivations(tab, "TEST")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := vdl.Parse(dvs.text())
	if err != nil {
		t.Fatalf("%v\n%s", err, dvs.text())
	}
	if len(cat.Derivations()) != 3 {
		t.Errorf("derivations = %v", cat.Derivations())
	}
	dv, _ := cat.Derivation("m-G2")
	if dv.Bindings["redshift"].Value != "0" {
		t.Errorf("empty z must default to 0: %+v", dv.Bindings["redshift"])
	}
	cfg := morphConfigFromDV(dv)
	if cfg.Cosmology.H0 != 100 || cfg.ZeroPoint != 27.8 {
		t.Errorf("config = %+v", cfg)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func BenchmarkWebServiceCachedRequest(b *testing.B) {
	h := newHarness(b, 20, nil)
	tab := h.inputTable(b)
	if _, _, err := h.svc.Compute(tab, "COMA"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := h.svc.Compute(tab, "COMA")
		if err != nil || !stats.ReusedOutput {
			b.Fatalf("stats=%+v err=%v", stats, err)
		}
	}
}

func BenchmarkWebServiceColdRequest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := newHarness(b, 10, nil)
		tab := h.inputTable(b)
		b.StartTimer()
		if _, _, err := h.svc.Compute(tab, fmt.Sprintf("COMA%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestProgressReporting(t *testing.T) {
	h := newHarness(t, 10, nil)
	tab := h.inputTable(t)
	id, err := submit(h.svc, tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var final Status
	for {
		st, err := h.svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateRunning {
			final = st
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final.State != StateCompleted {
		t.Fatalf("final = %+v", final)
	}
	if final.JobsTotal == 0 || final.JobsDone != final.JobsTotal {
		t.Errorf("progress = %d/%d, want complete and non-zero", final.JobsDone, final.JobsTotal)
	}
	// Total covers compute + transfer + register nodes.
	if final.JobsTotal < final.Stats.ComputeJobs {
		t.Errorf("total %d < compute jobs %d", final.JobsTotal, final.Stats.ComputeJobs)
	}
}

func TestMyProxyGatedCompute(t *testing.T) {
	repo := myproxy.New()
	if err := repo.Delegate("nvoportal", "pw", "/CN=NVO Portal", time.Hour, time.Hour); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, 5, func(c *Config) {
		c.Proxy = func() (myproxy.Proxy, error) {
			return repo.Retrieve("nvoportal", "pw", 30*time.Minute)
		}
	})
	tab := h.inputTable(t)
	if _, _, err := h.svc.Compute(tab, "COMA"); err != nil {
		t.Fatalf("valid proxy must allow compute: %v", err)
	}

	// Destroyed delegation: the service must refuse.
	if err := repo.Destroy("nvoportal", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.svc.Compute(tab, "COMA2"); err == nil {
		t.Error("missing credential must refuse the request")
	}

	// A proxy that is already expired must also refuse.
	h2 := newHarness(t, 5, func(c *Config) {
		c.Proxy = func() (myproxy.Proxy, error) {
			return myproxy.Proxy{Subject: "/CN=X", Token: "t",
				Expires: time.Now().Add(-time.Minute)}, nil
		}
	})
	tab2 := h2.inputTable(t)
	if _, _, err := h2.svc.Compute(tab2, "COMA"); err == nil {
		t.Error("expired proxy must refuse the request")
	}
}

func TestRescueRoundsRecoverWorkflow(t *testing.T) {
	// With a moderate failure rate and a tiny per-round retry budget, the
	// first round can fail permanently; rescue rounds recover it.
	h := newHarness(t, 15, func(c *Config) {
		c.FaultsFor = execFaults(0.35)
		c.MaxRetries = 1
		c.RescueRounds = 6
	})
	tab := h.inputTable(t)
	lfn, _, err := h.svc.Compute(tab, "COMA")
	if err != nil {
		t.Fatalf("rescue rounds should carry the workflow through: %v", err)
	}
	res, err := h.svc.ResultTable(lfn)
	if err != nil || res.NumRows() != 15 {
		t.Fatalf("result = %v rows, %v", res, err)
	}
}

func TestBatchFetchEquivalence(t *testing.T) {
	// Batch fetching must produce the same cached images and the same
	// science results as per-galaxy fetching.
	hSingle := newHarness(t, 10, nil)
	hBatch := newHarness(t, 10, func(c *Config) { c.BatchFetch = true })

	tabS := hSingle.inputTable(t)
	tabB := hBatch.inputTable(t)

	lfnS, statsS, err := hSingle.svc.Compute(tabS, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	lfnB, statsB, err := hBatch.svc.Compute(tabB, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if statsB.ImagesFetched != 10 || statsS.ImagesFetched != 10 {
		t.Errorf("fetch counts: single %d batch %d", statsS.ImagesFetched, statsB.ImagesFetched)
	}
	// Cached bytes identical per galaxy.
	for i := 0; i < 10; i++ {
		id := tabS.Cell(i, "id")
		a, err := hSingle.ftp.Store("isi").Get(id + ".fit")
		if err != nil {
			t.Fatal(err)
		}
		b, err := hBatch.ftp.Store("isi").Get(id + ".fit")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: cached bytes differ between single and batch", id)
		}
	}
	// Science results identical.
	resS, err := hSingle.svc.ResultTable(lfnS)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := hBatch.svc.ResultTable(lfnB)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resS.Rows {
		for j := range resS.Rows[i] {
			if resS.Rows[i][j] != resB.Rows[i][j] {
				t.Errorf("result cell (%d,%d) differs: %q vs %q",
					i, j, resS.Rows[i][j], resB.Rows[i][j])
			}
		}
	}
}

func TestBatchFetchFallsBackOnOddAcrefs(t *testing.T) {
	// acrefs that do not match the cutout pattern are fetched singly.
	h := newHarness(t, 4, func(c *Config) { c.BatchFetch = true })
	tab := h.inputTable(t)
	// Rewrite one acref to the equivalent non-standard form.
	odd := strings.Replace(tab.Cell(0, "acref"), "/cutout?id=", "/cutout?extra=1&id=", 1)
	if err := tab.SetCell(0, "acref", odd); err != nil {
		t.Fatal(err)
	}
	_, stats, err := h.svc.Compute(tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if stats.ImagesFetched != 4 {
		t.Errorf("fetched = %d, want 4", stats.ImagesFetched)
	}
}

func TestReplicaFailoverUnderSiteDownCache(t *testing.T) {
	breakers := resilience.NewRegistry(resilience.BreakerConfig{
		FailureThreshold: 2, CooldownRejects: 1 << 20,
	})
	mirrored := func(cfg *Config) {
		cfg.MirrorSite = "mirror"
		cfg.Breakers = breakers
	}
	h := newHarness(t, 10, mirrored)
	// Every transfer sourced at the cache site fails: the site is down for
	// the whole run. Progress requires failing over to the mirror replicas.
	h.ftp.SetInjector(faults.New(7,
		faults.Rule{Name: gridftp.OpTransfer, Site: "isi", Kind: faults.KindSiteDown},
	))
	out, stats, err := h.svc.Compute(h.inputTable(t), "COMA")
	if err != nil {
		t.Fatalf("compute under isi-down: %v", err)
	}
	if stats.Failovers == 0 {
		t.Error("expected at least one replica failover")
	}
	if breakers.TotalOpens() == 0 {
		t.Error("expected the isi/transfer circuit to open")
	}
	faulted, err := h.ftp.Store("isi").Get(out)
	if err != nil {
		t.Fatal(err)
	}

	// A fault-free run with the identical configuration produces the same
	// output bytes: failover is invisible in the science result.
	h2 := newHarness(t, 10, func(cfg *Config) {
		cfg.MirrorSite = "mirror"
		cfg.Breakers = resilience.NewRegistry(resilience.BreakerConfig{
			FailureThreshold: 2, CooldownRejects: 1 << 20,
		})
	})
	out2, stats2, err := h2.svc.Compute(h2.inputTable(t), "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Failovers != 0 {
		t.Errorf("fault-free run performed %d failovers", stats2.Failovers)
	}
	clean, err := h2.ftp.Store("isi").Get(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(faulted, clean) {
		t.Error("failover run's output differs from the fault-free run")
	}
}

// TestInjectedFailuresWidthIndependent: Config.Workers promises the same
// model clock, schedule and output bytes at any width. That must hold under
// probability faults too — the injector draws on the scheduler goroutine, in
// placement order, never inside concurrently running Run bodies.
func TestInjectedFailuresWidthIndependent(t *testing.T) {
	type outcome struct {
		makespan time.Duration
		retries  int
		history  []faults.Fault
		output   []byte
	}
	var first *outcome
	for _, workers := range []int{1, 4, 1, 4} {
		var inj *faults.Injector
		h := newHarness(t, 60, func(c *Config) {
			c.Workers = workers
			c.MaxRetries = 20
			c.FaultsFor = func(_, _ string) *faults.Injector {
				inj = faults.New(5, faults.Rule{Name: condor.OpExec, Kind: faults.KindTransient, Probability: 0.15})
				return inj
			}
		})
		lfn, stats, err := h.svc.Compute(h.inputTable(t), "COMA")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out, err := h.ftp.Store("isi").Get(lfn)
		if err != nil {
			t.Fatal(err)
		}
		got := &outcome{stats.Makespan, stats.Retries, inj.History(), out}
		if got.retries == 0 {
			t.Fatal("the rule injected nothing; the comparison tests nothing")
		}
		if first == nil {
			first = got
			continue
		}
		if got.makespan != first.makespan || got.retries != first.retries {
			t.Errorf("workers=%d: makespan %v retries %d, first run (workers=1) had %v and %d",
				workers, got.makespan, got.retries, first.makespan, first.retries)
		}
		if !reflect.DeepEqual(got.history, first.history) {
			t.Errorf("workers=%d: injector history differs from the first run's", workers)
		}
		if !bytes.Equal(got.output, first.output) {
			t.Errorf("workers=%d: output VOTable differs from the first run's", workers)
		}
	}
}
