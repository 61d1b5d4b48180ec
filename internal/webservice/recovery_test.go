package webservice

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/dagman"
	"repro/internal/faults"
	"repro/internal/gridftp"
	"repro/internal/journal"
	"repro/internal/myproxy"
	"repro/internal/rls"
	"repro/internal/vdl"
	"repro/internal/votable"
)

// outputBytes reads the raw result VOTable from the cache store — the bytes
// whose identity the recovery design guarantees.
func (h *harness) outputBytes(t *testing.T, lfn string) []byte {
	t.Helper()
	data, err := h.ftp.Store("isi").Get(lfn)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// journaledRun computes the cluster with journaling on (in waves of waveSize
// galaxies, when > 0) and returns the output bytes plus the replayed journal.
func journaledRun(t *testing.T, nGalaxies, waveSize int) ([]byte, []journal.Record, *harness) {
	t.Helper()
	dir := t.TempDir()
	h := newHarness(t, nGalaxies, func(c *Config) {
		c.JournalDir = dir
		c.WaveSize = waveSize
	})
	tab := h.inputTable(t)
	if _, _, err := h.svc.Compute(tab, "COMA"); err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := journal.Replay(filepath.Join(dir, "COMA.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("uninterrupted run left a torn journal")
	}
	return h.outputBytes(t, "COMA.vot"), recs, h
}

func TestJournalBracketsCleanRun(t *testing.T) {
	_, recs, h := journaledRun(t, 4, 0)
	if len(recs) < 4 {
		t.Fatalf("journal too short: %d records", len(recs))
	}
	if recs[0].Kind != journal.KindBegin {
		t.Errorf("first record = %s, want begin", recs[0].Kind)
	}
	if !strings.Contains(recs[0].Detail, "cluster=COMA") {
		t.Errorf("begin detail = %q", recs[0].Detail)
	}
	last := recs[len(recs)-1]
	if last.Kind != journal.KindEnd || !strings.Contains(last.Detail, "COMA.vot") {
		t.Errorf("last record = %+v, want end with output", last)
	}
	// The DAG and VDL artifacts exist and reload to the planned graph.
	g, done, err := dagman.ReadDAGFile(filepath.Join(h.svc.cfg.JournalDir, "COMA.dag"))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Errorf("plan-time DAG has %d done markers", len(done))
	}
	submitted := 0
	for _, r := range recs {
		if r.Kind == journal.KindSubmitted {
			submitted++
		}
	}
	if submitted != g.Len() {
		t.Errorf("journal submitted %d nodes, DAG has %d", submitted, g.Len())
	}
}

func TestResumeOfFinishedRunShortCircuits(t *testing.T) {
	want, _, h := journaledRun(t, 3, 0)
	svc2, err := h.svc.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	// Resume is idempotent: the journal's end marker plus the registered
	// output short-circuit re-execution entirely.
	for i := 0; i < 2; i++ {
		out, stats, err := resume(svc2, "COMA")
		if err != nil {
			t.Fatal(err)
		}
		if out != "COMA.vot" || !stats.ReusedOutput {
			t.Errorf("resume %d: out=%q reused=%t", i, out, stats.ReusedOutput)
		}
	}
	if got := h.outputBytes(t, "COMA.vot"); string(got) != string(want) {
		t.Error("short-circuited resume must not touch the output")
	}
}

func TestResumeErrors(t *testing.T) {
	h := newHarness(t, 3, nil)
	if _, _, err := resume(h.svc, "COMA"); err == nil {
		t.Error("resume without JournalDir must fail")
	}
	h2 := newHarness(t, 3, func(c *Config) { c.JournalDir = t.TempDir() })
	if _, _, err := resume(h2.svc, "NEVER-RAN"); err == nil {
		t.Error("resume of an unknown cluster must fail")
	}
	// A cluster name is joined into the journal paths, so one that is not a
	// VDL identifier is refused before the fabric admits anything.
	for _, cluster := range []string{"../x", "a/b"} {
		admitted := h2.svc.Fabric().Snapshot().Admitted
		if _, _, err := resume(h2.svc, cluster); !errors.Is(err, vdl.ErrParse) {
			t.Errorf("resume of cluster %q = %v, want a vdl.ErrParse refusal", cluster, err)
		}
		if got := h2.svc.Fabric().Snapshot().Admitted; got != admitted {
			t.Errorf("resume of cluster %q: fleet admitted %d, want %d", cluster, got, admitted)
		}
	}
}

// TestTransferCorruptionFailsOverToMirror corrupts a cached image at the
// primary site during its staging transfer: the replica must be quarantined,
// the content served from the mirror, the source healed — and the science
// output unchanged.
func TestTransferCorruptionFailsOverToMirror(t *testing.T) {
	// Baseline: identical configuration, no faults.
	h0 := newHarness(t, 4, func(c *Config) { c.MirrorSite = "mirror" })
	tab0 := h0.inputTable(t)
	if _, _, err := h0.svc.Compute(tab0, "COMA"); err != nil {
		t.Fatal(err)
	}
	want := h0.outputBytes(t, "COMA.vot")

	h := newHarness(t, 4, func(c *Config) { c.MirrorSite = "mirror" })
	h.ftp.SetInjector(faults.New(7, faults.Rule{
		Name: gridftp.OpTransfer, Site: "isi", Kind: faults.KindCorruption, MaxFaults: 2,
	}))
	tab := h.inputTable(t)
	_, stats, err := h.svc.Compute(tab, "COMA")
	if err != nil {
		t.Fatalf("corruption must not fail the workflow: %v", err)
	}
	if stats.ChecksumFailures == 0 || stats.Quarantined == 0 {
		t.Errorf("stats = %+v, want checksum failures and quarantines", stats)
	}
	if stats.Failovers == 0 {
		t.Errorf("recovery must have served the mirror replica: %+v", stats)
	}
	if h.r.QuarantinedCount() == 0 {
		t.Error("RLS retains no quarantined replica for audit")
	}
	if got := h.outputBytes(t, "COMA.vot"); string(got) != string(want) {
		t.Error("science output changed under corruption recovery")
	}
	t.Logf("mirror failover: checksumFailures=%d quarantined=%d failovers=%d rederived=%d",
		stats.ChecksumFailures, stats.Quarantined, stats.Failovers, stats.Rederived)
	// Every surviving registered replica verifies — the heal converged.
	for _, lfn := range h.r.LFNs() {
		for _, p := range h.r.Lookup(lfn) {
			site, path, err := gridftp.ParseURL(p.URL)
			if err != nil {
				continue
			}
			if err := h.ftp.Store(site).Verify(path); err != nil {
				t.Errorf("replica %s at %s still damaged after heal: %v", lfn, site, err)
			}
		}
	}
}

// TestFailoverCountAcrossSchedulerAndWorkers drives both writers of
// RunStats.Failovers in one request at Workers 4. Every stage-in's first
// attempt dies on its worker node, so each retry rotates to the file's other
// replica — counted by pickTransferSource on the scheduler goroutine, one
// retry after another in a single scheduling round. The retries that rotate
// onto the primary copy find it damaged at rest and recover from the mirror —
// counted by recoverContent inside worker-pool Run bodies that the same round
// launched. The two must count under one lock. The final count is exact; the
// lost update itself is what -race reports, and only when no incidental lock
// (GridFTP's, the RLS's) happens to order the two increments —
// about nine requests in ten before the fix — hence three fresh requests.
func TestFailoverCountAcrossSchedulerAndWorkers(t *testing.T) {
	const n = 40
	for round := 0; round < 3; round++ {
		h := newHarness(t, n, func(c *Config) {
			c.MirrorSite = "mirror"
			c.Workers = 4
			c.FaultsFor = func(_, _ string) *faults.Injector {
				// The plan's roots are its n stage-ins, so they are the
				// first n tasks placed.
				return faults.New(5, faults.Rule{Name: condor.OpExec, Kind: faults.KindTransient, Until: n})
			}
		})
		tab := h.inputTable(t)
		refs := requestRefs(t, tab)
		if err := h.leg().cacheImageRefs(refs); err != nil {
			t.Fatal(err)
		}
		for _, m := range refs {
			if !h.ftp.Store("isi").Corrupt(m.id + ".fit") {
				t.Fatalf("could not corrupt the primary copy of %s", m.id)
			}
		}
		_, stats, err := h.svc.Compute(tab, "COMA")
		if err != nil {
			t.Fatal(err)
		}
		if stats.Retries != n || stats.Quarantined == 0 || stats.Quarantined != stats.ChecksumFailures {
			t.Fatalf("stats = %+v, want %d retries and every damaged primary that was read quarantined", stats, n)
		}
		// One failover per rotated retry, one more per quarantined primary.
		if want := stats.Retries + stats.Quarantined; stats.Failovers != want {
			t.Errorf("failovers = %d, want %d (%d rotated retries + %d recoveries)",
				stats.Failovers, want, stats.Retries, stats.Quarantined)
		}
	}
}

// TestCorruptIntermediateRederivedFromProvenance damages every registered
// replica of one per-galaxy result file, then re-runs the (reduced) workflow:
// the file must be re-derived from its galaxy image via the Chimera
// provenance, and the output VOTable must be byte-identical.
func TestCorruptIntermediateRederivedFromProvenance(t *testing.T) {
	h := newHarness(t, 4, func(c *Config) { c.JournalDir = t.TempDir() })
	tab := h.inputTable(t)
	if _, _, err := h.svc.Compute(tab, "COMA"); err != nil {
		t.Fatal(err)
	}
	want := h.outputBytes(t, "COMA.vot")

	// Damage every registered replica of the first galaxy's result file.
	victim := tab.Cell(0, "id") + ".txt"
	pfns := h.r.Lookup(victim)
	if len(pfns) == 0 {
		t.Fatalf("%s not registered after the run", victim)
	}
	for _, p := range pfns {
		site, path, err := gridftp.ParseURL(p.URL)
		if err != nil {
			t.Fatal(err)
		}
		if !h.ftp.Store(site).Corrupt(path) {
			t.Fatalf("could not corrupt %s at %s", path, site)
		}
	}
	// Force a re-run: pull the output table from circulation.
	for _, p := range h.r.Lookup("COMA.vot") {
		if err := h.r.Unregister("COMA.vot", p); err != nil {
			t.Fatal(err)
		}
	}

	_, stats, err := h.svc.Compute(tab, "COMA")
	if err != nil {
		t.Fatalf("re-run with corrupted intermediate: %v", err)
	}
	if stats.PrunedJobs == 0 {
		t.Errorf("expected Pegasus to prune completed derivations: %+v", stats)
	}
	if stats.Rederived == 0 {
		t.Errorf("corrupted %s was not re-derived from provenance: %+v", victim, stats)
	}
	if stats.Quarantined == 0 {
		t.Errorf("damaged replicas were not quarantined: %+v", stats)
	}
	if got := h.outputBytes(t, "COMA.vot"); string(got) != string(want) {
		t.Error("re-derived output differs from the original")
	}
	t.Logf("provenance re-derivation: pruned=%d checksumFailures=%d quarantined=%d rederived=%d",
		stats.PrunedJobs, stats.ChecksumFailures, stats.Quarantined, stats.Rederived)
	// The healed result file verifies everywhere it is registered.
	for _, p := range h.r.Lookup(victim) {
		site, path, _ := gridftp.ParseURL(p.URL)
		if err := h.ftp.Store(site).Verify(path); err != nil {
			t.Errorf("%s at %s not healed: %v", victim, site, err)
		}
	}
}

func TestComputeWithContextCanceledBeforeStart(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, func(c *Config) { c.JournalDir = dir })
	tab := h.inputTable(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := h.svc.ComputeWithContext(ctx, tab, "COMA", nil)
	if !errors.Is(err, dagman.ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled compute = %v, want abort wrapping context.Canceled", err)
	}
	recs, _, err := journal.Replay(filepath.Join(dir, "COMA.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[len(recs)-1].Kind != journal.KindAborted {
		t.Fatalf("journal must end with a clean abort record, got %+v", recs)
	}
}

func TestCancelEndpointAbortsRunningRequest(t *testing.T) {
	dir := t.TempDir()
	var gate *clusterGate
	h := newHarness(t, 3, func(c *Config) {
		c.JournalDir = dir
		gate = gateClusters(c, "COMA")
	})
	tab := h.inputTable(t)

	srv := httptest.NewServer(h.svc.Handler())
	defer srv.Close()
	var body strings.Builder
	if err := votable.WriteTable(&body, tab); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/galmorph?cluster=COMA", "text/xml", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	path := readAll(t, resp)
	id := strings.TrimPrefix(path, "/status?id=")

	<-gate.started["COMA"] // the request is now provably mid-flight
	cresp, err := http.Post(srv.URL+"/cancel?id="+id, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("/cancel status = %d", cresp.StatusCode)
	}
	close(gate.release)

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := h.svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateRunning {
			if st.State != StateFailed || !strings.Contains(st.Message, "aborted") {
				t.Fatalf("canceled request state = %s message = %q", st.State, st.Message)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never reached a terminal state after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	recs, _, err := journal.Replay(filepath.Join(dir, "COMA.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[len(recs)-1].Kind != journal.KindAborted {
		t.Fatalf("canceled run's journal must end with an abort record, got %d records", len(recs))
	}

	// Unknown IDs are a 404.
	nresp, err := http.Post(srv.URL+"/cancel?id=req-999999", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("/cancel unknown id status = %d", nresp.StatusCode)
	}
}

// TestResumeWithWallClockExpiredProxy is the regression for the
// time.Now() that used to live in the proxy admission check: a run is
// admitted with a valid credential, crashes mid-flight, and the machine
// stays down long past the credential's lifetime. Resume must not
// re-consult the wall clock — the original admission governs the run —
// and the resumed output must be byte-identical to the uninterrupted
// run's.
func TestResumeWithWallClockExpiredProxy(t *testing.T) {
	const nGalaxies = 4
	want, baseRecs, _ := journaledRun(t, nGalaxies, 0)
	events := len(baseRecs) - 2
	k := events / 2

	// One mutable fake instant drives both the credential repository and
	// the service's admission clock.
	now := time.Date(2004, 6, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	repo := myproxy.NewWithClock(clock)
	if err := repo.Delegate("nvoportal", "pw", "/CN=NVO Portal", time.Hour, time.Hour); err != nil {
		t.Fatal(err)
	}
	var issued myproxy.Proxy
	dir := t.TempDir()
	h := newHarness(t, nGalaxies, func(c *Config) {
		c.JournalDir = dir
		c.WrapJournal = crashAfter(k)
		c.Now = clock
		c.Proxy = func() (myproxy.Proxy, error) {
			p, err := repo.Retrieve("nvoportal", "pw", 30*time.Minute)
			issued = p
			return p, err
		}
	})
	tab := h.inputTable(t)
	if _, _, err := h.svc.Compute(tab, "COMA"); !errors.Is(err, journal.ErrCrash) {
		t.Fatalf("crash did not fire: %v", err)
	}

	// The outage outlives the credential by a wide margin.
	now = now.Add(48 * time.Hour)
	if issued.Valid(now) {
		t.Fatal("test is vacuous: the issued proxy is still valid after the outage")
	}

	svc2, err := h.svc.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := resume(svc2, "COMA")
	if err != nil {
		t.Fatalf("resume with wall-clock-expired proxy: %v", err)
	}
	if out != "COMA.vot" {
		t.Fatalf("resume output %q", out)
	}
	if got := h.outputBytes(t, "COMA.vot"); string(got) != string(want) {
		t.Fatal("resumed output differs from the uninterrupted run")
	}
}

// TestRunStatsIdenticalAcrossWorkerWidths runs one fixed-seed request under
// an integrity-fault schedule at Workers 1 and 4 and requires the whole
// RunStats struct to come out equal. The first leg's stage-ins all die once
// (retries, and the rotation to the mirror counted on the scheduler
// goroutine); the second leg finds three result files damaged on every
// replica (with the primary copy of their images damaged too) and three more
// damaged where the plan reads them but intact at the mirror, so its Run
// bodies count checksum failures, quarantines, failovers and provenance
// re-derivations from the worker pool while the scheduler goroutine counts
// that leg's own retries. Every count goes
// through leg.account, so the width can reorder the deltas but not change
// their fold.
func TestRunStatsIdenticalAcrossWorkerWidths(t *testing.T) {
	const n = 12
	run := func(workers int) (first, second RunStats) {
		h := newHarness(t, n, func(c *Config) {
			c.MirrorSite = "mirror"
			c.Workers = workers
			c.FaultsFor = func(_, _ string) *faults.Injector {
				return faults.New(5, faults.Rule{Name: condor.OpExec, Kind: faults.KindTransient, Until: 4})
			}
		})
		tab := h.inputTable(t)
		_, first, err := h.svc.Compute(tab, "COMA")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			id := tab.Cell(i, "id")
			for _, p := range h.r.Lookup(id + ".txt") {
				site, path, err := gridftp.ParseURL(p.URL)
				if err != nil {
					t.Fatal(err)
				}
				if !h.ftp.Store(site).Corrupt(path) {
					t.Fatalf("could not corrupt %s at %s", path, site)
				}
			}
			if !h.ftp.Store("isi").Corrupt(id + ".fit") {
				t.Fatalf("could not corrupt the primary copy of %s.fit", id)
			}
		}
		// Three more results keep a healthy copy at the mirror, so losing
		// the original is a failover, not a re-derivation.
		for i := 3; i < 6; i++ {
			lfn := tab.Cell(i, "id") + ".txt"
			orig := h.r.Lookup(lfn)
			site, path, err := gridftp.ParseURL(orig[0].URL)
			if err != nil {
				t.Fatal(err)
			}
			data, err := h.ftp.Store(site).Get(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.ftp.Store("mirror").Put(lfn, data); err != nil {
				t.Fatal(err)
			}
			if err := h.r.Register(lfn, rls.PFN{Site: "mirror", URL: gridftp.URL("mirror", lfn)}); err != nil {
				t.Fatal(err)
			}
			if !h.ftp.Store(site).Corrupt(path) {
				t.Fatalf("could not corrupt %s at %s", path, site)
			}
		}
		for _, p := range h.r.Lookup("COMA.vot") {
			if err := h.r.Unregister("COMA.vot", p); err != nil {
				t.Fatal(err)
			}
		}
		_, second, err = h.svc.Compute(tab, "COMA")
		if err != nil {
			t.Fatal(err)
		}
		return first, second
	}
	first1, second1 := run(1)
	first4, second4 := run(4)
	if first1 != first4 {
		t.Errorf("first leg's RunStats differ by worker width:\n1: %+v\n4: %+v", first1, first4)
	}
	if second1 != second4 {
		t.Errorf("second leg's RunStats differ by worker width:\n1: %+v\n4: %+v", second1, second4)
	}
	if first1.Retries == 0 || first1.Failovers == 0 {
		t.Errorf("first leg exercised no scheduler-side counter: %+v", first1)
	}
	s := second1
	if s.Retries == 0 || s.ChecksumFailures == 0 || s.Quarantined == 0 || s.Failovers == 0 || s.Rederived == 0 {
		t.Errorf("second leg must retry, quarantine, fail over and re-derive in one run: %+v", s)
	}
}
