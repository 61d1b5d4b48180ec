package webservice

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/dagman"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/vdl"
)

// crashFirstLeg kills a workflow after its k-th journal record, once: the
// leg that resumes it in the same process (a Requeue) runs to completion.
func crashFirstLeg(k int) func(tenant, cluster string, sink journal.Sink) journal.Sink {
	st := &sweepTrigger{}
	st.cuts = []*cut{{after: k, fire: st.kill}}
	return st.wrap
}

// TestRequeueResumesCrashedSubmit is the operator recovery path end to end,
// in both plan shapes: a journaled Submit dies mid-flight, the request
// reports failed, Requeue re-admits it and resumes it from its journal, and
// the output is byte-identical to the uninterrupted run's.
func TestRequeueResumesCrashedSubmit(t *testing.T) {
	const nGalaxies = 6
	for _, waveSize := range []int{0, 2} {
		t.Run("WaveSize="+strconv.Itoa(waveSize), func(t *testing.T) {
			base := newHarness(t, nGalaxies, func(c *Config) {
				c.JournalDir = t.TempDir()
				c.WaveSize = waveSize
			})
			if _, _, err := base.svc.Compute(base.inputTable(t), "COMA"); err != nil {
				t.Fatal(err)
			}
			want := base.outputBytes(t, "COMA.vot")

			h := newHarness(t, nGalaxies, func(c *Config) {
				c.JournalDir = t.TempDir()
				c.WaveSize = waveSize
				c.WrapJournal = crashFirstLeg(9)
			})
			id, err := submit(h.svc, h.inputTable(t), "COMA")
			if err != nil {
				t.Fatal(err)
			}
			st := awaitTerminal(t, h.svc, id)
			if st.State != StateFailed {
				t.Fatalf("crash-armed request ended %s (%s), want failed", st.State, st.Message)
			}
			if st.Stats.Galaxies != nGalaxies {
				t.Errorf("crashed leg reports %d galaxies, want %d", st.Stats.Galaxies, nGalaxies)
			}

			if err := h.svc.Requeue(id); err != nil {
				t.Fatal(err)
			}
			st = awaitTerminal(t, h.svc, id)
			if st.State != StateCompleted || st.ResultLFN != "COMA.vot" {
				t.Fatalf("requeued request ended %s (%s), want completed", st.State, st.Message)
			}
			if st.Stats.RestoredNodes == 0 || st.Stats.Galaxies != nGalaxies {
				t.Errorf("requeued leg restored %d nodes, reports %d galaxies; want a journal resume of %d galaxies",
					st.Stats.RestoredNodes, st.Stats.Galaxies, nGalaxies)
			}
			if got := h.outputBytes(t, "COMA.vot"); string(got) != string(want) {
				t.Fatal("requeued output differs from the uninterrupted run")
			}
		})
	}
}

// TestKilledResumeCountsRestoredNodes: a resume leg killed after its k-th
// journal record, all of them restorations, reports k restored nodes. The
// count is folded from the durable restored records as they are appended,
// not taken from DAGMan's report, which a killed leg never gets.
func TestKilledResumeCountsRestoredNodes(t *testing.T) {
	const k = 2
	for _, waveSize := range []int{0, 2} {
		t.Run("WaveSize="+strconv.Itoa(waveSize), func(t *testing.T) {
			trig := &sweepTrigger{}
			trig.cuts = []*cut{{after: 9, fire: trig.kill}}
			dir := t.TempDir()
			h := newHarness(t, 6, func(c *Config) {
				c.JournalDir = dir
				c.WaveSize = waveSize
				c.WrapJournal = trig.wrap
			})
			id, err := submit(h.svc, h.inputTable(t), "COMA")
			if err != nil {
				t.Fatal(err)
			}
			if st := awaitTerminal(t, h.svc, id); st.State != StateFailed {
				t.Fatalf("crash-armed request ended %s (%s), want failed", st.State, st.Message)
			}
			path := filepath.Join(dir, "COMA.journal")
			recs, _, err := journal.Replay(path)
			if err != nil {
				t.Fatal(err)
			}
			if done := len(journal.CompletedNodes(recs)); done < k {
				t.Fatalf("first leg completed %d nodes, want at least %d to restore", done, k)
			}

			trig.mu.Lock()
			trig.cuts = append(trig.cuts, &cut{after: trig.n + k, fire: trig.kill})
			trig.mu.Unlock()
			if err := h.svc.Requeue(id); err != nil {
				t.Fatal(err)
			}
			st := awaitTerminal(t, h.svc, id)
			if st.State != StateFailed {
				t.Fatalf("resume killed at record %d ended %s (%s), want failed", k, st.State, st.Message)
			}
			after, _, err := journal.Replay(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range after[len(recs):] {
				if r.Kind != journal.KindRestored {
					t.Fatalf("resume leg journaled %s before its kill, want only restorations", r.Kind)
				}
			}
			if got := len(after) - len(recs); got != k {
				t.Fatalf("resume leg journaled %d records, want %d", got, k)
			}
			if st.Stats.RestoredNodes != k || st.JobsDone != k {
				t.Errorf("killed resume leg reports %d restored nodes, %d jobs done; want %d",
					st.Stats.RestoredNodes, st.JobsDone, k)
			}
		})
	}
}

// TestRequeueRefusalsAndHTTPMapping covers the requests Requeue must refuse
// and the /requeue status codes: 202 for a failed request, 409 for one that
// is not failed, 404 for an unknown id.
func TestRequeueRefusalsAndHTTPMapping(t *testing.T) {
	h := newHarness(t, 4, func(c *Config) {
		c.JournalDir = t.TempDir()
		c.WrapJournal = crashFirstLeg(5)
	})
	srv := httptest.NewServer(h.svc.Handler())
	defer srv.Close()
	post := func(id string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/requeue?id="+id, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if err := h.svc.Requeue("req-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("requeue of an unknown id = %v, want ErrNotFound", err)
	}
	if code := post("req-999999"); code != http.StatusNotFound {
		t.Errorf("POST /requeue unknown id = %d, want 404", code)
	}

	id, err := submit(h.svc, h.inputTable(t), "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if st := awaitTerminal(t, h.svc, id); st.State != StateFailed {
		t.Fatalf("crash-armed request ended %s (%s), want failed", st.State, st.Message)
	}
	if code := post(id); code != http.StatusAccepted {
		t.Fatalf("POST /requeue failed request = %d, want 202", code)
	}
	if st := awaitTerminal(t, h.svc, id); st.State != StateCompleted {
		t.Fatalf("requeued request ended %s (%s), want completed", st.State, st.Message)
	}
	if err := h.svc.Requeue(id); err == nil || errors.Is(err, ErrNotFound) {
		t.Errorf("requeue of a completed request = %v, want a not-failed refusal", err)
	}
	if code := post(id); code != http.StatusConflict {
		t.Errorf("POST /requeue completed request = %d, want 409", code)
	}

	plain := newHarness(t, 4, nil)
	if err := plain.svc.Requeue(id); err == nil {
		t.Error("requeue without JournalDir must fail")
	}
}

// TestProgressContract pins what progress consumers rely on. A monolithic
// journaled request first reports (0, plan size) once its images are staged
// and the plan is on disk, before DAGMan has done anything: a consumer may
// cancel there and read the .vdl/.dag artifacts. A wave request cannot know
// its size before planning, so it first reports (0, 0).
func TestProgressContract(t *testing.T) {
	type call struct{ done, total int }

	dir := t.TempDir()
	h := newHarness(t, 4, func(c *Config) { c.JournalDir = dir })
	var first *call
	_, _, err := h.svc.ComputeWithProgress(h.inputTable(t), "COMA", func(done, total int) {
		if first != nil {
			return
		}
		first = &call{done, total}
		g, _, err := dagman.ReadDAGFile(filepath.Join(dir, "COMA.dag"))
		if err != nil {
			t.Fatalf("first progress call: .dag not readable: %v", err)
		}
		if *first != (call{0, g.Len()}) {
			t.Errorf("first progress call = %+v, want (0, %d)", *first, g.Len())
		}
		vdlText, err := os.ReadFile(filepath.Join(dir, "COMA.vdl"))
		if err != nil {
			t.Fatalf("first progress call: .vdl not readable: %v", err)
		}
		if _, err := vdl.Parse(string(vdlText)); err != nil {
			t.Errorf("first progress call: .vdl does not parse: %v", err)
		}
		recs, _, err := journal.Replay(filepath.Join(dir, "COMA.journal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Kind != journal.KindBegin {
			t.Errorf("journal at first progress call = %+v, want only the begin record", recs)
		}
		if h.svc.countStagedImages() != 4 {
			t.Errorf("%d images staged at first progress call, want 4", h.svc.countStagedImages())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("progress callback never fired")
	}

	w := newHarness(t, 4, func(c *Config) {
		c.JournalDir = t.TempDir()
		c.WaveSize = 2
	})
	first = nil
	if _, _, err := w.svc.ComputeWithProgress(w.inputTable(t), "COMA", func(done, total int) {
		if first == nil {
			first = &call{done, total}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if first == nil || *first != (call{0, 0}) {
		t.Errorf("first wave progress call = %+v, want (0, 0)", first)
	}
}

// TestStatusStatsAreLive: /status shows where a running request stands. A
// journaled request parked after its k-th journal record is running, and its
// Stats already carry the galaxies admitted and the jobs planned.
func TestStatusStatsAreLive(t *testing.T) {
	const k = 5
	parked, release := make(chan struct{}), make(chan struct{})
	trig := &sweepTrigger{}
	trig.cuts = []*cut{{after: k, fire: func() {
		close(parked)
		<-release
	}}}
	h := newHarness(t, 4, func(c *Config) {
		c.JournalDir = t.TempDir()
		c.WrapJournal = trig.wrap
	})
	srv := httptest.NewServer(h.svc.Handler())
	defer srv.Close()
	tab := h.inputTable(t)
	id, err := submit(h.svc, tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(exploreDeadline):
		t.Fatalf("request never appended %d journal records", k)
	}
	resp, err := http.Get(srv.URL + "/status?id=" + id)
	var st Status
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Stats.Galaxies != tab.NumRows() || st.Stats.ComputeJobs == 0 || st.JobsTotal == 0 {
		t.Errorf("/status of a request parked at record %d = %s, %d/%d jobs, stats %+v; want running with %d galaxies and its plan counted",
			k, st.State, st.JobsDone, st.JobsTotal, st.Stats, tab.NumRows())
	}
	if st := awaitTerminal(t, h.svc, id); st.State != StateCompleted {
		t.Fatalf("released request ended %s (%s)", st.State, st.Message)
	}
}

// TestAccountFoldsEveryField guards the one fold against a RunStats field
// added without its line in RunStats.add: a delta with every field set must
// survive the fold, twice over for the additive ones.
func TestAccountFoldsEveryField(t *testing.T) {
	var d RunStats
	v := reflect.ValueOf(&d).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		default:
			f.SetInt(int64(i + 1))
		}
	}
	var sum RunStats
	sum.add(d)
	if sum != d {
		t.Fatalf("add dropped a field:\ngot  %+v\nwant %+v", sum, d)
	}
	sum.add(d)
	got := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		want := 2 * int64(i+1)
		switch name {
		case "ReusedOutput":
			continue
		case "MaxWaveNodes", "PeakStagedImages": // high-water marks
			want = int64(i + 1)
		}
		if got.Field(i).Int() != want {
			t.Errorf("%s after two deltas of %d = %d, want %d", name, i+1, got.Field(i).Int(), want)
		}
	}
}

// TestFailedLegWritesRescueDAG: a journaled request whose galMorph node fails
// its one attempt (MaxRetries 0) in the first pass and in the rescue round
// leaves <cluster>.rescue.dag holding exactly that node and its never-run
// descendants, with no DONE markers. In wave mode those are the failed wave's
// nodes only: later waves were never planned, so a resubmission must plan them
// as well.
func TestFailedLegWritesRescueDAG(t *testing.T) {
	const broken = "m-COMA-000002"
	for _, tc := range []struct {
		waveSize int
		plan     string
	}{{0, "COMA.dag"}, {2, "COMA.wave*.dag"}} {
		t.Run("WaveSize="+strconv.Itoa(tc.waveSize), func(t *testing.T) {
			dir := t.TempDir()
			h := newHarness(t, 6, func(c *Config) {
				c.JournalDir = dir
				c.WaveSize = tc.waveSize
				c.MaxRetries = 0
				c.RescueRounds = 1
				c.FaultsFor = func(_, _ string) *faults.Injector {
					return faults.New(5, faults.Rule{Name: condor.OpExec, Key: broken, Kind: faults.KindSiteDown})
				}
			})
			if _, _, err := h.svc.Compute(h.inputTable(t), "COMA"); err == nil {
				t.Fatal("a node failing every attempt must fail the request")
			}
			// The failed graph is the plan on disk: the whole request's, or
			// in wave mode the one wave plan not yet removed, the failed
			// wave's.
			plans, err := filepath.Glob(filepath.Join(dir, tc.plan))
			if err != nil || len(plans) != 1 {
				t.Fatalf("plans %v (%v), want one", plans, err)
			}
			plan, _, err := dagman.ReadDAGFile(plans[0])
			if err != nil {
				t.Fatal(err)
			}
			want := []string{broken} // and every node downstream of it
			for i := 0; i < len(want); i++ {
				for _, c := range plan.Children(want[i]) {
					if !slices.Contains(want, c) {
						want = append(want, c)
					}
				}
			}
			slices.Sort(want)
			rescue, done, err := dagman.ReadDAGFile(filepath.Join(dir, "COMA.rescue.dag"))
			if err != nil {
				t.Fatal(err)
			}
			if got := rescue.Nodes(); !slices.Equal(got, want) {
				t.Errorf("rescue DAG nodes %v, want %v", got, want)
			}
			if len(done) != 0 {
				t.Errorf("rescue DAG marks %v done", done)
			}
			if tc.waveSize > 0 && slices.Contains(rescue.Nodes(), "collect-COMA") {
				t.Error("wave rescue DAG holds the collector of a wave that was never planned")
			}
		})
	}
}

// TestZeroRetriesRunsOnce: MaxRetries 0 means no retries, as it does in
// dagman.Options — a node that fails runs once, and the journal holds no
// retried record.
func TestZeroRetriesRunsOnce(t *testing.T) {
	const broken = "m-COMA-000002"
	dir := t.TempDir()
	h := newHarness(t, 6, func(c *Config) {
		c.JournalDir = dir
		c.MaxRetries = 0
		c.FaultsFor = func(_, _ string) *faults.Injector {
			return faults.New(5, faults.Rule{Name: condor.OpExec, Key: broken, Kind: faults.KindSiteDown})
		}
	})
	if _, _, err := h.svc.Compute(h.inputTable(t), "COMA"); err == nil {
		t.Fatal("a failing node with no retries must fail the request")
	}
	recs, _, err := journal.Replay(filepath.Join(dir, "COMA.journal"))
	if err != nil {
		t.Fatal(err)
	}
	submitted := 0
	for _, r := range recs {
		if r.Kind == journal.KindRetried {
			t.Errorf("journal holds %+v, want no retried record", r)
		}
		if r.Kind == journal.KindSubmitted && r.Node == broken {
			submitted++
		}
	}
	if submitted != 1 {
		t.Errorf("%s submitted %d times, want once", broken, submitted)
	}
}
