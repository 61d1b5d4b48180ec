package webservice

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/dagman"
	"repro/internal/journal"
	"repro/internal/vdl"
)

// crashFirstLeg arms the kill switch on a workflow's first leg only, so the
// leg that resumes it in the same process (a Requeue) runs to completion.
func crashFirstLeg(k int) func(tenant, cluster string, sink journal.Sink) journal.Sink {
	var legs atomic.Int32
	return func(_, _ string, sink journal.Sink) journal.Sink {
		if legs.Add(1) > 1 {
			return sink
		}
		return &journal.CrashSink{Sink: sink, After: k}
	}
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

// TestAccountFoldsEveryField guards the one accounting door against a
// RunStats field added without its line in account: a delta with every field
// set must survive the fold, twice over for the additive ones.
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
	l := &leg{}
	l.account(d)
	if got := l.snapshot(); got != d {
		t.Fatalf("account dropped a field:\ngot  %+v\nwant %+v", got, d)
	}
	l.account(d)
	got := reflect.ValueOf(l.snapshot())
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
