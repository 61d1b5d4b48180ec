package webservice

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/journal"
	"repro/internal/pegasus"
	"repro/internal/tcat"
	"repro/internal/votable"
)

// throughputConfig turns on every PR 4 planner/scheduler optimization.
func throughputConfig(c *Config) {
	c.Selection = pegasus.SelectLocality
	c.ClusterSize = 16
	c.SchedOverhead = 500 * time.Millisecond
	c.TransferSlots = 2
}

// TestComputeIsSingleRLSRoundTripPerPlan: planning an end-to-end request
// costs exactly one RLS read round trip, however many galaxies it carries.
func TestComputeIsSingleRLSRoundTripPerPlan(t *testing.T) {
	h := newHarness(t, 12, nil)
	tab := h.inputTable(t)
	_, stats, err := h.svc.Compute(tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if stats.RLSRoundTrips != 1 {
		t.Errorf("planning cost %d RLS round trips, want 1", stats.RLSRoundTrips)
	}
}

// TestThroughputOutputByteIdentical is the tentpole's correctness gate: the
// fully optimized pipeline — locality selection, clustering, transfer lanes,
// submission overhead — produces a VOTable byte-identical to the paper's
// serial unclustered configuration.
func TestThroughputOutputByteIdentical(t *testing.T) {
	const n = 10
	base := newHarness(t, n, nil)
	want, _, err := base.svc.Compute(base.inputTable(t), "COMA")
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := base.outputBytes(t, want)

	opt := newHarness(t, n, throughputConfig)
	got, stats, err := opt.svc.Compute(opt.inputTable(t), "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("output LFN %q != %q", got, want)
	}
	if string(opt.outputBytes(t, got)) != string(wantBytes) {
		t.Fatal("optimized pipeline changed the output VOTable bytes")
	}
	if stats.ClusteredTasks == 0 || stats.ClusteredNodes == 0 {
		t.Errorf("optimized run clustered nothing: %+v", stats)
	}
}

// TestClusteringReducesScheduleEventsAndMakespan: under the serialized
// Condor-G submission model, every step of the batching sweep (1, 4, 16 jobs
// per task) must cut both the number of scheduler events and the model-clock
// makespan.
func TestClusteringReducesScheduleEventsAndMakespan(t *testing.T) {
	const n = 32
	run := func(clusterSize int) RunStats {
		h := newHarness(t, n, func(c *Config) {
			c.ClusterSize = clusterSize
			c.SchedOverhead = time.Second
		})
		_, stats, err := h.svc.Compute(h.inputTable(t), "COMA")
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	prev := run(1)
	if prev.ClusteredTasks != 0 {
		t.Errorf("serial run reported %d clustered tasks", prev.ClusteredTasks)
	}
	for _, size := range []int{4, 16} {
		cur := run(size)
		if cur.ScheduleEvents >= prev.ScheduleEvents {
			t.Errorf("cluster size %d used %d schedule events, the step before %d — no reduction",
				size, cur.ScheduleEvents, prev.ScheduleEvents)
		}
		if cur.Makespan >= prev.Makespan {
			t.Errorf("cluster size %d makespan %v >= %v the step before — overhead not amortized",
				size, cur.Makespan, prev.Makespan)
		}
		prev = cur
	}
}

// withComputeAtCacheSite adds the cache site to the compute fabric, so the
// locality policy has a site where the input replicas already live.
func withComputeAtCacheSite(c *Config) {
	for _, tr := range []string{"galMorph", "concatVOT"} {
		_ = c.TC.Add(tcat.Entry{Transformation: tr, Site: "isi", Path: "/nvo/bin/" + tr})
	}
	c.Pools = append(c.Pools, condor.Pool{Name: "isi", Slots: 8})
}

// TestLocalityReducesStagedBytes: when the cache site can compute, locality
// selection runs cutouts where their images already live and moves fewer
// bytes than the paper's random placement.
func TestLocalityReducesStagedBytes(t *testing.T) {
	const n = 16
	run := func(sel pegasus.SiteSelection) RunStats {
		h := newHarness(t, n, func(c *Config) {
			withComputeAtCacheSite(c)
			c.Selection = sel
		})
		_, stats, err := h.svc.Compute(h.inputTable(t), "COMA")
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	random := run(pegasus.SelectRandom)
	local := run(pegasus.SelectLocality)
	if local.BytesStaged >= random.BytesStaged {
		t.Errorf("locality staged %d bytes, random %d — no reduction",
			local.BytesStaged, random.BytesStaged)
	}
	if local.PlannedBytesMoved >= random.PlannedBytesMoved {
		t.Errorf("locality planned %d bytes moved, random %d — no reduction",
			local.PlannedBytesMoved, random.PlannedBytesMoved)
	}
	if local.TransferNodes >= random.TransferNodes {
		t.Errorf("locality plan has %d transfer nodes, random %d",
			local.TransferNodes, random.TransferNodes)
	}
}

// TestStatsEndpointAndPprof: /stats exposes the service-level throughput
// counters, and the pprof endpoints mount only when configured.
func TestStatsEndpointAndPprof(t *testing.T) {
	h := newHarness(t, 6, func(c *Config) {
		throughputConfig(c)
		c.EnablePprof = true
	})
	srv := httptest.NewServer(h.svc.Handler())
	t.Cleanup(srv.Close)

	var buf bytes.Buffer
	if err := votable.WriteTable(&buf, h.inputTable(t)); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/galmorph?cluster=COMA", "text/xml", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := h.svc.Status("req-000001")
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateCompleted {
			break
		}
		if st.State == StateFailed {
			t.Fatalf("request failed: %s", st.Message)
		}
		if time.Now().After(deadline) {
			t.Fatal("request did not complete in time")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err = srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Requests != 1 || stats.Completed != 1 {
		t.Errorf("stats = %+v, want 1 completed request", stats)
	}
	if stats.RLSRoundTrips < 1 {
		t.Error("stats missing RLS round-trip accounting")
	}
	if stats.ScheduleEvents == 0 || stats.ClusteredTasks == 0 {
		t.Errorf("stats missing scheduler accounting: %+v", stats)
	}
	if stats.MemoMisses == 0 {
		t.Errorf("stats missing memo accounting: %+v", stats)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d with EnablePprof", resp.StatusCode)
	}

	// Without the knob the profiling surface stays unmounted.
	plain := newHarness(t, 2, nil)
	srv2 := httptest.NewServer(plain.svc.Handler())
	t.Cleanup(srv2.Close)
	resp, err = srv2.Client().Get(srv2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof mounted without EnablePprof")
	}
}

// TestClusteredKillAndResumeByteIdentity re-runs the crash-recovery sweep
// with clustering and the throughput knobs on: per-inner-node journaling
// must keep every kill point resumable to the exact same bytes.
func TestClusteredKillAndResumeByteIdentity(t *testing.T) {
	const nGalaxies = 4

	// Uninterrupted clustered run gives the reference bytes (equal to the
	// serial ones by TestThroughputOutputByteIdentical).
	baseDir := t.TempDir()
	base := newHarness(t, nGalaxies, func(c *Config) {
		throughputConfig(c)
		c.JournalDir = baseDir
	})
	if _, _, err := base.svc.Compute(base.inputTable(t), "COMA"); err != nil {
		t.Fatal(err)
	}
	want := base.outputBytes(t, "COMA.vot")
	recs, _, err := journal.Replay(filepath.Join(baseDir, "COMA.journal"))
	if err != nil {
		t.Fatal(err)
	}
	events := len(recs) - 2
	if events < 10 {
		t.Fatalf("workflow too small for a sweep: %d events", events)
	}

	for k := 1; k < events; k++ {
		dir := t.TempDir()
		h := newHarness(t, nGalaxies, func(c *Config) {
			throughputConfig(c)
			c.JournalDir = dir
			c.WrapJournal = crashAfter(k)
		})
		if _, _, err := h.svc.Compute(h.inputTable(t), "COMA"); !errors.Is(err, journal.ErrCrash) {
			t.Fatalf("kill point %d: crash did not fire: %v", k, err)
		}
		svc2, err := h.svc.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := resume(svc2, "COMA"); err != nil {
			t.Fatalf("kill point %d: resume: %v", k, err)
		}
		if got := h.outputBytes(t, "COMA.vot"); string(got) != string(want) {
			t.Fatalf("kill point %d: clustered resume changed the output bytes", k)
		}
		// No node the journal recorded as completed may re-run.
		after, _, err := journal.Replay(filepath.Join(dir, "COMA.journal"))
		if err != nil {
			t.Fatal(err)
		}
		doneAt := map[string]bool{}
		for i, r := range after {
			if r.Kind == journal.KindSubmitted && doneAt[r.Node] {
				t.Fatalf("kill point %d: completed node %s re-submitted (record %d)", k, r.Node, i)
			}
			if r.Kind == journal.KindCompleted || r.Kind == journal.KindRestored {
				doneAt[r.Node] = true
			}
		}
	}
}
