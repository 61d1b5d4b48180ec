package webservice

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/pegasus"
	"repro/internal/tcat"
	"repro/internal/votable"
)

// throughputConfig turns on every planner and scheduler optimization a
// service sets itself: locality selection, clustering and the submission
// overhead. Its transfer lanes belong to the fabric: the caller builds that
// over throughputPools.
func throughputConfig(c *Config) {
	c.Selection = pegasus.SelectLocality
	c.ClusterSize = 16
	c.SchedOverhead = 500 * time.Millisecond
}

// throughputPools is gridPools with two transfer slots on each pool, the
// data-movement lanes throughputConfig's requests run with.
func throughputPools() []condor.Pool {
	pools := gridPools()
	for i := range pools {
		pools[i].TransferSlots = 2
	}
	return pools
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

	opt := newHarness(t, n, func(c *Config) {
		throughputConfig(c)
		c.Fabric = permissiveFabric(throughputPools())
	})
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

// withComputeAtCache adds the cache site to the compute fabric, so the
// locality policy has a site where the input replicas already live.
func withComputeAtCache(c *Config) {
	for _, tr := range []string{"galMorph", "concatVOT"} {
		_ = c.TC.Add(tcat.Entry{Transformation: tr, Site: "isi", Path: "/nvo/bin/" + tr})
	}
	c.Fabric = permissiveFabric(append(c.Fabric.Pools(), condor.Pool{Name: "isi", Slots: 8}))
}

// TestLocalityReducesStagedBytes: when the cache site can compute, locality
// selection runs cutouts where their images already live and moves fewer
// bytes than the paper's random placement.
func TestLocalityReducesStagedBytes(t *testing.T) {
	const n = 16
	run := func(sel pegasus.SiteSelection) RunStats {
		h := newHarness(t, n, func(c *Config) {
			withComputeAtCache(c)
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

// TestLeastLoadedPlansOverFabricPools: a least-loaded request completes,
// its result table is byte-identical to random's and locality's, and its
// plan spreads jobs by the Fabric's slot counts. On pools fnal/1, usc/1 and
// wisc/64, the collector and the first two galaxies fill fnal, usc and wisc
// in name order; every later job finds wisc least loaded.
func TestLeastLoadedPlansOverFabricPools(t *testing.T) {
	const n = 12
	pools := []condor.Pool{{Name: "usc", Slots: 1}, {Name: "wisc", Slots: 64}, {Name: "fnal", Slots: 1}}
	run := func(sel pegasus.SiteSelection) ([]byte, string) {
		dir := t.TempDir()
		h := newHarness(t, n, func(c *Config) {
			c.Selection, c.JournalDir = sel, dir
			c.Fabric = permissiveFabric(pools)
		})
		lfn, _, err := h.svc.Compute(h.inputTable(t), "COMA")
		if err != nil {
			t.Fatal(err)
		}
		dagText, err := os.ReadFile(filepath.Join(dir, "COMA.dag"))
		if err != nil {
			t.Fatal(err)
		}
		return h.outputBytes(t, lfn), string(dagText)
	}
	got, dagText := run(pegasus.SelectLeastLoaded)
	jobsAt, compute := map[string]int{}, map[string]bool{}
	for _, line := range strings.Split(dagText, "\n") {
		switch f := strings.Fields(line); {
		case len(f) == 3 && f[0] == "NODE" && f[2] == `"compute"`:
			compute[f[1]] = true
		case len(f) == 4 && f[0] == "ATTR" && f[2] == `"site"` && compute[f[1]]:
			jobsAt[strings.Trim(f[3], `"`)]++
		}
	}
	if want := map[string]int{"fnal": 1, "usc": 1, "wisc": n - 1}; !maps.Equal(jobsAt, want) {
		t.Errorf("least-loaded compute jobs per site = %v, want %v", jobsAt, want)
	}
	for _, sel := range []pegasus.SiteSelection{pegasus.SelectRandom, pegasus.SelectLocality} {
		if want, _ := run(sel); !bytes.Equal(got, want) {
			t.Errorf("least-loaded result table differs from selection %d's", sel)
		}
	}
}

// foldPublished folds the Stats of the n requests SubmitFor published.
func foldPublished(t *testing.T, svc *Service, n int) RunStats {
	t.Helper()
	var sum RunStats
	for i := 1; i <= n; i++ {
		st, err := svc.Status(fmt.Sprintf("req-%06d", i))
		if err != nil {
			t.Fatal(err)
		}
		sum.add(st.Stats)
	}
	return sum
}

// TestStatsEndpointAndPprof: /stats exposes the service-level throughput
// counters, and the pprof endpoints mount only when configured.
func TestStatsEndpointAndPprof(t *testing.T) {
	h := newHarness(t, 6, func(c *Config) {
		throughputConfig(c)
		c.Fabric, c.EnablePprof = permissiveFabric(throughputPools()), true
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
	if stats.Totals.ScheduleEvents == 0 || stats.Totals.ClusteredTasks == 0 {
		t.Errorf("stats missing scheduler accounting: %+v", stats)
	}
	if stats.Totals.MemoMisses == 0 {
		t.Errorf("stats missing memo accounting: %+v", stats)
	}
	if want := foldPublished(t, h.svc, stats.Requests); stats.Totals != want {
		t.Errorf("Totals = %+v, want the fold of every request's Stats %+v", stats.Totals, want)
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
