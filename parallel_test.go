package repro

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gridftp"
	"repro/internal/skysim"
	"repro/internal/wcs"
)

// parallelTestbed wires a resilient testbed with the given side-effect
// concurrency. Everything except Workers and the injector is held fixed so
// serial and parallel runs are comparable byte for byte.
func parallelTestbed(t *testing.T, clusters, workers int, inj *faults.Injector) *core.Testbed {
	t.Helper()
	tb, err := core.NewTestbed(core.Config{
		ClusterSpecs: chaosSpecs(clusters),
		Seed:         7,
		Resilience:   true,
		MirrorSite:   "mirror",
		Faults:       inj,
		Workers:      workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestParallelWorkersProduceByteIdenticalTables is the determinism contract
// of the worker pool: the same seed must yield byte-identical result
// VOTables — and identical model makespans, since only side effects
// parallelize, never the discrete-event clock — at any worker count.
func TestParallelWorkersProduceByteIdenticalTables(t *testing.T) {
	serial, err := core.RunCampaign(parallelTestbed(t, 4, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := renderTables(t, serial)

	for _, w := range []int{2, 8} {
		rep, err := core.RunCampaign(parallelTestbed(t, 4, w, nil))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := renderTables(t, rep)
		for name, wb := range want {
			if !bytes.Equal(got[name], wb) {
				t.Errorf("workers=%d: %s result table differs from serial run", w, name)
			}
		}
		for i := range serial.Clusters {
			s, p := serial.Clusters[i], rep.Clusters[i]
			if s.Makespan != p.Makespan {
				t.Errorf("workers=%d: %s model makespan %v != serial %v",
					w, s.Cluster, p.Makespan, s.Makespan)
			}
			if s.FilesStaged != p.FilesStaged || s.BytesStaged != p.BytesStaged {
				t.Errorf("workers=%d: %s staging accounting (%d files, %d bytes) != serial (%d, %d)",
					w, s.Cluster, p.FilesStaged, p.BytesStaged, s.FilesStaged, s.BytesStaged)
			}
		}
	}
}

// TestParallelWorkersByteIdenticalUnderFaults injects the recoverable chaos
// schedule into a parallel run and requires the science output to still
// match the fault-free serial run byte for byte: faults shuffle retries and
// failovers, never results.
func TestParallelWorkersByteIdenticalUnderFaults(t *testing.T) {
	clean, err := core.RunCampaign(parallelTestbed(t, 2, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := renderTables(t, clean)

	inj := recoverableSchedule()
	faulted, err := core.RunCampaign(parallelTestbed(t, 2, 8, inj))
	if err != nil {
		t.Fatalf("recoverable faults must not fail the parallel campaign: %v", err)
	}
	if inj.Injected() == 0 {
		t.Fatal("schedule injected no faults; the parallel chaos run tested nothing")
	}
	got := renderTables(t, faulted)
	for name, wb := range want {
		if !bytes.Equal(got[name], wb) {
			t.Errorf("%s: faulted parallel table differs from fault-free serial table", name)
		}
	}
}

// TestWarmMemoRequestSkipsRecompute exercises the virtual-data memoization.
// A plain repeat request is already served by RLS-level reduction (the
// per-galaxy result LFNs stay registered, so Pegasus prunes every galMorph
// node). The memo covers the regeneration case: the derived .txt files are
// reclaimed from storage, so a repeat request must re-run every galMorph
// node — but each measurement comes out of the content-keyed cache instead
// of being recomputed, and the fresh result files are re-registered through
// the normal register nodes.
func TestWarmMemoRequestSkipsRecompute(t *testing.T) {
	tb, err := core.NewTestbed(core.Config{
		ClusterSpecs: []skysim.Spec{{
			Name: "MEMO", Center: wcs.New(150, 2), Redshift: 0.04,
			NumGalaxies: 20, Seed: 77,
		}},
		Seed:    5,
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := tb.Portal.BuildCatalog("MEMO")
	if err != nil {
		t.Fatal(err)
	}

	coldLFN, coldStats, err := tb.Compute.Compute(cat, "MEMO")
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.MemoHits != 0 || coldStats.MemoMisses == 0 {
		t.Fatalf("cold run: MemoHits=%d MemoMisses=%d, want 0 hits and >0 misses",
			coldStats.MemoHits, coldStats.MemoMisses)
	}

	// Reclaim the derived result files: unregister every replica and delete
	// the underlying bytes, as a storage sweep would.
	for i := 0; i < cat.NumRows(); i++ {
		lfn := cat.Cell(i, "id") + ".txt"
		for _, pfn := range tb.RLS.Lookup(lfn) {
			if err := tb.RLS.Unregister(lfn, pfn); err != nil {
				t.Fatal(err)
			}
			site, path, err := gridftp.ParseURL(pfn.URL)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.FTP.Store(site).Delete(path); err != nil {
				t.Fatal(err)
			}
		}
	}

	warmLFN, warmStats, err := tb.Compute.Compute(cat, "MEMO-AGAIN")
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.MemoMisses != 0 {
		t.Errorf("warm run recomputed %d measurements, want 0", warmStats.MemoMisses)
	}
	if warmStats.MemoHits != 20 {
		t.Errorf("warm run MemoHits=%d, want 20 (one per galaxy)", warmStats.MemoHits)
	}

	coldTab, err := tb.Compute.ResultTable(coldLFN)
	if err != nil {
		t.Fatal(err)
	}
	warmTab, err := tb.Compute.ResultTable(warmLFN)
	if err != nil {
		t.Fatal(err)
	}
	if coldTab.NumRows() != warmTab.NumRows() {
		t.Fatalf("rows: cold %d, warm %d", coldTab.NumRows(), warmTab.NumRows())
	}
	for r := 0; r < coldTab.NumRows(); r++ {
		for c := range coldTab.Fields {
			if coldTab.Rows[r][c] != warmTab.Rows[r][c] {
				t.Errorf("row %d col %d: cold %v != warm %v",
					r, c, coldTab.Rows[r][c], warmTab.Rows[r][c])
			}
		}
	}
}
