package webservice

import (
	"testing"

	"repro/internal/gridftp"
	"repro/internal/rls"
	"repro/internal/votable"
)

// stagedRequest is a harness whose RLS already lists every galaxy image at
// the cache site, and the request table for all of them: what planning sees on
// a staged request. Planning reads replica locations, never bytes, so no image
// is rendered.
func stagedRequest(tb testing.TB, galaxies int) (*harness, *votable.Table) {
	tb.Helper()
	h := newHarness(tb, galaxies, nil)
	tab := votable.NewTable("in",
		votable.Field{Name: "id", Datatype: votable.TypeChar},
		votable.Field{Name: "acref", Datatype: votable.TypeChar},
		votable.Field{Name: "z", Datatype: votable.TypeDouble},
	)
	for _, g := range h.cluster.Galaxies {
		if err := tab.AppendRow(g.ID, "http://archive.test/cutout?id="+g.ID, votable.FormatFloat(g.Redshift)); err != nil {
			tb.Fatal(err)
		}
		lfn := g.ID + ".fit"
		if err := h.r.Register(lfn, rls.PFN{Site: "isi", URL: gridftp.URL("isi", lfn)}); err != nil {
			tb.Fatal(err)
		}
	}
	return h, tab
}

// planRequest is everything a fresh monolithic leg does before DAGMan's first
// event: table -> derivations -> catalog -> abstract DAG -> concrete DAG.
func planRequest(tb testing.TB, h *harness, tab *votable.Table) int {
	dvs, err := newDerivations(tab, "COMA")
	if err != nil {
		tb.Fatal(err)
	}
	l := h.svc.newLeg(DefaultTenant, "COMA", 0, nil)
	if _, err := l.freshSource(dvs); err != nil {
		tb.Fatal(err)
	}
	if st := l.snapshot(); st.ImagesFetched != 0 || st.ComputeJobs != tab.NumRows()+1 {
		tb.Fatalf("not a staged plan of the whole table: %+v", st)
	}
	return l.total
}

// TestPlanAllocBudget gates planning the way TestHotPathAllocBudget gates the
// kernel: allocations per galaxy of planRequest on a staged 1,000-galaxy
// request. Measured 51.1 per galaxy, with and without -race; the budget is
// that plus 20%. The same call measured 139.2 per galaxy (144.4 under -race)
// at 8fbfcb3, when the catalog was parsed from rendered VDL text, LFN lists
// were re-split at every use and the graph was two maps per node.
func TestPlanAllocBudget(t *testing.T) {
	const galaxies = 1000
	h, tab := stagedRequest(t, galaxies)
	nodes := planRequest(t, h, tab)
	allocs := testing.AllocsPerRun(5, func() { planRequest(t, h, tab) }) / galaxies
	t.Logf("planning a staged %d-galaxy request (%d concrete nodes): %.1f allocs/galaxy", galaxies, nodes, allocs)
	const budget = 61
	if allocs > budget {
		t.Errorf("planning allocates %.1f times per galaxy; budget is %d", allocs, budget)
	}
}

// BenchmarkPlanRequest times the same call; `make hotbench` runs it at a fixed
// iteration count beside the kernel's benchmarks.
func BenchmarkPlanRequest(b *testing.B) {
	h, tab := stagedRequest(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planRequest(b, h, tab)
	}
}
