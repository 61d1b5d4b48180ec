package webservice

import (
	"slices"
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
	for _, g := range h.clusters[0].Galaxies {
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
	l := h.leg()
	src, err := l.freshSource(dvs)
	if err != nil {
		tb.Fatal(err)
	}
	if st := l.r.status().Stats; st.ImagesFetched != 0 || st.ComputeJobs != tab.NumRows()+1 {
		tb.Fatalf("not a staged plan of the whole table: %+v", st)
	}
	return src.total
}

// TestPlanAllocBudget gates planning the way TestHotPathAllocBudget gates the
// kernel: allocations per galaxy of planRequest on a staged 1,000-galaxy
// request. Measured 41.7 per galaxy, with and without -race, since plan nodes
// carry a typed payload; the budget is that plus 20%. It measured 51.1 at
// 9b4d104, when every node held its payload in a string map (one map per
// concrete node, copied key by key from the abstract job's), and 139.2 (144.4
// under -race) at 8fbfcb3, when the catalog was parsed from rendered VDL text,
// LFN lists were re-split at every use and the graph was two maps per node.
func TestPlanAllocBudget(t *testing.T) {
	const galaxies = 1000
	h, tab := stagedRequest(t, galaxies)
	nodes := planRequest(t, h, tab)
	allocs := testing.AllocsPerRun(5, func() { planRequest(t, h, tab) }) / galaxies
	t.Logf("planning a staged %d-galaxy request (%d concrete nodes): %.1f allocs/galaxy", galaxies, nodes, allocs)
	const budget = 50
	if allocs > budget {
		t.Errorf("planning allocates %.1f times per galaxy; budget is %d", allocs, budget)
	}
}

// TestPlanAllocsFlat pins planning as linear in the request, in counts rather
// than clocks: allocations per galaxy of planRequest on staged 1k-, 4k- and
// 16k-galaxy requests (16k skipped under -short) stay within 5% of each other.
// A term that grows faster than the galaxy count, like the quadratic once in
// Catalog.AddDerivation, shows up here as a rising per-galaxy figure.
func TestPlanAllocsFlat(t *testing.T) {
	sizes := []int{1000, 4000, 16000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	perGalaxy := make([]float64, len(sizes))
	for i, galaxies := range sizes {
		h, tab := stagedRequest(t, galaxies)
		perGalaxy[i] = testing.AllocsPerRun(2, func() { planRequest(t, h, tab) }) / float64(galaxies)
	}
	t.Logf("allocs/galaxy at %v galaxies: %.1f", sizes, perGalaxy)
	if lo, hi := slices.Min(perGalaxy), slices.Max(perGalaxy); hi > 1.05*lo {
		t.Errorf("allocations per galaxy vary %.1f..%.1f across %v galaxies; want within 5%%", lo, hi, sizes)
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
