package webservice

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chimera"
	"repro/internal/gridftp"
	"repro/internal/pegasus"
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
// request. Measured 2.2 per galaxy, with and without -race, since planning
// allocates by the request: names in one buffer per phase, nodes and edges
// from slabs, derivation file lists built once, replica lists in one backing
// (TestPlanPhaseAllocs splits it by phase); the budget is that plus 20%,
// rounded up. It measured 41.7 at 8788e64, with a string allocation per node
// id and URL and a struct per node; 51.1 at 9b4d104, when every node held its
// payload in a string map (one map per concrete node, copied key by key from
// the abstract job's); and 139.2 (144.4 under -race) at 8fbfcb3, when the
// catalog was parsed from rendered VDL text, LFN lists were re-split at every
// use and the graph was two maps per node.
func TestPlanAllocBudget(t *testing.T) {
	const galaxies = 1000
	h, tab := stagedRequest(t, galaxies)
	nodes := planRequest(t, h, tab)
	allocs := testing.AllocsPerRun(5, func() { planRequest(t, h, tab) }) / galaxies
	t.Logf("planning a staged %d-galaxy request (%d concrete nodes): %.2f allocs/galaxy", galaxies, nodes, allocs)
	const budget = 2.6
	if allocs > budget {
		t.Errorf("planning allocates %.1f times per galaxy; budget is %.1f", allocs, budget)
	}
}

// TestPlanPhaseAllocs gates each phase of planning a staged 1,000-galaxy
// request on its own, in allocations per galaxy, so a regression names its
// phase: the catalog (table -> derivations -> vdl.Catalog), chimera.Compose,
// pegasus.Map (its RLS BulkLookup included) and the first Prime of a
// service's replica cache with the plan's snapshot. Each budget is the
// measured figure plus 20%, rounded up to a tenth: catalog 2.05, compose
// 0.02, map 0.07, prime 1.02, with and without -race (exact figures in the
// log). The catalog's two are the bindings map of each galMorph derivation;
// the first Prime copies each name new to the cache (priming names the cache
// already holds, as every later plan of the request does, copies none).
func TestPlanPhaseAllocs(t *testing.T) {
	const galaxies = 1000
	h, tab := stagedRequest(t, galaxies)
	dvs, err := newDerivations(tab, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := dvs.catalog()
	if err != nil {
		t.Fatal(err)
	}
	req := chimera.Request{LFNs: []string{outputLFN("COMA")}}
	wf, err := chimera.Compose(cat, req)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := h.svc.planConfig()
	mapOnce := func() *pegasus.Plan {
		pcfg.Rand = rand.New(rand.NewSource(1))
		plan, err := pegasus.Map(wf, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	plan := mapOnce()
	for _, phase := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"catalog", 2.5, func() {
			if _, err := dvs.catalog(); err != nil {
				t.Fatal(err)
			}
		}},
		{"compose", 0.1, func() {
			if _, err := chimera.Compose(cat, req); err != nil {
				t.Fatal(err)
			}
		}},
		{"map", 0.1, func() { mapOnce() }},
		{"prime", 1.3, func() { rls.NewCache(h.r).Prime(plan.Replicas) }},
	} {
		allocs := testing.AllocsPerRun(5, phase.run) / galaxies
		t.Logf("%-7s %.3f allocs/galaxy (budget %.1f)", phase.name, allocs, phase.budget)
		if allocs > phase.budget {
			t.Errorf("planning phase %s allocates %.2f times per galaxy; budget is %.1f", phase.name, allocs, phase.budget)
		}
	}
}

// planWaves plans every wave of a staged request the way a wave leg does —
// its wave source, its planner, then WavePlanner.Plan for each wave at
// WaveSize 100 — and returns the allocations per galaxy of runs such passes.
// The collector wave plans once the leaf waves' results are registered at
// the collector site, so the results are registered between the leaf waves'
// measurement and its own, and unregistered after.
func planWaves(tb testing.TB, h *harness, tab *votable.Table, runs int) float64 {
	tb.Helper()
	dvs, err := newDerivations(tab, "COMA")
	if err != nil {
		tb.Fatal(err)
	}
	var planner *pegasus.WavePlanner
	leaves := testing.AllocsPerRun(runs, func() {
		planner, err = pegasus.NewWavePlanner(waveSourceFor(dvs.refs, "COMA"), h.svc.planConfig(), 100, 1)
		if err != nil {
			tb.Fatal(err)
		}
		for w := 0; w < planner.LeafWaves(); w++ {
			if _, err := planner.Plan(w); err != nil {
				tb.Fatal(err)
			}
		}
	})
	site := planner.CollectorSite()
	pfns := make([]rls.PFN, len(dvs.refs))
	for i, r := range dvs.refs {
		pfns[i] = rls.PFN{Site: site, URL: gridftp.URL(site, r.id+".txt")}
		if err := h.r.Register(r.id+".txt", pfns[i]); err != nil {
			tb.Fatal(err)
		}
	}
	collector := testing.AllocsPerRun(runs, func() {
		if _, err := planner.Plan(planner.LeafWaves()); err != nil {
			tb.Fatal(err)
		}
	})
	for i, r := range dvs.refs {
		if err := h.r.Unregister(r.id+".txt", pfns[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return (leaves + collector) / float64(len(dvs.refs))
}

// TestWavePlanAllocBudget gates the survey-scale path's planning: every wave
// of a staged 1,000-galaxy request at WaveSize 100, through WavePlanner.Plan
// and so through the same mapPinned as a monolithic plan. Measured 0.7
// allocations per galaxy, with and without -race — nearly all of it each
// wave's fixed cost — and the budget is that plus 20%, rounded up.
func TestWavePlanAllocBudget(t *testing.T) {
	const galaxies = 1000
	h, tab := stagedRequest(t, galaxies)
	allocs := planWaves(t, h, tab, 5)
	t.Logf("planning every wave of a staged %d-galaxy request at WaveSize 100: %.2f allocs/galaxy", galaxies, allocs)
	const budget = 0.9
	if allocs > budget {
		t.Errorf("wave planning allocates %.1f times per galaxy; budget is %.1f", allocs, budget)
	}
}

// TestPlanAllocsFlat pins planning as linear in the request, in counts rather
// than clocks: allocations per galaxy of planRequest on staged 1k-, 4k- and
// 16k-galaxy requests (16k skipped under -short) stay within 5% of each other,
// and so do those of planning every wave of staged 1k- and 4k-galaxy requests.
// A term that grows faster than the galaxy count, like the quadratic once in
// Catalog.AddDerivation, shows up here as a rising per-galaxy figure.
func TestPlanAllocsFlat(t *testing.T) {
	sizes := []int{1000, 4000, 16000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	flat := func(mode string, sizes []int, perGalaxy func(galaxies int) float64) {
		t.Helper()
		got := make([]float64, len(sizes))
		for i, galaxies := range sizes {
			got[i] = perGalaxy(galaxies)
		}
		t.Logf("%s: allocs/galaxy at %v galaxies: %.3f", mode, sizes, got)
		if lo, hi := slices.Min(got), slices.Max(got); hi > 1.05*lo {
			t.Errorf("%s: allocations per galaxy vary %.2f..%.2f across %v galaxies; want within 5%%", mode, lo, hi, sizes)
		}
	}
	flat("monolithic", sizes, func(galaxies int) float64 {
		h, tab := stagedRequest(t, galaxies)
		return testing.AllocsPerRun(2, func() { planRequest(t, h, tab) }) / float64(galaxies)
	})
	// A fresh wave leg builds the request's catalog, as a monolithic one
	// does, and then plans every wave. Without the catalog the count is
	// one plan's fixed cost per 100 galaxies plus the collector wave's once
	// a request, which is flat only to 6%.
	flat("wave", []int{1000, 4000}, func(galaxies int) float64 {
		h, tab := stagedRequest(t, galaxies)
		dvs, err := newDerivations(tab, "COMA")
		if err != nil {
			t.Fatal(err)
		}
		catalog := testing.AllocsPerRun(2, func() {
			if _, err := dvs.catalog(); err != nil {
				t.Fatal(err)
			}
		})
		return catalog/float64(galaxies) + planWaves(t, h, tab, 2)
	})
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
