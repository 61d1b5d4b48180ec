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
// request. Measured 0.17 per galaxy, with and without -race, since planning
// allocates by the request: names in one buffer per phase, the galMorph
// derivations one table, nodes and edges from slabs, derivation file lists
// built once, replica lists in one backing (TestPlanPhaseAllocs splits it by
// phase); the budget is that plus 20%, rounded up to a hundredth. It measured 2.16
// at 5503c64, when every galMorph derivation held its actuals in a map of its
// own; 41.7 at 8788e64, with a string allocation per node
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
	t.Logf("planning a staged %d-galaxy request (%d concrete nodes): %.3f allocs/galaxy", galaxies, nodes, allocs)
	const budget = 0.21
	if allocs > budget {
		t.Errorf("planning allocates %.3f times per galaxy; budget is %g", allocs, budget)
	}
}

// TestPlanPhaseAllocs gates each phase of planning a staged 1,000-galaxy
// request on its own, in allocations per galaxy, so a regression names its
// phase: the catalog (table -> derivations -> vdl.Catalog), chimera.Compose,
// pegasus.Map (its RLS BulkLookup included) and the first Prime of a
// service's replica cache with the plan's snapshot. Each budget is the
// measured figure plus 20%, rounded up to a tenth (the catalog's to a
// hundredth): catalog 0.053, compose 0.02, map 0.07, prime 1.02, with and
// without -race (exact figures in the log). The catalog allocates by the
// request — its galMorph derivations are one table and one slab; it read 2.05
// while each held a bindings map. The first Prime copies each name new to the
// cache (priming names the cache already holds, as every later plan of the
// request does, copies none).
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
		{"catalog", 0.07, func() {
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
		t.Logf("%-7s %.3f allocs/galaxy (budget %g)", phase.name, allocs, phase.budget)
		if allocs > phase.budget {
			t.Errorf("planning phase %s allocates %.3f times per galaxy; budget is %g", phase.name, allocs, phase.budget)
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
// than clocks: the marginal allocations per galaxy — the rise in a request's
// allocations from one size to the next, over the galaxies added — of
// planRequest on staged 1k-, 4k- and 16k-galaxy requests (1k, 4k and 8k under
// -short), and of a fresh wave leg on staged 1k-, 2k- and 4k-galaxy requests,
// stay within 5% of each other. Each count is the mean of ten plans: a map's
// table splits depend on its random hash seed, so one plan's count varies by
// a few allocations. A term that grows faster than the galaxy
// count, like the quadratic once in Catalog.AddDerivation, shows up here as a
// rising marginal figure. The request's fixed cost cancels out of the
// difference: now that planning allocates by the request it outweighs the
// per-galaxy term, and the average per galaxy falls with size (0.17 at 1k,
// 0.065 at 16k), which a flat average could not tell from a fixed cost.
func TestPlanAllocsFlat(t *testing.T) {
	sizes := []int{1000, 4000, 16000}
	if testing.Short() {
		sizes = []int{1000, 4000, 8000}
	}
	flat := func(mode string, sizes []int, perRequest func(galaxies int) float64) {
		t.Helper()
		allocs := make([]float64, len(sizes))
		for i, galaxies := range sizes {
			allocs[i] = perRequest(galaxies)
		}
		marginal := make([]float64, len(sizes)-1)
		for i := range marginal {
			marginal[i] = (allocs[i+1] - allocs[i]) / float64(sizes[i+1]-sizes[i])
		}
		t.Logf("%s: allocs a request at %v galaxies: %.0f; marginal allocs/galaxy: %.4f", mode, sizes, allocs, marginal)
		if lo, hi := slices.Min(marginal), slices.Max(marginal); hi > 1.05*lo {
			t.Errorf("%s: marginal allocations per galaxy vary %.4f..%.4f across %v galaxies; want within 5%%", mode, lo, hi, sizes)
		}
	}
	flat("monolithic", sizes, func(galaxies int) float64 {
		h, tab := stagedRequest(t, galaxies)
		return testing.AllocsPerRun(10, func() { planRequest(t, h, tab) })
	})
	// A fresh wave leg builds the request's catalog, as a monolithic one
	// does, and then plans every wave.
	flat("wave", []int{1000, 2000, 4000}, func(galaxies int) float64 {
		h, tab := stagedRequest(t, galaxies)
		dvs, err := newDerivations(tab, "COMA")
		if err != nil {
			t.Fatal(err)
		}
		catalog := testing.AllocsPerRun(10, func() {
			if _, err := dvs.catalog(); err != nil {
				t.Fatal(err)
			}
		})
		return catalog + planWaves(t, h, tab, 10)*float64(galaxies)
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
