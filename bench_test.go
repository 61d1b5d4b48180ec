// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation, plus the ablations DESIGN.md calls out. Each
// benchmark prints (or metrics-reports) the quantities the corresponding
// paper artifact shows; EXPERIMENTS.md records paper-vs-measured.
//
// Run everything with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/chimera"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/faults"
	"repro/internal/gridftp"
	"repro/internal/mds"
	"repro/internal/morphology"
	"repro/internal/pegasus"
	"repro/internal/rls"
	"repro/internal/services"
	"repro/internal/skysim"
	"repro/internal/tcat"
	"repro/internal/vdl"
	"repro/internal/wcs"
)

// --- E1: Table 1 — data services -------------------------------------------

// BenchmarkTable1ConeSearch measures the Cone Search data operation that
// backs every catalog query in Table 1's collections.
func BenchmarkTable1ConeSearch(b *testing.B) {
	cl := skysim.Generate(skysim.Spec{Name: "COMA", Center: wcs.New(195, 28),
		Redshift: 0.023, NumGalaxies: 561, Seed: 1})
	arch := services.NewArchive("mast", cl)
	pos := cl.Center
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := arch.ConeSearch(pos, 0.4); t.NumRows() == 0 {
			b.Fatal("empty cone")
		}
	}
}

// BenchmarkTable1SIAQuery measures the SIA cutout query — the per-galaxy
// image interface the paper identifies as the application bottleneck.
func BenchmarkTable1SIAQuery(b *testing.B) {
	cl := skysim.Generate(skysim.Spec{Name: "COMA", Center: wcs.New(195, 28),
		Redshift: 0.023, NumGalaxies: 561, Seed: 1})
	arch := services.NewArchive("mast", cl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := arch.SIAQueryCutouts(cl.Center, 0.8); t.NumRows() == 0 {
			b.Fatal("empty SIA response")
		}
	}
}

// --- E2: Figures 1/3/4 — composition, reduction, concretization ------------

// galaxyVDL builds the N-galaxy derivation catalog the web service generates.
func galaxyVDL(b *testing.B, n int) *vdl.Catalog {
	b.Helper()
	var sb strings.Builder
	sb.WriteString("TR galMorph( in image, out res ) {}\nTR concat( ")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "in p%d, ", i)
	}
	sb.WriteString("out table ) {}\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "DV m%d->galMorph( image=@{in:\"g%d.fit\"}, res=@{out:\"g%d.txt\"} );\n", i, i, i)
	}
	sb.WriteString("DV collect->concat( ")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "p%d=@{in:\"g%d.txt\"}, ", i, i)
	}
	sb.WriteString("table=@{out:\"out.vot\"} );\n")
	cat, err := vdl.Parse(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	return cat
}

func planningServices(b *testing.B, n, cachedResults int) (*rls.RLS, *tcat.Catalog) {
	b.Helper()
	r := rls.New()
	for i := 0; i < n; i++ {
		lfn := fmt.Sprintf("g%d.fit", i)
		if err := r.Register(lfn, rls.PFN{Site: "archive", URL: gridftp.URL("archive", lfn)}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < cachedResults; i++ {
		lfn := fmt.Sprintf("g%d.txt", i)
		if err := r.Register(lfn, rls.PFN{Site: "usc", URL: gridftp.URL("usc", lfn)}); err != nil {
			b.Fatal(err)
		}
	}
	tc := tcat.New()
	for _, site := range []string{"usc", "wisc", "fnal"} {
		_ = tc.Add(tcat.Entry{Transformation: "galMorph", Site: site, Path: "/nvo/galMorph"})
		_ = tc.Add(tcat.Entry{Transformation: "concat", Site: site, Path: "/nvo/concat"})
	}
	return r, tc
}

// BenchmarkFigure1Compose measures Chimera's abstract-workflow composition
// at the paper's largest cluster size.
func BenchmarkFigure1Compose(b *testing.B) {
	cat := galaxyVDL(b, 561)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{"out.vot"}})
		if err != nil || wf.Graph.Len() != 562 {
			b.Fatalf("wf=%v err=%v", wf, err)
		}
	}
}

// BenchmarkFigure4Plan measures the full Pegasus pipeline: reduction,
// feasibility, site selection, transfer/register insertion.
func BenchmarkFigure4Plan(b *testing.B) {
	cat := galaxyVDL(b, 561)
	wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{"out.vot"}})
	if err != nil {
		b.Fatal(err)
	}
	r, tc := planningServices(b, 561, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pegasus.Map(wf, pegasus.Config{
			RLS: r, TC: tc, Rand: rand.New(rand.NewSource(int64(i))),
			OutputSite: "stsci", RegisterOutputs: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st := p.Stats(); st.ComputeJobs != 562 {
			b.Fatalf("stats=%+v", st)
		}
	}
}

// --- E3: Figure 2 — end-to-end plan+execute pipeline ------------------------

// BenchmarkFigure2PlanAndExecute runs compose -> plan -> DAGMan/Condor
// execution (with no-op job bodies) for one 561-galaxy cluster: the control
// path of the whole Figure 2 diagram.
func BenchmarkFigure2PlanAndExecute(b *testing.B) {
	cat := galaxyVDL(b, 561)
	wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{"out.vot"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, tc := planningServices(b, 561, 0)
		b.StartTimer()
		p, err := pegasus.Map(wf, pegasus.Config{
			RLS: r, TC: tc, Rand: rand.New(rand.NewSource(int64(i))),
		})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := condor.NewSimulator(core.DefaultPools()...)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := dagman.Execute(p.Concrete, func(n *dagNode, attempt int) (dagman.Spec, error) {
			return dagman.Spec{Cost: 4 * time.Second}, nil
		}, sim, dagman.Options{})
		if err != nil || !rep.Succeeded() {
			b.Fatalf("rep=%+v err=%v", rep, err)
		}
	}
}

// --- E4/E5: Figures 5 & 6 — portal flow and web service ---------------------

// BenchmarkFigure5PortalAnalyze measures the complete user-visible analysis
// of a small cluster, including image rendering and morphology measurement.
func BenchmarkFigure5PortalAnalyze(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := newBenchTestbed(b, 25, 0)
		b.StartTimer()
		if _, err := tb.Portal.Analyze("BENCH"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6CachedRequest measures the web service answering a repeat
// request purely from the RLS (Figure 6 step 2) — the virtual-data payoff.
func BenchmarkFigure6CachedRequest(b *testing.B) {
	tb := newBenchTestbed(b, 25, 0)
	cat, err := tb.Portal.BuildCatalog("BENCH")
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := tb.Compute.Compute(cat, "BENCH"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := tb.Compute.Compute(cat, "BENCH")
		if err != nil || !stats.ReusedOutput {
			b.Fatalf("stats=%+v err=%v", stats, err)
		}
	}
}

// --- E6: Figure 7 — the science payload -------------------------------------

// BenchmarkFigure7Morphology measures one galMorph computation on a typical
// rendered cutout.
func BenchmarkFigure7Morphology(b *testing.B) {
	cl := skysim.Generate(skysim.Spec{Name: "M", NumGalaxies: 10, Seed: 3, Redshift: 0.03})
	im := skysim.RenderGalaxy(cl.Galaxies[0], 0, 1)
	cfg := morphology.DefaultConfig(0.03)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := morphology.Measure(im, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: §5 campaign ---------------------------------------------------------

// BenchmarkCampaignCluster runs one mid-size cluster (the paper's per-cluster
// unit of work) end to end through the Grid.
func BenchmarkCampaignCluster(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := newBenchTestbed(b, 112, 0) // A0754's galaxy count
		b.StartTimer()
		run, err := core.RunCluster(tb, "BENCH")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.ComputeJobs), "jobs")
		b.ReportMetric(float64(run.FilesStaged), "transfers")
		b.ReportMetric(float64(run.BytesStaged), "bytes_staged")
		b.ReportMetric(run.Makespan.Seconds(), "model_makespan_s")
	}
}

// --- A1: reduction ablation ---------------------------------------------------

// BenchmarkAblationReduction compares planning+execution with half the
// per-galaxy products cached, reduction on vs off. The jobs metric shows the
// work the virtual-data reuse removes.
func BenchmarkAblationReduction(b *testing.B) {
	const n = 200
	for _, mode := range []struct {
		name     string
		noReduce bool
	}{{"reduce", false}, {"noreduce", true}} {
		b.Run(mode.name, func(b *testing.B) {
			// The final table is not cached, but half the per-galaxy
			// results are.
			cat := galaxyVDL(b, n)
			wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{"out.vot"}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var jobs, makespan float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r, tc := planningServices(b, n, n/2)
				b.StartTimer()
				p, err := pegasus.Map(wf, pegasus.Config{
					RLS: r, TC: tc, NoReduce: mode.noReduce,
					Rand: rand.New(rand.NewSource(int64(i))),
				})
				if err != nil {
					b.Fatal(err)
				}
				sim, err := condor.NewSimulator(core.DefaultPools()...)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := dagman.Execute(p.Concrete, func(nd *dagNode, attempt int) (dagman.Spec, error) {
					if nd.Type == pegasus.NodeCompute {
						return dagman.Spec{Cost: 4 * time.Second}, nil
					}
					return dagman.Spec{Cost: 200 * time.Millisecond}, nil
				}, sim, dagman.Options{})
				if err != nil || !rep.Succeeded() {
					b.Fatalf("rep=%+v err=%v", rep, err)
				}
				jobs += float64(p.Stats().ComputeJobs)
				makespan += rep.Makespan.Seconds()
			}
			b.ReportMetric(jobs/float64(b.N), "jobs")
			b.ReportMetric(makespan/float64(b.N), "model_makespan_s")
		})
	}
}

// --- A2: data-caching ablation -----------------------------------------------

// BenchmarkAblationCaching contrasts the first (SIA-fetch) and second
// (GridFTP-cache) requests for the same cluster under a fresh service.
func BenchmarkAblationCaching(b *testing.B) {
	b.Run("cold_sia", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tb := newBenchTestbed(b, 20, 0)
			cat, err := tb.Portal.BuildCatalog("BENCH")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := tb.Compute.Compute(cat, "BENCH"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm_gridftp", func(b *testing.B) {
		tb := newBenchTestbed(b, 20, 0)
		cat, err := tb.Portal.BuildCatalog("BENCH")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := tb.Compute.Compute(cat, "BENCH"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Distinct cluster names defeat the whole-output cache but the
			// per-image and per-result caches stay hot.
			_, stats, err := tb.Compute.Compute(cat, fmt.Sprintf("BENCH%d", i))
			if err != nil || stats.ImagesFetched != 0 {
				b.Fatalf("stats=%+v err=%v", stats, err)
			}
		}
	})
}

// --- A3: site-selection ablation ----------------------------------------------

// BenchmarkAblationSiteSelection compares makespans under random vs
// least-loaded placement on pools of very different sizes.
func BenchmarkAblationSiteSelection(b *testing.B) {
	const n = 300
	pools := []condor.Pool{
		{Name: "big", Slots: 48},
		{Name: "small", Slots: 4},
	}
	for _, mode := range []struct {
		name string
		sel  pegasus.SiteSelection
	}{{"random", pegasus.SelectRandom}, {"leastloaded", pegasus.SelectLeastLoaded}} {
		b.Run(mode.name, func(b *testing.B) {
			cat := galaxyVDL(b, n)
			wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{"out.vot"}})
			if err != nil {
				b.Fatal(err)
			}
			var makespan float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := rls.New()
				for j := 0; j < n; j++ {
					lfn := fmt.Sprintf("g%d.fit", j)
					_ = r.Register(lfn, rls.PFN{Site: "archive", URL: gridftp.URL("archive", lfn)})
				}
				tc := tcat.New()
				m := mds.New()
				for _, pl := range pools {
					_ = tc.Add(tcat.Entry{Transformation: "galMorph", Site: pl.Name, Path: "/x"})
					_ = tc.Add(tcat.Entry{Transformation: "concat", Site: pl.Name, Path: "/x"})
					_ = m.Register(mds.SiteInfo{Name: pl.Name, Slots: pl.Slots})
				}
				b.StartTimer()
				p, err := pegasus.Map(wf, pegasus.Config{
					RLS: r, TC: tc, MDS: m, Selection: mode.sel,
					Rand: rand.New(rand.NewSource(int64(i))),
				})
				if err != nil {
					b.Fatal(err)
				}
				sim, err := condor.NewSimulator(pools...)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := dagman.Execute(p.Concrete, func(nd *dagNode, attempt int) (dagman.Spec, error) {
					site := nd.Attr(pegasus.AttrSite)
					if nd.Type == pegasus.NodeCompute {
						return dagman.Spec{Site: site, Cost: 4 * time.Second}, nil
					}
					return dagman.Spec{Cost: 100 * time.Millisecond}, nil
				}, sim, dagman.Options{})
				if err != nil || !rep.Succeeded() {
					b.Fatalf("rep=%+v err=%v", rep, err)
				}
				makespan += rep.Makespan.Seconds()
			}
			b.ReportMetric(makespan/float64(b.N), "model_makespan_s")
		})
	}
}

// --- A4: fault-tolerance ablation ----------------------------------------------

// BenchmarkAblationFaults measures a faulty cluster run under the paper's
// validity-flag design (the strict alternative fails outright, so only the
// adopted design is benchmarkable end to end; TestStrictFaultsAblation covers
// the contrast).
func BenchmarkAblationFaults(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := newBenchTestbed(b, 30, 0.1)
		b.StartTimer()
		run, err := core.RunCluster(tb, "BENCH")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(run.InvalidRows), "invalid_rows")
	}
}

// --- helpers -----------------------------------------------------------------

// dagNode aliases the workflow node type for the inline runners above.
type dagNode = dag.Node

func newBenchTestbed(b *testing.B, galaxies int, failureRate float64) *core.Testbed {
	return newBenchTestbedWorkers(b, galaxies, failureRate, 0)
}

func newBenchTestbedWorkers(b *testing.B, galaxies int, failureRate float64, workers int) *core.Testbed {
	b.Helper()
	var inj *faults.Injector
	if failureRate > 0 {
		inj = faults.New(5, faults.Rule{Name: condor.OpExec, Kind: faults.KindTransient, Probability: failureRate})
	}
	tb, err := core.NewTestbed(core.Config{
		ClusterSpecs: []skysim.Spec{{
			Name: "BENCH", Center: wcs.New(150, 2), Redshift: 0.04,
			NumGalaxies: galaxies, Seed: 77,
		}},
		Seed:    5,
		Faults:  inj,
		Workers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tb
}

// --- P1: parallel leaf-job execution -------------------------------------------

// BenchmarkParallelLeafJobs measures one cluster's compute request as the
// side-effect worker pool widens. The discrete-event clock and the science
// output are identical at every width (TestParallelWorkersProduceByteIdentical-
// Tables); only wall-clock changes, and only when real cores exist —
// single-CPU machines serialize the workers.
func BenchmarkParallelLeafJobs(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tb := newBenchTestbedWorkers(b, 60, 0, w)
				cat, err := tb.Portal.BuildCatalog("BENCH")
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := tb.Compute.Compute(cat, "BENCH"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- P2: virtual-data memoization ----------------------------------------------

// BenchmarkWarmCacheRequest contrasts a cold compute request with a repeat
// request whose derived result files have been reclaimed: the galMorph nodes
// all re-run, but every measurement is served from the content-keyed
// derived-data cache instead of being recomputed.
func BenchmarkWarmCacheRequest(b *testing.B) {
	const galaxies = 40
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tb := newBenchTestbed(b, galaxies, 0)
			cat, err := tb.Portal.BuildCatalog("BENCH")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := tb.Compute.Compute(cat, "BENCH"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm_memoized", func(b *testing.B) {
		tb := newBenchTestbed(b, galaxies, 0)
		cat, err := tb.Portal.BuildCatalog("BENCH")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := tb.Compute.Compute(cat, "BENCH"); err != nil {
			b.Fatal(err)
		}
		evict := func() {
			for i := 0; i < cat.NumRows(); i++ {
				lfn := cat.Cell(i, "id") + ".txt"
				for _, pfn := range tb.RLS.Lookup(lfn) {
					_ = tb.RLS.Unregister(lfn, pfn)
					if site, path, err := gridftp.ParseURL(pfn.URL); err == nil {
						_ = tb.FTP.Store(site).Delete(path)
					}
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			evict()
			b.StartTimer()
			_, stats, err := tb.Compute.Compute(cat, fmt.Sprintf("BENCH-W%d", i))
			if err != nil || stats.MemoHits != galaxies || stats.MemoMisses != 0 {
				b.Fatalf("stats=%+v err=%v", stats, err)
			}
		}
	})
}

// --- A5: pool-scaling ablation ------------------------------------------------

// BenchmarkPoolScaling measures the campaign's largest workflow's makespan
// as Condor pools are added — the capacity argument for the paper's
// three-pool deployment.
func BenchmarkPoolScaling(b *testing.B) {
	configs := []struct {
		name  string
		pools []condor.Pool
	}{
		{"usc20", []condor.Pool{{Name: "usc", Slots: 20}}},
		{"usc20_wisc30", []condor.Pool{{Name: "usc", Slots: 20}, {Name: "wisc", Slots: 30}}},
		{"usc20_wisc30_fnal20", core.DefaultPools()},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			var makespan float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := dag.New()
				if err := g.AddNode(&dag.Node{ID: "concat", Type: "compute"}); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 561; j++ {
					id := fmt.Sprintf("m%d", j)
					_ = g.AddNode(&dag.Node{ID: id, Type: "compute"})
					_ = g.AddEdge(id, "concat")
				}
				sim, err := condor.NewSimulator(cfg.pools...)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := dagman.Execute(g, func(n *dagNode, attempt int) (dagman.Spec, error) {
					return dagman.Spec{Cost: 4 * time.Second}, nil
				}, sim, dagman.Options{})
				if err != nil || !rep.Succeeded() {
					b.Fatalf("rep=%+v err=%v", rep, err)
				}
				makespan += rep.Makespan.Seconds()
			}
			b.ReportMetric(makespan/float64(b.N), "model_makespan_s")
		})
	}
}

// --- A6: batched-cutout ablation ------------------------------------------------

// BenchmarkAblationBatchSIA contrasts the paper's one-request-per-galaxy SIA
// image collection with the batched cutout interface it proposes ("sped up
// tremendously if one could query for all images at once"). Measures the
// image-collection phase only (outputs cached per iteration name).
func BenchmarkAblationBatchSIA(b *testing.B) {
	for _, mode := range []struct {
		name  string
		batch bool
	}{{"per_galaxy", false}, {"batched", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tb, err := core.NewTestbed(core.Config{
					ClusterSpecs: []skysim.Spec{{
						Name: "BENCH", Center: wcs.New(150, 2), Redshift: 0.04,
						NumGalaxies: 60, Seed: 77,
					}},
					Seed:       5,
					BatchFetch: mode.batch,
				})
				if err != nil {
					b.Fatal(err)
				}
				cat, err := tb.Portal.BuildCatalog("BENCH")
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				_, stats, err := tb.Compute.Compute(cat, "BENCH")
				if err != nil || stats.ImagesFetched != 60 {
					b.Fatalf("stats=%+v err=%v", stats, err)
				}
				b.ReportMetric(float64(stats.SIARequests), "sia_requests")
				b.ReportMetric(stats.SIAModelTime.Seconds(), "sia_model_s")
			}
		})
	}
}
