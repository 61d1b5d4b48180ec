package pegasus

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/chimera"
	"repro/internal/gridftp"
	"repro/internal/rls"
	"repro/internal/tcat"
	"repro/internal/vdl"
)

// figureWorkflow is the paper's running example: d1: a -> b, d2: b -> c.
func figureWorkflow(t testing.TB) *chimera.Workflow {
	t.Helper()
	cat, err := vdl.Parse(`
TR step( in x, out y ) {}
DV d1->step( x=@{in:"a"}, y=@{out:"b"} );
DV d2->step( x=@{in:"b"}, y=@{out:"c"} );
`)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{"c"}})
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

// basicServices registers "step" at sites A and B, with the raw input a at
// site A.
func basicServices(t testing.TB) (*rls.RLS, *tcat.Catalog) {
	t.Helper()
	r := rls.New()
	if err := r.Register("a", rls.PFN{Site: "A", URL: gridftp.URL("A", "a")}); err != nil {
		t.Fatal(err)
	}
	tc := tcat.New()
	_ = tc.Add(tcat.Entry{Transformation: "step", Site: "A", Path: "/bin/step"})
	_ = tc.Add(tcat.Entry{Transformation: "step", Site: "B", Path: "/grid/step"})
	return r, tc
}

func TestPlanValidation(t *testing.T) {
	wf := figureWorkflow(t)
	r, tc := basicServices(t)
	if _, err := Map(nil, Config{RLS: r, TC: tc}); err == nil {
		t.Error("nil workflow must fail")
	}
	if _, err := Map(wf, Config{}); err == nil {
		t.Error("missing services must fail")
	}
	if _, err := Map(wf, Config{RLS: r, TC: tc, Selection: SelectLeastLoaded}); !errors.Is(err, ErrNoSite) {
		t.Error("least-loaded without slot counts must fail with ErrNoSite")
	}
}

func TestFigure2FullPlan(t *testing.T) {
	// No intermediates cached: both jobs survive.
	wf := figureWorkflow(t)
	r, tc := basicServices(t)
	p, err := Map(wf, Config{RLS: r, TC: tc, Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	if p.Reduced.Len() != 2 || len(p.PrunedJobs) != 0 {
		t.Fatalf("reduced = %v pruned = %v", p.Reduced.Nodes(), p.PrunedJobs)
	}
	// Compute jobs present with sites and executables assigned.
	for _, id := range []string{"d1", "d2"} {
		n, ok := p.Concrete.Node(id)
		if !ok {
			t.Fatalf("missing compute node %s", id)
		}
		if n.Site == "" || n.Executable == "" {
			t.Errorf("%s payload incomplete: %+v", id, n)
		}
	}
	// d1 must precede d2 (directly or via a transfer node).
	order, err := p.Concrete.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos["d1"] >= pos["d2"] {
		t.Error("d1 must come before d2")
	}
}

func TestFigure3Reduction(t *testing.T) {
	// Intermediate b already exists at some location: d1 is pruned and the
	// workflow reduces to d2 alone (Figure 3 of the paper).
	wf := figureWorkflow(t)
	r, tc := basicServices(t)
	if err := r.Register("b", rls.PFN{Site: "A", URL: gridftp.URL("A", "b")}); err != nil {
		t.Fatal(err)
	}
	p, err := Map(wf, Config{RLS: r, TC: tc})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.PrunedJobs) != 1 || p.PrunedJobs[0] != "d1" {
		t.Fatalf("pruned = %v, want [d1]", p.PrunedJobs)
	}
	if p.Reduced.Len() != 1 {
		t.Fatalf("reduced nodes = %v", p.Reduced.Nodes())
	}
	if _, ok := p.Reduced.Node("d2"); !ok {
		t.Error("d2 must survive")
	}
	found := false
	for _, lfn := range p.ReusedLFNs {
		if lfn == "b" {
			found = true
		}
	}
	if !found {
		t.Errorf("reused = %v, want to include b", p.ReusedLFNs)
	}
}

func TestFigure4ConcreteWorkflow(t *testing.T) {
	// The paper's Figure 4: with b cached at A, d2 forced to B, output site
	// U and registration on, the concrete workflow is exactly:
	//   Move b from A to B -> Execute d2 at B -> Move c from B to U
	//   -> Register c in the RLS.
	wf := figureWorkflow(t)
	r := rls.New()
	_ = r.Register("a", rls.PFN{Site: "A", URL: gridftp.URL("A", "a")})
	_ = r.Register("b", rls.PFN{Site: "A", URL: gridftp.URL("A", "b")})
	tc := tcat.New()
	_ = tc.Add(tcat.Entry{Transformation: "step", Site: "B", Path: "/grid/step"}) // only B

	p, err := Map(wf, Config{
		RLS: r, TC: tc,
		OutputSite:      "U",
		RegisterOutputs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.ComputeJobs != 1 || st.TransferNodes != 2 || st.RegisterNodes != 1 {
		t.Fatalf("stats = %+v, want 1 compute, 2 transfers, 1 register\n%s",
			st, p.Concrete.DOT("fig4"))
	}
	order, err := p.Concrete.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("nodes = %v", order)
	}
	// Check the chain semantics.
	stagein, _ := p.Concrete.Node("stagein_b_to_B")
	if stagein == nil {
		t.Fatalf("missing stage-in node; nodes = %v", p.Concrete.Nodes())
	}
	if stagein.SrcURL != gridftp.URL("A", "b") || stagein.DstURL != gridftp.URL("B", "b") {
		t.Errorf("stage-in urls = %+v", stagein)
	}
	stageout, _ := p.Concrete.Node("stageout_c_to_U")
	if stageout == nil {
		t.Fatal("missing stage-out node")
	}
	reg, _ := p.Concrete.Node("reg_c")
	if reg == nil || reg.PFN != gridftp.URL("U", "c") {
		t.Fatalf("register node wrong: %+v", reg)
	}
	for _, e := range [][2]string{
		{"stagein_b_to_B", "d2"},
		{"d2", "stageout_c_to_U"},
		{"stageout_c_to_U", "reg_c"},
	} {
		if !slices.Contains(p.Concrete.Children(e[0]), e[1]) {
			t.Errorf("edge %v missing", e)
		}
	}
}

func TestFullyReducedWorkflowDeliversFromRLS(t *testing.T) {
	// Even c itself is cached: nothing to compute, but delivery to U (and
	// registration of the new U replica) still happens.
	wf := figureWorkflow(t)
	r, tc := basicServices(t)
	_ = r.Register("b", rls.PFN{Site: "A", URL: gridftp.URL("A", "b")})
	_ = r.Register("c", rls.PFN{Site: "B", URL: gridftp.URL("B", "c")})
	p, err := Map(wf, Config{RLS: r, TC: tc, OutputSite: "U", RegisterOutputs: true})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.ComputeJobs != 0 {
		t.Errorf("compute jobs = %d, want 0", st.ComputeJobs)
	}
	if st.TransferNodes != 1 || st.RegisterNodes != 1 {
		t.Errorf("stats = %+v, want one delivery transfer + register", st)
	}
	// Already at U: no transfer at all.
	r2, tc2 := basicServices(t)
	_ = r2.Register("c", rls.PFN{Site: "U", URL: gridftp.URL("U", "c")})
	p2, err := Map(wf, Config{RLS: r2, TC: tc2, OutputSite: "U"})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Concrete.Len() != 0 {
		t.Errorf("nodes = %v, want empty workflow", p2.Concrete.Nodes())
	}
}

func TestNoReduceAblation(t *testing.T) {
	wf := figureWorkflow(t)
	r, tc := basicServices(t)
	_ = r.Register("b", rls.PFN{Site: "A", URL: gridftp.URL("A", "b")})
	p, err := Map(wf, Config{RLS: r, TC: tc, NoReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Reduced.Len() != 2 || len(p.PrunedJobs) != 0 {
		t.Errorf("NoReduce must keep all jobs: %v", p.Reduced.Nodes())
	}
}

func TestInfeasibleWorkflow(t *testing.T) {
	wf := figureWorkflow(t)
	r := rls.New() // input a nowhere to be found
	tc := tcat.New()
	_ = tc.Add(tcat.Entry{Transformation: "step", Site: "A", Path: "/bin/step"})
	_, err := Map(wf, Config{RLS: r, TC: tc})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if !strings.Contains(err.Error(), `"a"`) && !strings.Contains(err.Error(), "[a]") {
		t.Errorf("error should name the missing file: %v", err)
	}
}

func TestNoSiteForTransformation(t *testing.T) {
	wf := figureWorkflow(t)
	r, _ := basicServices(t)
	tc := tcat.New() // empty
	_, err := Map(wf, Config{RLS: r, TC: tc})
	if !errors.Is(err, ErrNoSite) {
		t.Fatalf("want ErrNoSite, got %v", err)
	}
}

func TestSameSitePlacementSkipsTransfers(t *testing.T) {
	// Only site A exists: both jobs run there, input a is already there, so
	// the concrete workflow has no transfer nodes at all.
	wf := figureWorkflow(t)
	r := rls.New()
	_ = r.Register("a", rls.PFN{Site: "A", URL: gridftp.URL("A", "a")})
	tc := tcat.New()
	_ = tc.Add(tcat.Entry{Transformation: "step", Site: "A", Path: "/bin/step"})
	p, err := Map(wf, Config{RLS: r, TC: tc})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.TransferNodes != 0 || st.ComputeJobs != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRoundRobinSelection(t *testing.T) {
	// A fan of independent jobs must spread across both sites.
	cat, err := vdl.Parse(`
TR t( in x, out y ) {}
DV j1->t( x=@{in:"a"}, y=@{out:"o1"} );
DV j2->t( x=@{in:"a"}, y=@{out:"o2"} );
DV j3->t( x=@{in:"a"}, y=@{out:"o3"} );
DV j4->t( x=@{in:"a"}, y=@{out:"o4"} );
`)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{"o1", "o2", "o3", "o4"}})
	if err != nil {
		t.Fatal(err)
	}
	r := rls.New()
	_ = r.Register("a", rls.PFN{Site: "A", URL: gridftp.URL("A", "a")})
	tc := tcat.New()
	_ = tc.Add(tcat.Entry{Transformation: "t", Site: "A", Path: "/bin/t"})
	_ = tc.Add(tcat.Entry{Transformation: "t", Site: "B", Path: "/bin/t"})
	p, err := Map(wf, Config{RLS: r, TC: tc, Selection: SelectRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range p.SiteOf {
		counts[s]++
	}
	if counts["A"] != 2 || counts["B"] != 2 {
		t.Errorf("round robin spread = %v", counts)
	}
}

func TestLeastLoadedSelection(t *testing.T) {
	cat, err := vdl.Parse(`
TR t( in x, out y ) {}
DV j1->t( x=@{in:"a"}, y=@{out:"o1"} );
DV j2->t( x=@{in:"a"}, y=@{out:"o2"} );
DV j3->t( x=@{in:"a"}, y=@{out:"o3"} );
`)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{"o1", "o2", "o3"}})
	if err != nil {
		t.Fatal(err)
	}
	r := rls.New()
	_ = r.Register("a", rls.PFN{Site: "big", URL: gridftp.URL("big", "a")})
	tc := tcat.New()
	_ = tc.Add(tcat.Entry{Transformation: "t", Site: "big", Path: "/bin/t"})
	_ = tc.Add(tcat.Entry{Transformation: "t", Site: "small", Path: "/bin/t"})
	slots := map[string]int{"big": 100, "small": 1}

	p, err := Map(wf, Config{RLS: r, TC: tc, Slots: slots, Selection: SelectLeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range p.SiteOf {
		counts[s]++
	}
	// 3 jobs: big (100 slots) should absorb most; small at most 1.
	if counts["small"] > 1 {
		t.Errorf("least-loaded overloaded the small site: %v", counts)
	}
}

func TestRandomSelectionDeterministicWithSeed(t *testing.T) {
	plan := func(seed int64) map[string]string {
		wf := figureWorkflow(t)
		r, tc := basicServices(t)
		p, err := Map(wf, Config{RLS: r, TC: tc, Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		return p.SiteOf
	}
	a := plan(3)
	b := plan(3)
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("same seed must give same placement: %v vs %v", a, b)
		}
	}
}

func TestSubmitFilesAndDAGFile(t *testing.T) {
	wf := figureWorkflow(t)
	r, tc := basicServices(t)
	_ = r.Register("b", rls.PFN{Site: "A", URL: gridftp.URL("A", "b")})
	p, err := Map(wf, Config{RLS: r, TC: tc, OutputSite: "U", RegisterOutputs: true})
	if err != nil {
		t.Fatal(err)
	}
	subs := p.SubmitFiles()
	if len(subs) != p.Concrete.Len() {
		t.Fatalf("submit files = %d, nodes = %d", len(subs), p.Concrete.Len())
	}
	byNode := map[string]string{}
	for _, s := range subs {
		byNode[s.Node] = s.Text
		if !strings.Contains(s.Text, "queue") || !strings.Contains(s.Text, "universe = globus") {
			t.Errorf("submit file for %s malformed:\n%s", s.Node, s.Text)
		}
	}
	if txt := byNode["d2"]; !strings.Contains(txt, "executable = /") || !strings.Contains(txt, "globusscheduler") {
		t.Errorf("compute submit file:\n%s", txt)
	}
	if txt := byNode["reg_c"]; !strings.Contains(txt, "globus-rls-cli") {
		t.Errorf("register submit file:\n%s", txt)
	}

	dagTxt := p.DAGFile("fig4")
	for _, want := range []string{"JOB d2 d2.submit", "PARENT d2 CHILD"} {
		if !strings.Contains(dagTxt, want) {
			t.Errorf("DAG file missing %q:\n%s", want, dagTxt)
		}
	}
}

// buildGalaxyWorkflow builds the N-galaxy fan + concat workflow with all
// inputs registered at the archive site.
func buildGalaxyWorkflow(t testing.TB, n int) (*chimera.Workflow, *rls.RLS, *tcat.Catalog) {
	var b strings.Builder
	b.WriteString("TR galMorph( in image, out res ) {}\n")
	b.WriteString("TR concat( ")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "in p%d, ", i)
	}
	b.WriteString("out table ) {}\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "DV m%d->galMorph( image=@{in:\"g%d.fit\"}, res=@{out:\"g%d.txt\"} );\n", i, i, i)
	}
	b.WriteString("DV collect->concat( ")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "p%d=@{in:\"g%d.txt\"}, ", i, i)
	}
	b.WriteString("table=@{out:\"cluster.vot\"} );\n")
	cat, err := vdl.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{"cluster.vot"}})
	if err != nil {
		t.Fatal(err)
	}
	r := rls.New()
	for i := 0; i < n; i++ {
		lfn := fmt.Sprintf("g%d.fit", i)
		_ = r.Register(lfn, rls.PFN{Site: "archive", URL: gridftp.URL("archive", lfn)})
	}
	tc := tcat.New()
	for _, site := range []string{"usc", "wisc", "fnal"} {
		_ = tc.Add(tcat.Entry{Transformation: "galMorph", Site: site, Path: "/nvo/galMorph"})
		_ = tc.Add(tcat.Entry{Transformation: "concat", Site: site, Path: "/nvo/concat"})
	}
	return wf, r, tc
}

func TestGalaxyWorkflowPlan(t *testing.T) {
	wf, r, tc := buildGalaxyWorkflow(t, 37)
	p, err := Map(wf, Config{RLS: r, TC: tc, OutputSite: "stsci", RegisterOutputs: true,
		Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.ComputeJobs != 38 {
		t.Errorf("compute jobs = %d, want 38", st.ComputeJobs)
	}
	// Every galaxy image needs staging from the archive (jobs never run at
	// "archive"), so at least 37 stage-ins exist.
	if st.TransferNodes < 37 {
		t.Errorf("transfers = %d, want >= 37", st.TransferNodes)
	}
	// 37 per-galaxy results + 1 final table registered.
	if st.RegisterNodes != 38 {
		t.Errorf("register nodes = %d, want 38", st.RegisterNodes)
	}
	if _, err := p.Concrete.TopoSort(); err != nil {
		t.Fatal(err)
	}
}

func TestSecondRequestFullyPruned(t *testing.T) {
	// After the outputs are registered (as the executed workflow would),
	// re-planning the same request prunes every compute job — the data
	// reuse the paper highlights.
	wf, r, tc := buildGalaxyWorkflow(t, 10)
	for i := 0; i < 10; i++ {
		lfn := fmt.Sprintf("g%d.txt", i)
		_ = r.Register(lfn, rls.PFN{Site: "usc", URL: gridftp.URL("usc", lfn)})
	}
	_ = r.Register("cluster.vot", rls.PFN{Site: "stsci", URL: gridftp.URL("stsci", "cluster.vot")})
	p, err := Map(wf, Config{RLS: r, TC: tc, OutputSite: "stsci"})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.ComputeJobs != 0 || st.TransferNodes != 0 {
		t.Errorf("second request stats = %+v, want all pruned", st)
	}
	if len(p.PrunedJobs) != 11 {
		t.Errorf("pruned = %d, want 11", len(p.PrunedJobs))
	}
}

func BenchmarkPlan561(b *testing.B) {
	wf, r, tc := buildGalaxyWorkflow(b, 561)
	cfg := Config{RLS: r, TC: tc, OutputSite: "stsci", RegisterOutputs: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Rand = rand.New(rand.NewSource(int64(i)))
		if _, err := Map(wf, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanReduction measures the reduction-and-concretization pass at the
// paper's largest cluster size with half the per-galaxy products already
// cached, and reports the catalog cost: one bulk RLS round trip per plan,
// however many LFNs the workflow references.
func BenchmarkPlanReduction(b *testing.B) {
	const n = 561
	wf, r, tc := buildGalaxyWorkflow(b, n)
	for i := 0; i < n/2; i++ {
		lfn := fmt.Sprintf("g%d.txt", i)
		_ = r.Register(lfn, rls.PFN{Site: "usc", URL: gridftp.URL("usc", lfn)})
	}
	cfg := Config{RLS: r, TC: tc}
	var roundTrips, jobs float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Rand = rand.New(rand.NewSource(int64(i)))
		p, err := Map(wf, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// The producers of cached results are pruned; their outputs stage in
		// from the RLS instead.
		if len(p.PrunedJobs) != n/2 {
			b.Fatalf("pruned = %d, want %d", len(p.PrunedJobs), n/2)
		}
		if p.RLSRoundTrips != 1 {
			b.Fatalf("plan cost %d RLS round trips, want 1", p.RLSRoundTrips)
		}
		roundTrips += float64(p.RLSRoundTrips)
		jobs += float64(p.Stats().ComputeJobs)
	}
	b.ReportMetric(roundTrips/float64(b.N), "rls_round_trips")
	b.ReportMetric(jobs/float64(b.N), "jobs_after_reduction")
}

// TestFragmentRule pins appendFragment to the strings.Map rule node ids were
// spelled with, and CompareFragments to bytes.Compare of two fragments, over
// ASCII, multi-byte runes and invalid UTF-8.
func TestFragmentRule(t *testing.T) {
	sanitize := func(lfn string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				return r
			}
			return '_'
		}, lfn)
	}
	names := []string{"", "G1", "G-1", "G_1", "G.1", "g1", "G10", "G1.txt", "galáxia", "gal_xia", "gal.xia",
		"銀河-7", "__-7", "a\xffb", "a_b", "a\xc3", "Z", "~", "G1_", "G"}
	for _, a := range names {
		if got, want := string(appendFragment(nil, a)), sanitize(a); got != want {
			t.Errorf("appendFragment(%q) = %q, strings.Map gives %q", a, got, want)
		}
		for _, b := range names {
			got, want := CompareFragments(a, b), bytes.Compare([]byte(sanitize(a)), []byte(sanitize(b)))
			if (got < 0) != (want < 0) || (got == 0) != (want == 0) {
				t.Errorf("CompareFragments(%q, %q) = %d, want the sign of %d", a, b, got, want)
			}
		}
	}
}
