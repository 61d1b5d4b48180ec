package pegasus

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/gridftp"
	"repro/internal/rls"
	"repro/internal/tcat"
)

// surveySource mimics the morphology workload: n leaf jobs j<i> turning
// in<i> into out<i>, fanned into a single collector.
func surveySource(n int) WaveSource {
	inputs := make([]string, n)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("out%d", i)
	}
	return WaveSource{
		Jobs: n,
		Job: func(i int) WaveJob {
			return WaveJob{
				ID:             fmt.Sprintf("j%d", i),
				Transformation: "morph",
				Inputs:         []string{fmt.Sprintf("in%d", i)},
				Outputs:        []string{fmt.Sprintf("out%d", i)},
			}
		},
		Collector: WaveJob{
			ID:             "collect",
			Transformation: "concat",
			Inputs:         inputs,
			Outputs:        []string{"final"},
		},
	}
}

// surveyServices registers morph at A and B, concat at B and C, and every
// raw input at A. The collector transformation deliberately does NOT run at
// the output site "home", exercising the fallback collector-site choice.
func surveyServices(t testing.TB, n int) (*rls.RLS, *tcat.Catalog) {
	t.Helper()
	r := rls.New()
	for i := 0; i < n; i++ {
		lfn := fmt.Sprintf("in%d", i)
		if err := r.Register(lfn, rls.PFN{Site: "A", URL: gridftp.URL("A", lfn)}); err != nil {
			t.Fatal(err)
		}
	}
	tc := tcat.New()
	_ = tc.Add(tcat.Entry{Transformation: "morph", Site: "A", Path: "/bin/morph"})
	_ = tc.Add(tcat.Entry{Transformation: "morph", Site: "B", Path: "/bin/morph"})
	_ = tc.Add(tcat.Entry{Transformation: "concat", Site: "C", Path: "/bin/concat"})
	_ = tc.Add(tcat.Entry{Transformation: "concat", Site: "B", Path: "/bin/concat"})
	return r, tc
}

func TestWavePlannerValidation(t *testing.T) {
	r, tc := surveyServices(t, 1)
	src := surveySource(1)
	if _, err := NewWavePlanner(src, Config{}, 4, 1); err == nil {
		t.Error("missing services must fail")
	}
	if _, err := NewWavePlanner(src, Config{RLS: r, TC: tc}, 0, 1); err == nil {
		t.Error("zero wave size must fail")
	}
	if _, err := NewWavePlanner(WaveSource{Jobs: 3}, Config{RLS: r, TC: tc}, 4, 1); err == nil {
		t.Error("jobs without a Job func must fail")
	}
	bad := src
	bad.Collector.Transformation = "nosuch"
	if _, err := NewWavePlanner(bad, Config{RLS: r, TC: tc}, 4, 1); !errors.Is(err, ErrNoSite) {
		t.Errorf("unknown collector transformation = %v, want ErrNoSite", err)
	}
}

func TestWaveMathAndCollectorSite(t *testing.T) {
	r, tc := surveyServices(t, 10)
	p, err := NewWavePlanner(surveySource(10), Config{RLS: r, TC: tc, OutputSite: "home"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.LeafWaves() != 3 || p.Waves() != 4 {
		t.Fatalf("leaf=%d waves=%d, want 3/4", p.LeafWaves(), p.Waves())
	}
	wantBounds := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	for w, wb := range wantBounds {
		lo, hi := p.WaveBounds(w)
		if lo != wb[0] || hi != wb[1] {
			t.Errorf("wave %d bounds = [%d,%d), want %v", w, lo, hi, wb)
		}
	}
	// "home" cannot run concat; the deterministic fallback is the first
	// TC site in sorted order, "B".
	if p.CollectorSite() != "B" {
		t.Errorf("collector site = %q, want fallback B", p.CollectorSite())
	}
	// When the output site can run the collector it wins.
	_ = tc.Add(tcat.Entry{Transformation: "concat", Site: "home", Path: "/bin/concat"})
	p2, err := NewWavePlanner(surveySource(10), Config{RLS: r, TC: tc, OutputSite: "home"}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p2.CollectorSite() != "home" {
		t.Errorf("collector site = %q, want home", p2.CollectorSite())
	}
	if _, err := p.Plan(4); err == nil {
		t.Error("out-of-range wave must fail")
	}
	if _, err := p.Plan(-1); err == nil {
		t.Error("negative wave must fail")
	}
}

// TestLeafWavesBoundedAndCovering verifies the two load-bearing properties
// of leaf planning: every wave's concrete graph is bounded by a constant
// multiple of the wave size regardless of the request size, and the union of
// compute nodes across waves covers every job exactly once.
func TestLeafWavesBoundedAndCovering(t *testing.T) {
	const n, waveSize = 23, 5
	r, tc := surveyServices(t, n)
	p, err := NewWavePlanner(surveySource(n), Config{RLS: r, TC: tc, OutputSite: "home"}, waveSize, 42)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for w := 0; w < p.LeafWaves(); w++ {
		plan, err := p.Plan(w)
		if err != nil {
			t.Fatal(err)
		}
		// 1 compute + <=1 stage-in + <=1 stage-out + <=1 register per job.
		if got, bound := plan.Concrete.Len(), 4*waveSize; got > bound {
			t.Errorf("wave %d: %d concrete nodes > bound %d", w, got, bound)
		}
		for _, id := range plan.Concrete.Nodes() {
			node, _ := plan.Concrete.Node(id)
			if node.Type == NodeCompute {
				seen[id]++
				// Leaf outputs must be delivered to the collector site and
				// registered there, so the collector wave plans no stage-ins.
				if s := plan.SiteOf[id]; s == "" {
					t.Errorf("wave %d: %s has no site", w, id)
				}
			}
			if node.Type == NodeRegister && node.Attr(AttrSite) != p.CollectorSite() {
				t.Errorf("wave %d: %s registers at %q, want collector site %q",
					w, id, node.Attr(AttrSite), p.CollectorSite())
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("united compute nodes = %d, want %d", len(seen), n)
	}
	for id, count := range seen {
		if count != 1 {
			t.Errorf("job %s planned %d times", id, count)
		}
	}
}

// TestLeafWavePlansIndependently pins the per-wave rng property: a wave's
// plan is identical whether or not other waves were planned before it.
func TestLeafWavePlansIndependently(t *testing.T) {
	const n, waveSize = 12, 4
	mk := func() *WavePlanner {
		r, tc := surveyServices(t, n)
		p, err := NewWavePlanner(surveySource(n), Config{RLS: r, TC: tc, OutputSite: "home"}, waveSize, 7)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sequential := mk()
	for w := 0; w < sequential.LeafWaves(); w++ {
		want, err := sequential.Plan(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mk().Plan(w) // fresh planner, no prior waves
		if err != nil {
			t.Fatal(err)
		}
		if len(want.SiteOf) != len(got.SiteOf) {
			t.Fatalf("wave %d: site maps diverge", w)
		}
		for id, site := range want.SiteOf {
			if got.SiteOf[id] != site {
				t.Errorf("wave %d: %s at %q vs %q", w, id, got.SiteOf[id], site)
			}
		}
	}
}

// TestWaveResumeReduction checks that replanning a wave after some outputs
// were registered prunes exactly those jobs — the paper's RLS reduction
// doubling as the resume mechanism.
func TestWaveResumeReduction(t *testing.T) {
	const n, waveSize = 8, 8
	r, tc := surveyServices(t, n)
	p, err := NewWavePlanner(surveySource(n), Config{RLS: r, TC: tc, OutputSite: "home"}, waveSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, done := range []string{"out0", "out3", "out5"} {
		if err := r.Register(done, rls.PFN{Site: "B", URL: gridftp.URL("B", done)}); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := p.Plan(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.PrunedJobs) != 3 {
		t.Fatalf("pruned = %v, want j0 j3 j5", plan.PrunedJobs)
	}
	for _, id := range []string{"j0", "j3", "j5"} {
		if _, ok := plan.Concrete.Node(id); ok {
			t.Errorf("%s must be pruned from the resumed wave", id)
		}
	}
}

// waveRun plans and executes an n-job survey wave by wave, register nodes
// feeding the RLS so per-wave reduction and the collector's feasibility work
// as in the real pipeline. It returns the scheduler's peak live graph and the
// peak growth of the GC'd live heap, sampled at every wave boundary.
func waveRun(t *testing.T, n, waveSize int) (maxWaveNodes int, heapBytes uint64) {
	t.Helper()
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	r, tc := surveyServices(t, n)
	base := liveHeap()
	peak := base
	p, err := NewWavePlanner(surveySource(n), Config{RLS: r, TC: tc, OutputSite: "B", RegisterOutputs: true}, waveSize, 7)
	if err != nil {
		t.Fatal(err)
	}
	next := func(w int) (*dag.Graph, error) {
		if w >= p.Waves() {
			return nil, nil
		}
		plan, err := p.Plan(w)
		if err != nil {
			return nil, err
		}
		if h := liveHeap(); h > peak {
			peak = h
		}
		return plan.Concrete, nil
	}
	runner := func(n *dag.Node, _ int) (dagman.Spec, error) {
		return dagman.Spec{Cost: time.Second, Run: func() error {
			if n.Type != NodeRegister {
				return nil
			}
			return r.Register(n.Attr(AttrLFN), rls.PFN{Site: n.Attr(AttrSite), URL: n.Attr(AttrPFN)})
		}}, nil
	}
	newSim := func() (*condor.Simulator, error) {
		return condor.NewSimulator(condor.Pool{Name: "grid", Slots: 32})
	}
	ws, err := dagman.ExecuteWaves(next, runner, newSim, dagman.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exists("final") {
		t.Fatal("wave run did not register the collector output")
	}
	return ws.MaxWaveNodes, peak - base // peak starts at base
}

// TestWaveLiveSetConstantInSurveySize is the survey-scale claim of wave
// execution: once a survey spans several waves the scheduler's live graph is
// set by the wave size alone, heap per job falls as the survey grows, and the
// graph a single monolithic plan must hold is at least 10x the wave live set.
func TestWaveLiveSetConstantInSurveySize(t *testing.T) {
	const waveSize = 50
	sizes := []int{waveSize, 20 * waveSize, 80 * waveSize}
	nodes := make([]int, len(sizes))
	perJob := make([]float64, len(sizes))
	for i, n := range sizes {
		var heap uint64
		nodes[i], heap = waveRun(t, n, waveSize)
		perJob[i] = float64(heap) / float64(n)
		if nodes[i] > 4*waveSize {
			t.Errorf("%d jobs: live graph of %d nodes exceeds the wave bound %d", n, nodes[i], 4*waveSize)
		}
	}
	if nodes[1] != nodes[2] {
		t.Errorf("max wave nodes varies with survey size: %v", nodes)
	}
	if perJob[2] >= perJob[0] {
		t.Errorf("heap per job not sub-linear: %.0f B at %d jobs vs %.0f B at %d", perJob[0], sizes[0], perJob[2], sizes[2])
	}

	r, tc := surveyServices(t, sizes[1])
	mono, err := NewWavePlanner(surveySource(sizes[1]), Config{RLS: r, TC: tc, OutputSite: "B", RegisterOutputs: true}, sizes[1], 7)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mono.Plan(0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Concrete.Len() < 10*nodes[1] {
		t.Errorf("monolithic plan (%d nodes) not >= 10x the wave live set (%d)", plan.Concrete.Len(), nodes[1])
	}
}

// TestCollectorPlanShape pins the fan-in wave's concrete graph as .dag text.
// The first three graphs were captured from the hand-built collector planner
// this wave used to have, so they prove the one-job workflow mapped through
// concretize is the same plan; the fourth is the one shape allowed to differ
// (the stage-in source is pickSource's draw from the (seed + wave) stream — C
// here — where the hand-built planner took the sorted-first replica, A). Every case is planned twice by fresh planners with the same seed:
// a resume replans the collector wave and must get the same graph.
func TestCollectorPlanShape(t *testing.T) {
	const n = 6
	cases := []struct {
		name       string
		outputSite string
		selection  SiteSelection
		// out4At lists the sites holding out4; every other leaf output has its
		// one replica at the collector site B.
		out4At []string
		want   string
	}{
		{name: "all inputs local", outputSite: "B", out4At: []string{"B"}, want: `DAGFILE v1
NODE "collect" "compute"
ATTR "collect" "derivation" "collect"
ATTR "collect" "executable" "/bin/concat"
ATTR "collect" "inputs" "out0,out1,out2,out3,out4,out5"
ATTR "collect" "outputs" "final"
ATTR "collect" "site" "B"
ATTR "collect" "transformation" "concat"
NODE "reg_final" "register"
ATTR "reg_final" "lfn" "final"
ATTR "reg_final" "pfn" "gridftp://B/final"
ATTR "reg_final" "site" "B"
EDGE "collect" "reg_final"
`},
		{name: "output site differs", outputSite: "home", out4At: []string{"B"}, want: `DAGFILE v1
NODE "collect" "compute"
ATTR "collect" "derivation" "collect"
ATTR "collect" "executable" "/bin/concat"
ATTR "collect" "inputs" "out0,out1,out2,out3,out4,out5"
ATTR "collect" "outputs" "final"
ATTR "collect" "site" "B"
ATTR "collect" "transformation" "concat"
NODE "reg_final" "register"
ATTR "reg_final" "lfn" "final"
ATTR "reg_final" "pfn" "gridftp://home/final"
ATTR "reg_final" "site" "home"
NODE "stageout_final_to_home" "transfer"
ATTR "stageout_final_to_home" "dst" "gridftp://home/final"
ATTR "stageout_final_to_home" "lfn" "final"
ATTR "stageout_final_to_home" "src" "gridftp://B/final"
EDGE "collect" "stageout_final_to_home"
EDGE "stageout_final_to_home" "reg_final"
`},
		{name: "locality one remote input", outputSite: "home", selection: SelectLocality,
			out4At: []string{"A"}, want: `DAGFILE v1
NODE "collect" "compute"
ATTR "collect" "derivation" "collect"
ATTR "collect" "executable" "/bin/concat"
ATTR "collect" "inputs" "out0,out1,out2,out3,out4,out5"
ATTR "collect" "outputs" "final"
ATTR "collect" "site" "B"
ATTR "collect" "transformation" "concat"
NODE "reg_final" "register"
ATTR "reg_final" "lfn" "final"
ATTR "reg_final" "pfn" "gridftp://home/final"
ATTR "reg_final" "site" "home"
NODE "stagein_out4_to_B" "transfer"
ATTR "stagein_out4_to_B" "dst" "gridftp://B/out4"
ATTR "stagein_out4_to_B" "lfn" "out4"
ATTR "stagein_out4_to_B" "src" "gridftp://A/out4"
NODE "stageout_final_to_home" "transfer"
ATTR "stageout_final_to_home" "dst" "gridftp://home/final"
ATTR "stageout_final_to_home" "lfn" "final"
ATTR "stageout_final_to_home" "src" "gridftp://B/final"
EDGE "collect" "stageout_final_to_home"
EDGE "stagein_out4_to_B" "collect"
EDGE "stageout_final_to_home" "reg_final"
`},
		{name: "random two remote replicas", outputSite: "home", out4At: []string{"A", "C"}, want: `DAGFILE v1
NODE "collect" "compute"
ATTR "collect" "derivation" "collect"
ATTR "collect" "executable" "/bin/concat"
ATTR "collect" "inputs" "out0,out1,out2,out3,out4,out5"
ATTR "collect" "outputs" "final"
ATTR "collect" "site" "B"
ATTR "collect" "transformation" "concat"
NODE "reg_final" "register"
ATTR "reg_final" "lfn" "final"
ATTR "reg_final" "pfn" "gridftp://home/final"
ATTR "reg_final" "site" "home"
NODE "stagein_out4_to_B" "transfer"
ATTR "stagein_out4_to_B" "dst" "gridftp://B/out4"
ATTR "stagein_out4_to_B" "lfn" "out4"
ATTR "stagein_out4_to_B" "src" "gridftp://C/out4"
NODE "stageout_final_to_home" "transfer"
ATTR "stageout_final_to_home" "dst" "gridftp://home/final"
ATTR "stageout_final_to_home" "lfn" "final"
ATTR "stageout_final_to_home" "src" "gridftp://B/final"
EDGE "collect" "stageout_final_to_home"
EDGE "stagein_out4_to_B" "collect"
EDGE "stageout_final_to_home" "reg_final"
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan := func() string {
				r, tc := surveyServices(t, n)
				cfg := Config{RLS: r, TC: tc, OutputSite: c.outputSite, RegisterOutputs: true, Selection: c.selection}
				p, err := NewWavePlanner(surveySource(n), cfg, 3, 7)
				if err != nil {
					t.Fatal(err)
				}
				if p.CollectorSite() != "B" {
					t.Fatalf("collector site = %q, want B", p.CollectorSite())
				}
				for i := 0; i < n; i++ {
					lfn := fmt.Sprintf("out%d", i)
					at := []string{"B"}
					if i == 4 {
						at = c.out4At
					}
					for _, site := range at {
						if err := r.Register(lfn, rls.PFN{Site: site, URL: gridftp.URL(site, lfn)}); err != nil {
							t.Fatal(err)
						}
					}
				}
				got, err := p.Plan(p.Waves() - 1)
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				if err := dagman.WriteDAG(&b, got.Concrete, nil); err != nil {
					t.Fatal(err)
				}
				return b.String()
			}
			got := plan()
			if got != c.want {
				t.Errorf("collector wave .dag:\n%s\nwant:\n%s", got, c.want)
			}
			if again := plan(); again != got {
				t.Errorf("same seed, different collector plan:\n%s\nvs\n%s", again, got)
			}
		})
	}

	// No leaf output registered yet: infeasible, naming every missing input.
	r, tc := surveyServices(t, n)
	p, err := NewWavePlanner(surveySource(n), Config{RLS: r, TC: tc, OutputSite: "home"}, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Plan(p.Waves() - 1)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("collector with unregistered inputs = %v, want ErrInfeasible", err)
	}
	if want := "[out0 out1 out2 out3 out4 out5]"; !strings.Contains(err.Error(), want) {
		t.Errorf("infeasible error %q does not list every missing input %s", err, want)
	}
}
