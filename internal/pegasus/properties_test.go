package pegasus

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chimera"
	"repro/internal/gridftp"
	"repro/internal/rls"
	"repro/internal/tcat"
	"repro/internal/vdl"
)

// TestPlanSoundnessProperty is the planner's central invariant: in every
// concrete workflow, each compute job's inputs are available at its site
// before it runs — produced upstream at the same site, staged by an
// ancestor transfer node, or already replicated there. Checked across random
// workflow shapes, cache states and seeds.
func TestPlanSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for trial := 0; trial < 60; trial++ {
		nGal := 1 + rng.Intn(15)
		cat := randomGalaxyCatalog(t, nGal)
		wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{"out.vot"}})
		if err != nil {
			t.Fatal(err)
		}

		r := rls.New()
		sites := []string{"usc", "wisc", "fnal"}
		for i := 0; i < nGal; i++ {
			lfn := fmt.Sprintf("g%d.fit", i)
			// Replicas at 1-2 random locations (sometimes at compute sites).
			for k := 0; k <= rng.Intn(2); k++ {
				site := append(sites, "archive")[rng.Intn(4)]
				_ = r.Register(lfn, rls.PFN{Site: site, URL: gridftp.URL(site, lfn)})
			}
			// Random subset of results already materialized.
			if rng.Float64() < 0.3 {
				lfn := fmt.Sprintf("g%d.txt", i)
				_ = r.Register(lfn, rls.PFN{Site: sites[rng.Intn(3)], URL: gridftp.URL(sites[rng.Intn(3)], lfn)})
			}
		}
		tc := tcat.New()
		for _, s := range sites {
			_ = tc.Add(tcat.Entry{Transformation: "galMorph", Site: s, Path: "/x"})
			_ = tc.Add(tcat.Entry{Transformation: "concat", Site: s, Path: "/x"})
		}

		cfg := Config{
			RLS: r, TC: tc,
			Rand:            rand.New(rand.NewSource(int64(trial))),
			OutputSite:      "stsci",
			RegisterOutputs: rng.Float64() < 0.5,
		}
		if rng.Float64() < 0.3 {
			cfg.Selection = SelectRoundRobin
		}
		p, err := Map(wf, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkPlanSound(t, trial, p, r)
	}
}

// checkPlanSound verifies data availability for every compute node.
func checkPlanSound(t *testing.T, trial int, p *Plan, r *rls.RLS) {
	t.Helper()
	cw := p.Concrete
	if _, err := cw.TopoSort(); err != nil {
		t.Fatalf("trial %d: concrete workflow cyclic: %v", trial, err)
	}

	// producedAt maps (lfn, site) availability through upstream nodes.
	type key struct{ lfn, site string }
	availableVia := map[string]map[key]bool{} // node -> what it makes available
	for _, id := range cw.Nodes() {
		n, _ := cw.Node(id)
		avail := map[key]bool{}
		switch n.Type {
		case NodeCompute:
			for _, lfn := range n.Outputs {
				avail[key{lfn, n.Site}] = true
			}
		case NodeTransfer:
			_, dstSite := mustURL(t, n.DstURL)
			avail[key{n.LFN, dstSite}] = true
		}
		availableVia[id] = avail
	}

	for _, id := range cw.Nodes() {
		n, _ := cw.Node(id)
		if n.Type != NodeCompute {
			continue
		}
		site := n.Site
		for _, lfn := range n.Inputs {
			// (a) replica already at the site?
			at := false
			for _, rep := range r.Lookup(lfn) {
				if rep.Site == site {
					at = true
					break
				}
			}
			if at {
				continue
			}
			// (b/c) some ancestor provides (lfn, site)?
			ok := false
			for _, anc := range cw.Ancestors(id) {
				if availableVia[anc][key{lfn, site}] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("trial %d: job %s at %s has no source for input %q\n%s",
					trial, id, site, lfn, cw.DOT("plan"))
			}
		}
	}
}

func mustURL(t *testing.T, u string) (path, site string) {
	t.Helper()
	site, path, err := gridftp.ParseURL(u)
	if err != nil {
		t.Fatalf("bad URL %q: %v", u, err)
	}
	return path, site
}

// randomGalaxyCatalog builds the N-galaxy fan + concat VDL catalog.
func randomGalaxyCatalog(t *testing.T, n int) *vdl.Catalog {
	t.Helper()
	cat := vdl.NewCatalog()
	if err := cat.AddTransformation(&vdl.Transformation{
		Name: "galMorph",
		Args: []vdl.Arg{{Name: "image", Dir: vdl.In}, {Name: "res", Dir: vdl.Out}},
	}); err != nil {
		t.Fatal(err)
	}
	concat := &vdl.Transformation{Name: "concat"}
	var collected []vdl.Actual
	for i := 0; i < n; i++ {
		concat.Args = append(concat.Args, vdl.Arg{Name: fmt.Sprintf("p%d", i), Dir: vdl.In})
		collected = append(collected, vdl.Actual{Name: fmt.Sprintf("p%d", i), Binding: vdl.FileBinding(vdl.In, fmt.Sprintf("g%d.txt", i))})
	}
	concat.Args = append(concat.Args, vdl.Arg{Name: "table", Dir: vdl.Out})
	collect := vdl.NewDerivation("collect", "concat", append(collected, vdl.Actual{Name: "table", Binding: vdl.FileBinding(vdl.Out, "out.vot")}))
	if err := cat.AddTransformation(concat); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		dv := vdl.NewDerivation(fmt.Sprintf("m%d", i), "galMorph", []vdl.Actual{
			{Name: "image", Binding: vdl.FileBinding(vdl.In, fmt.Sprintf("g%d.fit", i))},
			{Name: "res", Binding: vdl.FileBinding(vdl.Out, fmt.Sprintf("g%d.txt", i))},
		})
		if err := cat.AddDerivation(dv); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddDerivation(collect); err != nil {
		t.Fatal(err)
	}
	return cat
}
