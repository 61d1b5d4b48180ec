package chimera

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/vdl"
)

// figure1Catalog builds the paper's Figure 1 example: d1 takes a -> b,
// d2 takes b -> c.
func figure1Catalog(t *testing.T) *vdl.Catalog {
	t.Helper()
	cat, err := vdl.Parse(`
TR step( in x, out y ) {}
DV d1->step( x=@{in:"a"}, y=@{out:"b"} );
DV d2->step( x=@{in:"b"}, y=@{out:"c"} );
`)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestFigure1AbstractWorkflow(t *testing.T) {
	// Requesting file c must yield the two-node chain d1 -> d2 (Figure 1).
	wf, err := Compose(figure1Catalog(t), Request{LFNs: []string{"c"}})
	if err != nil {
		t.Fatal(err)
	}
	g := wf.Graph
	if g.Len() != 2 {
		t.Fatalf("nodes = %v", g.Nodes())
	}
	if !slices.Contains(g.Children("d1"), "d2") {
		t.Error("edge d1 -> d2 missing")
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != "d1" || order[1] != "d2" {
		t.Errorf("order = %v", order)
	}
	if len(wf.RawInputs) != 1 || wf.RawInputs[0] != "a" {
		t.Errorf("raw inputs = %v", wf.RawInputs)
	}
	if len(wf.Intermediate) != 1 || wf.Intermediate[0] != "b" {
		t.Errorf("intermediate = %v", wf.Intermediate)
	}
	n, _ := g.Node("d2")
	if n.Type != NodeType || n.Transformation != "step" || n.Derivation != "d2" ||
		!slices.Equal(n.Inputs, []string{"b"}) || !slices.Equal(n.Outputs, []string{"c"}) {
		t.Errorf("node = %+v", n)
	}
}

func TestComposeIntermediateRequest(t *testing.T) {
	// Asking for the intermediate b needs only d1.
	wf, err := Compose(figure1Catalog(t), Request{LFNs: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if wf.Graph.Len() != 1 {
		t.Fatalf("nodes = %v", wf.Graph.Nodes())
	}
}

func TestComposeErrors(t *testing.T) {
	cat := figure1Catalog(t)
	if _, err := Compose(cat, Request{}); err == nil {
		t.Error("empty request must fail")
	}
	_, err := Compose(cat, Request{LFNs: []string{"ghost"}})
	if !errors.Is(err, ErrNoProducer) {
		t.Errorf("want ErrNoProducer, got %v", err)
	}
}

func TestComposeAmbiguous(t *testing.T) {
	cat, err := vdl.Parse(`
TR t( in x, out y ) {}
DV d1->t( x=@{in:"a"}, y=@{out:"dup"} );
DV d2->t( x=@{in:"b"}, y=@{out:"dup"} );
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compose(cat, Request{LFNs: []string{"dup"}})
	if !errors.Is(err, ErrAmbiguous) {
		t.Errorf("want ErrAmbiguous, got %v", err)
	}
}

func TestComposeDiamond(t *testing.T) {
	// a -> (left, right) -> join: classic diamond dependency.
	cat, err := vdl.Parse(`
TR split( in x, out l, out r ) {}
TR work( in x, out y ) {}
TR join( in l, in r, out z ) {}
DV dsplit->split( x=@{in:"a"}, l=@{out:"b1"}, r=@{out:"b2"} );
DV dleft->work( x=@{in:"b1"}, y=@{out:"c1"} );
DV dright->work( x=@{in:"b2"}, y=@{out:"c2"} );
DV djoin->join( l=@{in:"c1"}, r=@{in:"c2"}, z=@{out:"d"} );
`)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := Compose(cat, Request{LFNs: []string{"d"}})
	if err != nil {
		t.Fatal(err)
	}
	g := wf.Graph
	if g.Len() != 4 {
		t.Fatalf("nodes = %v", g.Nodes())
	}
	for _, e := range [][2]string{{"dsplit", "dleft"}, {"dsplit", "dright"}, {"dleft", "djoin"}, {"dright", "djoin"}} {
		if !slices.Contains(g.Children(e[0]), e[1]) {
			t.Errorf("edge %v missing", e)
		}
	}
	if g.NumEdges() != 4 {
		t.Errorf("edges = %d, want the diamond's 4", g.NumEdges())
	}
}

func TestComposeSharedAncestorNotDuplicated(t *testing.T) {
	// Two requested files sharing one upstream producer: the producer node
	// must appear once.
	cat, err := vdl.Parse(`
TR t( in x, out y ) {}
DV base->t( x=@{in:"raw"}, y=@{out:"mid"} );
DV left->t( x=@{in:"mid"}, y=@{out:"out1"} );
DV right->t( x=@{in:"mid"}, y=@{out:"out2"} );
`)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := Compose(cat, Request{LFNs: []string{"out1", "out2"}})
	if err != nil {
		t.Fatal(err)
	}
	if wf.Graph.Len() != 3 {
		t.Fatalf("nodes = %v", wf.Graph.Nodes())
	}
	if len(wf.Graph.Children("base")) != 2 {
		t.Errorf("base children = %v", wf.Graph.Children("base"))
	}
}

// galMorphCatalog mimics the web service's generated derivation file: one
// galMorph DV per galaxy plus a concat DV collecting all outputs.
func galMorphCatalog(t testing.TB, n int) *vdl.Catalog {
	t.Helper()
	var b strings.Builder
	b.WriteString("TR galMorph( in redshift, in image, out galMorph ) {}\n")
	b.WriteString("TR concat( ")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "in p%d, ", i)
	}
	b.WriteString("out table ) {}\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "DV morph%d->galMorph( redshift=\"0.05\", image=@{in:\"g%d.fit\"}, galMorph=@{out:\"g%d.txt\"} );\n", i, i, i)
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
	return cat
}

func TestComposeGalaxyMorphologyShape(t *testing.T) {
	// The application workflow: N parallel galMorph jobs fanning into one
	// concat job, rooted at N raw image files.
	cat := galMorphCatalog(t, 37) // the paper's smallest cluster
	wf, err := Compose(cat, Request{LFNs: []string{"cluster.vot"}})
	if err != nil {
		t.Fatal(err)
	}
	g := wf.Graph
	if g.Len() != 38 {
		t.Fatalf("nodes = %d, want 38", g.Len())
	}
	if len(wf.RawInputs) != 37 {
		t.Errorf("raw inputs = %d", len(wf.RawInputs))
	}
	// Every job feeds the collector and nothing else: 37 roots, one sink.
	for _, id := range g.Nodes() {
		if got := g.Children(id); id != "collect" && !slices.Equal(got, []string{"collect"}) {
			t.Errorf("%s children = %v, want [collect]", id, got)
		}
	}
}

// TestComposeRefusesBadLFN: a file name the .dag list form cannot carry — one
// holding a comma, or an empty one — parses as VDL but is refused where the
// job node is made, naming the derivation and the file, instead of turning
// into two inputs (or a missing replica) later.
func TestComposeRefusesBadLFN(t *testing.T) {
	for _, c := range []struct{ in, out, bad string }{
		{in: "x,y.fit", out: "o.txt", bad: "x,y.fit"},
		{in: "", out: "o.txt", bad: ""},
		{in: "x.fit", out: "o,p.txt", bad: "o,p.txt"},
	} {
		cat, err := vdl.Parse(fmt.Sprintf("TR t( in a, out b ) {}\nDV d->t( a=@{in:%q}, b=@{out:%q} );\n", c.in, c.out))
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		_, err = Compose(cat, Request{LFNs: []string{c.out}})
		if !errors.Is(err, ErrBadLFN) || !strings.Contains(err.Error(), fmt.Sprintf(`derivation "d", file %q`, c.bad)) {
			t.Errorf("%+v: err = %v, want ErrBadLFN naming derivation d and file %q", c, err, c.bad)
		}
	}
}

func BenchmarkCompose561(b *testing.B) {
	cat := galMorphCatalog(b, 561)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compose(cat, Request{LFNs: []string{"cluster.vot"}}); err != nil {
			b.Fatal(err)
		}
	}
}
