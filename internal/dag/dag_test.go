package dag

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// chain builds a -> b -> c ... for the given IDs.
func chain(t *testing.T, ids ...string) *Graph {
	t.Helper()
	g := New()
	for _, id := range ids {
		if err := g.AddNode(&Node{ID: id, Type: "compute"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(ids); i++ {
		if err := g.AddEdge(ids[i-1], ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddNodeErrors(t *testing.T) {
	g := New()
	if err := g.AddNode(nil); err == nil {
		t.Error("nil node must fail")
	}
	if err := g.AddNode(&Node{}); err == nil {
		t.Error("unnamed node must fail")
	}
	if err := g.AddNode(&Node{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&Node{ID: "a"}); err == nil {
		t.Error("duplicate node must fail")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := chain(t, "a", "b")
	if err := g.AddEdge("a", "a"); err == nil {
		t.Error("self edge must fail")
	}
	if err := g.AddEdge("a", "zz"); err == nil {
		t.Error("missing node must fail")
	}
	if err := g.AddEdge("zz", "a"); err == nil {
		t.Error("missing node must fail")
	}
	// Idempotent re-add.
	if err := g.AddEdge("a", "b"); err != nil {
		t.Errorf("re-adding existing edge: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1", g.NumEdges())
	}
}

func TestCycleRejection(t *testing.T) {
	g := chain(t, "a", "b", "c")
	if err := g.AddEdge("c", "a"); err == nil {
		t.Error("cycle must be rejected")
	}
	if err := g.AddEdge("b", "a"); err == nil {
		t.Error("2-cycle must be rejected")
	}
	// Graph must be unchanged after rejected edges.
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d after rejections, want 2", g.NumEdges())
	}
}

func TestTopoSortChain(t *testing.T) {
	g := chain(t, "d1", "d2", "d3")
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"d1", "d2", "d3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTopoSortDeterministicAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := New()
		n := 30
		for i := 0; i < n; i++ {
			_ = g.AddNode(&Node{ID: fmt.Sprintf("n%02d", i)})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.1 {
					_ = g.AddEdge(fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", j))
				}
			}
		}
		o1, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		o2, _ := g.TopoSort()
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatal("topo sort not deterministic")
			}
		}
		pos := map[string]int{}
		for i, id := range o1 {
			pos[id] = i
		}
		for _, from := range g.Nodes() {
			for _, to := range g.Children(from) {
				if pos[from] >= pos[to] {
					t.Fatalf("edge %s->%s violated by order", from, to)
				}
			}
		}
	}
}

func TestTopoSortCycleViaInternalState(t *testing.T) {
	// Force a cycle bypassing AddEdge's check to prove TopoSort detects it.
	g := chain(t, "a", "b")
	a, b := g.index["a"], g.index["b"]
	g.verts[b].children.slots = append(g.verts[b].children.slots, a)
	g.verts[a].parents.slots = append(g.verts[a].parents.slots, b)
	if _, err := g.TopoSort(); err == nil {
		t.Error("TopoSort must detect cycles")
	}
	if _, err := g.Levels(); err == nil {
		t.Error("Levels must propagate cycle errors")
	}
}

func TestRootsLeaves(t *testing.T) {
	g := chain(t, "a", "b", "c")
	_ = g.AddNode(&Node{ID: "x"})
	roots := g.Roots()
	if len(roots) != 2 || roots[0] != "a" || roots[1] != "x" {
		t.Errorf("roots = %v", roots)
	}
	leaves := g.Leaves()
	if len(leaves) != 2 || leaves[0] != "c" || leaves[1] != "x" {
		t.Errorf("leaves = %v", leaves)
	}
}

func TestLevels(t *testing.T) {
	// diamond: a -> b, a -> c, b -> d, c -> d
	g := New()
	for _, id := range []string{"a", "b", "c", "d"} {
		_ = g.AddNode(&Node{ID: id})
	}
	_ = g.AddEdge("a", "b")
	_ = g.AddEdge("a", "c")
	_ = g.AddEdge("b", "d")
	_ = g.AddEdge("c", "d")
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("levels = %v", levels)
	}
	if levels[0][0] != "a" || len(levels[1]) != 2 || levels[2][0] != "d" {
		t.Errorf("levels = %v", levels)
	}
}

func TestAncestorsDescendants(t *testing.T) {
	g := chain(t, "a", "b", "c", "d")
	anc := g.Ancestors("c")
	if len(anc) != 2 || anc[0] != "a" || anc[1] != "b" {
		t.Errorf("ancestors = %v", anc)
	}
	desc := g.Descendants("b")
	if len(desc) != 2 || desc[0] != "c" || desc[1] != "d" {
		t.Errorf("descendants = %v", desc)
	}
	if len(g.Ancestors("a")) != 0 || len(g.Descendants("d")) != 0 {
		t.Error("root/leaf must have empty ancestors/descendants")
	}
}

func TestRemoveNode(t *testing.T) {
	g := chain(t, "a", "b", "c")
	if err := g.RemoveNode("b"); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 || g.NumEdges() != 0 {
		t.Errorf("after removal: %d nodes %d edges", g.Len(), g.NumEdges())
	}
	if err := g.RemoveNode("b"); err == nil {
		t.Error("double removal must fail")
	}
	// Remaining structure intact.
	if _, ok := g.Node("a"); !ok {
		t.Error("node a lost")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := chain(t, "a", "b")
	n, _ := g.Node("a")
	n.Site = "isi"
	c := g.Clone()
	cn, _ := c.Node("a")
	if cn.Site != "isi" {
		t.Error("clone lost the payload")
	}
	cn.Site = "fnal"
	if n.Site != "isi" {
		t.Error("clone shares nodes")
	}
	_ = c.RemoveNode("b")
	if g.Len() != 2 {
		t.Error("clone shares node maps")
	}
	if c.NumEdges() != 0 || g.NumEdges() != 1 {
		t.Error("clone shares edges")
	}
}

// TestNodeAttrs: Attr renders exactly the keys of the node's type, lists
// comma-joined, and every key of the table names a field.
func TestNodeAttrs(t *testing.T) {
	n := &Node{ID: "x", Type: TypeCompute, Site: "isi", Inputs: []string{"a.fit", "b.fit"}, LFN: "stray"}
	for key, want := range map[string]string{
		AttrSite: "isi", AttrInputs: "a.fit,b.fit", AttrOutputs: "", AttrLFN: "", "nosuch": "",
	} {
		if got := n.Attr(key); got != want {
			t.Errorf("compute Attr(%q) = %q, want %q", key, got, want)
		}
	}
	if (&Node{ID: "y", Type: "custom", Site: "isi"}).Attr(AttrSite) != "" {
		t.Error("a type outside the table has no attributes")
	}
	for _, typ := range []string{TypeJob, TypeCompute, TypeTransfer, TypeRegister} {
		keys := AttrKeys(typ)
		if len(keys) == 0 || !slices.IsSorted(keys) {
			t.Errorf("AttrKeys(%q) = %v, want sorted and non-empty", typ, keys)
		}
		for _, k := range keys {
			if s, list := (&Node{Type: typ}).Field(k); (s == nil) == (list == nil) {
				t.Errorf("%s key %q maps to no field", typ, k)
			}
		}
	}
}

func TestDOT(t *testing.T) {
	g := chain(t, "a", "b")
	dot := g.DOT("wf")
	for _, want := range []string{`digraph "wf"`, `"a" -> "b";`, `"a" [label=`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestCountByType(t *testing.T) {
	g := New()
	_ = g.AddNode(&Node{ID: "1", Type: "compute"})
	_ = g.AddNode(&Node{ID: "2", Type: "compute"})
	_ = g.AddNode(&Node{ID: "3", Type: "transfer"})
	c := g.CountByType()
	if c["compute"] != 2 || c["transfer"] != 1 {
		t.Errorf("counts = %v", c)
	}
}

func TestAcyclicInvariantProperty(t *testing.T) {
	// Whatever random edges we try to add, the graph always topo-sorts.
	f := func(edges []uint8) bool {
		g := New()
		const n = 12
		for i := 0; i < n; i++ {
			_ = g.AddNode(&Node{ID: fmt.Sprintf("n%d", i)})
		}
		for k := 0; k+1 < len(edges); k += 2 {
			from := fmt.Sprintf("n%d", int(edges[k])%n)
			to := fmt.Sprintf("n%d", int(edges[k+1])%n)
			_ = g.AddEdge(from, to) // errors (cycles, self) are expected
		}
		_, err := g.TopoSort()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// fan builds the 1 -> width -> 1 graph: the shape of a staged request, where
// every galaxy job becomes ready at once.
func fan(tb testing.TB, width int) *Graph {
	tb.Helper()
	g := New()
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(g.AddNode(&Node{ID: "src"}))
	must(g.AddNode(&Node{ID: "sink"}))
	for i := 0; i < width; i++ {
		id := fmt.Sprintf("mid%05d", i)
		must(g.AddNode(&Node{ID: id}))
		must(g.AddEdge("src", id))
		must(g.AddEdge(id, "sink"))
	}
	return g
}

// randomDAG builds n nodes with each forward edge present with probability p.
func randomDAG(rng *rand.Rand, n int, p float64) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		_ = g.AddNode(&Node{ID: fmt.Sprintf("n%d", rng.Intn(1000)*1000+i)})
	}
	ids := g.Nodes()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if rng.Float64() < p {
				_ = g.AddEdge(ids[i], ids[j])
			}
		}
	}
	return g
}

// mergeTopoSort is the TopoSort this package shipped before the ready heap:
// Kahn's algorithm over a sorted ready list, re-merged (and re-allocated)
// once per emitted node. Kept as the oracle for the order; it reads the graph
// through the exported API only, so it judges Graph and refGraph alike.
func mergeTopoSort(g interface {
	Nodes() []string
	Parents(id string) []string
	Children(id string) []string
}) ([]string, error) {
	nodes := g.Nodes()
	indeg := make(map[string]int, len(nodes))
	var ready []string
	for _, id := range nodes {
		indeg[id] = len(g.Parents(id))
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	var order []string
	for len(ready) > 0 {
		cur := ready[0]
		ready = ready[1:]
		order = append(order, cur)
		var unlocked []string
		for _, c := range g.Children(cur) {
			indeg[c]--
			if indeg[c] == 0 {
				unlocked = append(unlocked, c)
			}
		}
		ready = mergeSorted(ready, unlocked)
	}
	if len(order) != len(nodes) {
		return nil, ErrCycle
	}
	return order, nil
}

func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// TestTopoSortMatchesMergeOracle: the heap-ordered TopoSort emits exactly the
// order the merged sorted ready list did, on random DAGs of every density and
// on the wide fan.
func TestTopoSortMatchesMergeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	graphs := []*Graph{New(), fan(t, 1), fan(t, 2000)}
	for trial := 0; trial < 200; trial++ {
		graphs = append(graphs, randomDAG(rng, 1+rng.Intn(60), rng.Float64()*rng.Float64()))
	}
	for i, g := range graphs {
		want, err := mergeTopoSort(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("graph %d (%d nodes, %d edges): order differs from the merge oracle\n got %v\nwant %v",
				i, g.Len(), g.NumEdges(), got, want)
		}
	}
}

// TestTopoSortAllocsIndependentOfWidth: sorting a 1 -> 4000 -> 1 fan costs a
// constant number of allocations (the in-degree map, the heap, the order),
// not one ready list per node.
func TestTopoSortAllocsIndependentOfWidth(t *testing.T) {
	g := fan(t, 4000)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := g.TopoSort(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("TopoSort of a 4000-wide fan made %.0f allocations, want a constant (<= 64)", allocs)
	}
}

// TestPositions: the position view lists the nodes in Nodes order and each
// position's children as the positions of Children, in the same order, on
// random DAGs (whose child lists are appended out of id order) and the fan.
func TestPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	graphs := []*Graph{New(), fan(t, 3)}
	for trial := 0; trial < 100; trial++ {
		graphs = append(graphs, randomDAG(rng, 1+rng.Intn(60), rng.Float64()*rng.Float64()))
	}
	for gi, g := range graphs {
		p := g.Positions()
		ids := g.Nodes()
		if len(p.Nodes) != len(ids) {
			t.Fatalf("graph %d: %d positions for %d nodes", gi, len(p.Nodes), len(ids))
		}
		for i, n := range p.Nodes {
			if n.ID != ids[i] {
				t.Fatalf("graph %d: position %d is %s, Nodes()[%d] is %s", gi, i, n.ID, i, ids[i])
			}
			var kids []string
			for _, c := range p.Children(i) {
				kids = append(kids, ids[c])
			}
			if want := g.Children(n.ID); !slices.Equal(kids, want) {
				t.Fatalf("graph %d: children of %s by position %v, Children %v", gi, n.ID, kids, want)
			}
		}
	}
}

func BenchmarkTopoSort(b *testing.B) {
	sparse := New()
	const n = 1000
	for i := 0; i < n; i++ {
		_ = sparse.AddNode(&Node{ID: fmt.Sprintf("n%04d", i)})
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			j := i + 1 + rng.Intn(n)
			if j < n {
				_ = sparse.AddEdge(fmt.Sprintf("n%04d", i), fmt.Sprintf("n%04d", j))
			}
		}
	}
	for _, bc := range []struct {
		name string
		g    *Graph
	}{{"sparse1000", sparse}, {"fan4000", fan(b, 4000)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.g.TopoSort(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAddEdgeWithCycleCheck(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := New()
		const n = 200
		for j := 0; j < n; j++ {
			_ = g.AddNode(&Node{ID: fmt.Sprintf("n%03d", j)})
		}
		b.StartTimer()
		for j := 1; j < n; j++ {
			_ = g.AddEdge(fmt.Sprintf("n%03d", j-1), fmt.Sprintf("n%03d", j))
		}
	}
}

func TestHasEdgeAndParents(t *testing.T) {
	g := chain(t, "a", "b", "c")
	if !g.HasEdge("a", "b") || g.HasEdge("b", "a") || g.HasEdge("a", "c") {
		t.Error("HasEdge wrong")
	}
	if p := g.Parents("b"); len(p) != 1 || p[0] != "a" {
		t.Errorf("Parents(b) = %v", p)
	}
	if p := g.Parents("a"); len(p) != 0 {
		t.Errorf("Parents(a) = %v", p)
	}
}
