package dag

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// errClass reduces an error to the decision it reports.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCycle):
		return "cycle"
	case errors.Is(err, ErrDupNode):
		return "dup"
	case errors.Is(err, ErrNoSuchNode):
		return "missing"
	case errors.Is(err, ErrSelfEdge):
		return "self"
	}
	return "other: " + err.Error()
}

// observation is everything a caller can read from a graph.
type observation struct {
	Len, NumEdges       int
	Nodes, Roots, Leafs []string
	Topo                []string
	TopoErr             string
	Levels              [][]string
	PerNode             map[string][]any
	Edges               []string
}

// observe reads g through its exported API. pool is every id an operation may
// have used, present or not.
func observe(g interface {
	Len() int
	NumEdges() int
	Nodes() []string
	Roots() []string
	Leaves() []string
	TopoSort() ([]string, error)
	Levels() ([][]string, error)
	Children(string) []string
	Parents(string) []string
	InDegree(string) int
	Ancestors(string) []string
	Descendants(string) []string
	HasEdge(string, string) bool
	Node(string) (*Node, bool)
}, pool []string) observation {
	o := observation{Len: g.Len(), NumEdges: g.NumEdges(), Nodes: g.Nodes(), Roots: g.Roots(), Leafs: g.Leaves(),
		PerNode: map[string][]any{}}
	topo, err := g.TopoSort()
	o.Topo, o.TopoErr = topo, errClass(err)
	o.Levels, _ = g.Levels()
	for _, id := range pool {
		n, ok := g.Node(id)
		typ := ""
		if ok {
			typ = n.Type
		}
		o.PerNode[id] = []any{ok, typ, g.Children(id), g.Parents(id), g.InDegree(id), g.Ancestors(id), g.Descendants(id)}
		for _, to := range pool {
			if g.HasEdge(id, to) {
				o.Edges = append(o.Edges, id+">"+to)
			}
		}
	}
	return o
}

// TestGraphMatchesReference drives random AddNode / AddEdge / RemoveNode /
// Clone sequences through Graph and through the map-of-maps implementation it
// replaced, and requires every read — element for element, nil for nil — and
// every error decision to agree after each step, with mergeTopoSort as the
// independent oracle for the topological order.
func TestGraphMatchesReference(t *testing.T) {
	pool := make([]string, 14)
	for i := range pool {
		pool[i] = fmt.Sprintf("n%02d", (i*7)%len(pool)) // not in id order
	}
	pool = append(pool, "", "absent")
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, ref := New(), newRef()
		pick := func() string { return pool[rng.Intn(len(pool))] }
		for step := 0; step < 250; step++ {
			var op string
			var got, want error
			switch r := rng.Intn(100); {
			case r < 30:
				id := pick()
				op = "AddNode " + id
				typ := []string{"compute", "transfer"}[rng.Intn(2)]
				got = g.AddNode(&Node{ID: id, Type: typ})
				want = ref.AddNode(&Node{ID: id, Type: typ})
			case r < 85:
				from, to := pick(), pick()
				op = "AddEdge " + from + " " + to
				got, want = g.AddEdge(from, to), ref.AddEdge(from, to)
			case r < 95:
				id := pick()
				op = "RemoveNode " + id
				got, want = g.RemoveNode(id), ref.RemoveNode(id)
			default:
				op = "Clone"
				g.Nodes() // the source has a cached order when it is cloned
				old, oldBefore := g, observe(g, pool)
				g, ref = g.Clone(), ref.Clone()
				if err := g.AddNode(&Node{ID: "clone-only"}); err != nil {
					t.Fatal(err)
				}
				if after := observe(old, pool); !reflect.DeepEqual(after, oldBefore) {
					t.Fatalf("seed %d step %d: changing a clone changed its source\n got %+v\nwant %+v", seed, step, after, oldBefore)
				}
				if err := g.RemoveNode("clone-only"); err != nil {
					t.Fatal(err)
				}
			}
			if errClass(got) != errClass(want) {
				t.Fatalf("seed %d step %d %s: error %v, reference %v", seed, step, op, got, want)
			}
			have, expect := observe(g, pool), observe(ref, pool)
			if !reflect.DeepEqual(have, expect) {
				t.Fatalf("seed %d step %d after %s:\n got %+v\nwant %+v", seed, step, op, have, expect)
			}
			if oracle, err := mergeTopoSort(g); err != nil || !slices.Equal(oracle, have.Topo) {
				t.Fatalf("seed %d step %d after %s: TopoSort %v, merge oracle %v (%v)", seed, step, op, have.Topo, oracle, err)
			}
		}
	}
}

// TestCloneOwnsItsOrder: a clone taken from a graph whose id order is cached
// builds its own; the two never share a backing array.
func TestCloneOwnsItsOrder(t *testing.T) {
	g := fan(t, 8)
	src := g.sorted()
	c := g.Clone()
	if o := c.order.Load(); o != nil {
		t.Fatal("a clone starts with a cached order it did not build")
	}
	own := c.sorted()
	if &own.byRank[0] == &src.byRank[0] || &own.rank[0] == &src.rank[0] {
		t.Fatal("clone shares its cached order with the source")
	}
	if err := c.AddNode(&Node{ID: "aaa"}); err != nil {
		t.Fatal(err)
	}
	if got := g.Nodes(); len(got) != 10 || got[0] != "mid00000" {
		t.Fatalf("source order changed with the clone: %v", got)
	}
	if got := c.Nodes(); len(got) != 11 || got[0] != "aaa" {
		t.Fatalf("clone order stale: %v", got)
	}
}

// TestGraphConcurrentReaders: the id order is built lazily by the first read,
// and a finished graph is read by several goroutines at once — DAGMan's
// scheduler and a status reader. Under -race this fails if that first build
// is an unsynchronised write.
func TestGraphConcurrentReaders(t *testing.T) {
	for round := 0; round < 20; round++ {
		g := fan(t, 200) // fresh graph: no order cached yet
		want := fan(t, 200).Nodes()
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					if got := g.Nodes(); !reflect.DeepEqual(got, want) {
						t.Errorf("reader %d: Nodes() differs", r)
					}
					if got := g.Children("src"); len(got) != 200 {
						t.Errorf("reader %d: Children(src) has %d ids", r, len(got))
					}
					if got := g.Roots(); len(got) != 1 {
						t.Errorf("reader %d: Roots() = %v", r, got)
					}
					if _, err := g.TopoSort(); err != nil {
						t.Errorf("reader %d: %v", r, err)
					}
					if got := g.Descendants("src"); len(got) != 201 {
						t.Errorf("reader %d: Descendants(src) has %d ids", r, len(got))
					}
				}
			}(r)
		}
		wg.Wait()
	}
}

// TestGraphAllocBudget pins what the slice-backed representation is for: an
// acyclic AddEdge whose cycle check has to search allocates nothing of its
// own (what remains is the amortised growth of the adjacency slices and the
// edge set, under one allocation per edge), and reading the sorted ids or a
// neighbour list of an unchanged graph costs the returned slice only.
func TestGraphAllocBudget(t *testing.T) {
	// Four layers, L0 -> L1 and L2 -> L3 complete; the measured edges are
	// L1 -> L2, whose check must search (the tail has parents, the head has
	// children) and never finds a path back.
	const k = 32
	g := New()
	id := func(layer, i int) string { return fmt.Sprintf("l%d-%02d", layer, i) }
	for layer := 0; layer < 4; layer++ {
		for i := 0; i < k; i++ {
			if err := g.AddNode(&Node{ID: id(layer, i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if err := g.AddEdge(id(0, i), id(1, j)); err != nil {
				t.Fatal(err)
			}
			if err := g.AddEdge(id(2, i), id(3, j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var pairs [][2]string
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			pairs = append(pairs, [2]string{id(1, i), id(2, j)})
		}
	}
	next := 0
	if allocs := testing.AllocsPerRun(len(pairs)-1, func() {
		if err := g.AddEdge(pairs[next][0], pairs[next][1]); err != nil {
			t.Fatal(err)
		}
		next++
	}); allocs != 0 {
		t.Errorf("acyclic AddEdge: %.0f allocs per edge, want 0 (amortised growth only)", allocs)
	}
	if g.NumEdges() != 3*k*k {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), 3*k*k)
	}

	g.Nodes() // build the order once
	if allocs := testing.AllocsPerRun(100, func() { g.Nodes() }); allocs > 1 {
		t.Errorf("Nodes() on an unchanged graph: %.0f allocs, want <= 1", allocs)
	}
	mid := id(1, 0)
	if allocs := testing.AllocsPerRun(100, func() { g.Children(mid) }); allocs > 1 {
		t.Errorf("Children(): %.0f allocs, want <= 1", allocs)
	}
}
