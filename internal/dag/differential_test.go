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
	Len, NumEdges int
	Nodes         []string
	Topo          []string
	TopoErr       string
	PerNode       map[string][]any
	Rows          [][]string
}

// observe reads g through its exported API. pool is every id an operation may
// have used, present or not. Rows is the graph by position: a Graph's from
// Positions, the reference's from Nodes and Children, so every comparison of
// the two also checks the view DAGMan executes from.
func observe(g interface {
	Len() int
	NumEdges() int
	Nodes() []string
	TopoSort() ([]string, error)
	Children(string) []string
	Node(string) (*Node, bool)
}, pool []string) observation {
	o := observation{Len: g.Len(), NumEdges: g.NumEdges(), Nodes: g.Nodes(), PerNode: map[string][]any{}}
	topo, err := g.TopoSort()
	o.Topo, o.TopoErr = topo, errClass(err)
	for _, id := range pool {
		n, ok := g.Node(id)
		typ := ""
		if ok {
			typ = n.Type
		}
		o.PerNode[id] = []any{ok, typ, g.Children(id)}
	}
	if pg, ok := g.(*Graph); ok {
		o.Rows = positionRows(pg.Positions())
	} else {
		o.Rows = idRows(g)
	}
	return o
}

// positionRows renders a position view as rows: row i is the id at position
// i followed by the ids of its children, in position order.
func positionRows(p *Positions) [][]string {
	var rows [][]string
	for i, n := range p.Nodes {
		row := []string{n.ID}
		for _, c := range p.Children(i) {
			row = append(row, p.Nodes[c].ID)
		}
		rows = append(rows, row)
	}
	return rows
}

// idRows renders the same rows from Nodes and Children.
func idRows(g interface {
	Nodes() []string
	Children(string) []string
}) [][]string {
	var rows [][]string
	for _, id := range g.Nodes() {
		rows = append(rows, append([]string{id}, g.Children(id)...))
	}
	return rows
}

// TestGraphMatchesReference drives random AddNode / AddEdge sequences through
// Graph and through the map-of-maps implementation it replaced, and requires
// every read — element for element, nil for nil — and every error decision to
// agree after each step, with mergeTopoSort as the independent oracle for the
// topological order.
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
			if rng.Intn(100) < 30 {
				id := pick()
				op = "AddNode " + id
				typ := []string{"compute", "transfer"}[rng.Intn(2)]
				got = g.AddNode(&Node{ID: id, Type: typ})
				want = ref.AddNode(&Node{ID: id, Type: typ})
			} else {
				from, to := pick(), pick()
				op = "AddEdge " + from + " " + to
				got, want = g.AddEdge(from, to), ref.AddEdge(from, to)
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

// TestGraphConcurrentReaders: the id order is built lazily by the first read,
// and a finished graph is read by several goroutines at once — DAGMan's
// scheduler, through Positions, and a status reader. Under -race this fails
// if that first build is an unsynchronised write.
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
					if got, want := positionRows(g.Positions()), idRows(g); !reflect.DeepEqual(got, want) {
						t.Errorf("reader %d: Positions() differs from Nodes() and Children", r)
					}
					if got := g.Nodes(); !reflect.DeepEqual(got, want) {
						t.Errorf("reader %d: Nodes() differs", r)
					}
					if got := g.Children("src"); len(got) != 200 {
						t.Errorf("reader %d: Children(src) has %d ids", r, len(got))
					}
					if _, err := g.TopoSort(); err != nil {
						t.Errorf("reader %d: %v", r, err)
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
