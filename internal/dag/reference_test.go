package dag

import (
	"errors"
	"fmt"
	"sort"
)

// refGraph is the map-of-maps Graph this package shipped before the
// slice-backed one, verbatim apart from its names: the reference every
// observable behaviour of Graph is compared against.
type refGraph struct {
	nodes    map[string]*Node
	children map[string]map[string]bool
	parents  map[string]map[string]bool
}

// newRef returns an empty reference graph.
func newRef() *refGraph {
	return &refGraph{
		nodes:    map[string]*Node{},
		children: map[string]map[string]bool{},
		parents:  map[string]map[string]bool{},
	}
}

// Len returns the number of nodes.
func (g *refGraph) Len() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *refGraph) NumEdges() int {
	n := 0
	for _, c := range g.children {
		n += len(c)
	}
	return n
}

// InDegree returns the number of nodes id depends on, without building the
// list Parents returns.
func (g *refGraph) InDegree(id string) int { return len(g.parents[id]) }

// AddNode inserts a node; the ID must be unique.
func (g *refGraph) AddNode(n *Node) error {
	if n == nil || n.ID == "" {
		return errors.New("dag: nil or unnamed node")
	}
	if _, dup := g.nodes[n.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDupNode, n.ID)
	}
	g.nodes[n.ID] = n
	g.children[n.ID] = map[string]bool{}
	g.parents[n.ID] = map[string]bool{}
	return nil
}

// Node returns the node with the given ID.
func (g *refGraph) Node(id string) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// AddEdge adds a dependency edge from -> to ("to depends on from"). Both
// nodes must exist and the edge must not create a cycle.
func (g *refGraph) AddEdge(from, to string) error {
	if from == to {
		return fmt.Errorf("%w: %q", ErrSelfEdge, from)
	}
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, to)
	}
	if g.children[from][to] {
		return nil // idempotent
	}
	// Reject cycles: "to" must not reach "from".
	if g.reaches(to, from) {
		return fmt.Errorf("%w: %s -> %s", ErrCycle, from, to)
	}
	g.children[from][to] = true
	g.parents[to][from] = true
	return nil
}

// reaches reports whether a path exists from src to dst.
func (g *refGraph) reaches(src, dst string) bool {
	if src == dst {
		return true
	}
	seen := map[string]bool{src: true}
	stack := []string{src}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range g.children[cur] {
			if next == dst {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// HasEdge reports whether the edge from -> to exists.
func (g *refGraph) HasEdge(from, to string) bool { return g.children[from][to] }

// RemoveNode deletes a node and all its edges.
func (g *refGraph) RemoveNode(id string) error {
	if _, ok := g.nodes[id]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, id)
	}
	for c := range g.children[id] {
		delete(g.parents[c], id)
	}
	for p := range g.parents[id] {
		delete(g.children[p], id)
	}
	delete(g.nodes, id)
	delete(g.children, id)
	delete(g.parents, id)
	return nil
}

// sortedKeys returns map keys in sorted order for deterministic iteration.
func refSortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Nodes returns all node IDs, sorted.
func (g *refGraph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Children returns the IDs depending on id, sorted.
func (g *refGraph) Children(id string) []string { return refSortedKeys(g.children[id]) }

// Parents returns the IDs id depends on, sorted.
func (g *refGraph) Parents(id string) []string { return refSortedKeys(g.parents[id]) }

// Roots returns nodes with no parents, sorted.
func (g *refGraph) Roots() []string {
	var out []string
	for id := range g.nodes {
		if len(g.parents[id]) == 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Leaves returns nodes with no children, sorted.
func (g *refGraph) Leaves() []string {
	var out []string
	for id := range g.nodes {
		if len(g.children[id]) == 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// TopoSort returns the nodes in a deterministic topological order (Kahn's
// algorithm, always emitting the lexicographically smallest ready node).
func (g *refGraph) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(g.nodes))
	ready := make(refHeap, 0, len(g.nodes))
	for id := range g.nodes {
		indeg[id] = len(g.parents[id])
		if indeg[id] == 0 {
			ready.push(id)
		}
	}
	order := make([]string, 0, len(g.nodes))
	for len(ready) > 0 {
		cur := ready.pop()
		order = append(order, cur)
		for c := range g.children[cur] {
			indeg[c]--
			if indeg[c] == 0 {
				ready.push(c)
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, ErrCycle
	}
	return order, nil
}

// refHeap is a binary min-heap of node ids. Ids are unique, so the pop
// order depends only on the set pushed, not on the (map-iteration) order
// they were pushed in. container/heap would box every id into an interface.
type refHeap []string

func (h *refHeap) push(id string) {
	s := append(*h, id)
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if s[up] <= s[i] {
			break
		}
		s[up], s[i] = s[i], s[up]
		i = up
	}
	*h = s
}

func (h *refHeap) pop() string {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && s[l] < s[least] {
			least = l
		}
		if r := 2*i + 2; r < n && s[r] < s[least] {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

// Levels assigns each node its depth (longest path from any root) and
// returns the nodes grouped by level. Level 0 holds the roots.
func (g *refGraph) Levels() ([][]string, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	depth := map[string]int{}
	maxDepth := 0
	for _, id := range order {
		d := 0
		for p := range g.parents[id] {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[id] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	levels := make([][]string, maxDepth+1)
	for _, id := range order {
		levels[depth[id]] = append(levels[depth[id]], id)
	}
	for _, l := range levels {
		sort.Strings(l)
	}
	return levels, nil
}

// Ancestors returns every node from which id is reachable.
func (g *refGraph) Ancestors(id string) []string {
	seen := map[string]bool{}
	var walk func(string)
	walk = func(cur string) {
		for p := range g.parents[cur] {
			if !seen[p] {
				seen[p] = true
				walk(p)
			}
		}
	}
	walk(id)
	return refSortedKeys(seen)
}

// Descendants returns every node reachable from id.
func (g *refGraph) Descendants(id string) []string {
	seen := map[string]bool{}
	var walk func(string)
	walk = func(cur string) {
		for c := range g.children[cur] {
			if !seen[c] {
				seen[c] = true
				walk(c)
			}
		}
	}
	walk(id)
	return refSortedKeys(seen)
}

// Clone returns a deep copy of the graph.
func (g *refGraph) Clone() *refGraph {
	out := newRef()
	for id, n := range g.nodes {
		attrs := make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			attrs[k] = v
		}
		out.nodes[id] = &Node{ID: n.ID, Type: n.Type, Attrs: attrs}
		out.children[id] = map[string]bool{}
		out.parents[id] = map[string]bool{}
	}
	for from, cs := range g.children {
		for to := range cs {
			out.children[from][to] = true
			out.parents[to][from] = true
		}
	}
	return out
}
