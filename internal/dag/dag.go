// Package dag provides the directed-acyclic-graph structure every layer of
// the workflow system shares: Chimera emits abstract workflows as DAGs,
// Pegasus reduces and concretizes them, and DAGMan executes them (Figures 1,
// 3 and 4 of the paper are all instances of this type).
//
// Nodes carry a free-form Type ("compute", "transfer", "register", ...) and
// string attributes; edges run from a node to the nodes that depend on it.
package dag

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Node is one vertex of a workflow graph.
type Node struct {
	ID    string
	Type  string
	Attrs map[string]string
}

// Attr returns an attribute value or "".
func (n *Node) Attr(key string) string { return n.Attrs[key] }

// SetAttr sets an attribute, allocating the map on first use.
func (n *Node) SetAttr(key, value string) {
	if n.Attrs == nil {
		n.Attrs = map[string]string{}
	}
	n.Attrs[key] = value
}

// Graph is a mutable DAG. The zero value is not usable; call New.
type Graph struct {
	nodes    map[string]*Node
	children map[string]map[string]bool
	parents  map[string]map[string]bool
}

// Errors returned by graph operations.
var (
	ErrNoSuchNode = errors.New("dag: no such node")
	ErrDupNode    = errors.New("dag: duplicate node")
	ErrCycle      = errors.New("dag: cycle detected")
	ErrSelfEdge   = errors.New("dag: self edge")
)

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes:    map[string]*Node{},
		children: map[string]map[string]bool{},
		parents:  map[string]map[string]bool{},
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, c := range g.children {
		n += len(c)
	}
	return n
}

// InDegree returns the number of nodes id depends on, without building the
// list Parents returns.
func (g *Graph) InDegree(id string) int { return len(g.parents[id]) }

// AddNode inserts a node; the ID must be unique.
func (g *Graph) AddNode(n *Node) error {
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
func (g *Graph) Node(id string) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// AddEdge adds a dependency edge from -> to ("to depends on from"). Both
// nodes must exist and the edge must not create a cycle.
func (g *Graph) AddEdge(from, to string) error {
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
func (g *Graph) reaches(src, dst string) bool {
	if src == dst {
		return true
	}
	seen := map[string]bool{src: true}
	stack := []string{src}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		//nvolint:ignore mapiter reachability is a boolean query; worklist visit order cannot change the result
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
func (g *Graph) HasEdge(from, to string) bool { return g.children[from][to] }

// RemoveNode deletes a node and all its edges.
func (g *Graph) RemoveNode(id string) error {
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
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Nodes returns all node IDs, sorted.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Children returns the IDs depending on id, sorted.
func (g *Graph) Children(id string) []string { return sortedKeys(g.children[id]) }

// Parents returns the IDs id depends on, sorted.
func (g *Graph) Parents(id string) []string { return sortedKeys(g.parents[id]) }

// Roots returns nodes with no parents, sorted.
func (g *Graph) Roots() []string {
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
func (g *Graph) Leaves() []string {
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
func (g *Graph) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(g.nodes))
	ready := make(minHeap, 0, len(g.nodes))
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

// minHeap is a binary min-heap of node ids. Ids are unique, so the pop
// order depends only on the set pushed, not on the (map-iteration) order
// they were pushed in. container/heap would box every id into an interface.
type minHeap []string

func (h *minHeap) push(id string) {
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

func (h *minHeap) pop() string {
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
func (g *Graph) Levels() ([][]string, error) {
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
func (g *Graph) Ancestors(id string) []string {
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
	return sortedKeys(seen)
}

// Descendants returns every node reachable from id.
func (g *Graph) Descendants(id string) []string {
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
	return sortedKeys(seen)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New()
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

// DOT renders the graph in Graphviz dot syntax, deterministically.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for _, id := range g.Nodes() {
		n := g.nodes[id]
		fmt.Fprintf(&b, "  %q [label=%q];\n", id, id+"\\n"+n.Type)
	}
	for _, from := range g.Nodes() {
		for _, to := range g.Children(from) {
			fmt.Fprintf(&b, "  %q -> %q;\n", from, to)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// CountByType tallies nodes per Type, a convenience the planners and
// experiment reports use constantly.
func (g *Graph) CountByType() map[string]int {
	out := map[string]int{}
	for _, n := range g.nodes {
		out[n.Type]++
	}
	return out
}
