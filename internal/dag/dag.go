// Package dag provides the directed-acyclic-graph structure every layer of
// the workflow system shares: Chimera emits abstract workflows as DAGs,
// Pegasus reduces and concretizes them, and DAGMan executes them (Figures 1,
// 3 and 4 of the paper are all instances of this type).
//
// Nodes carry a free-form Type and, for the four types the planners emit
// ("job", "compute", "transfer", "register"), a typed job payload that every
// layer reads directly; edges run from a node to the nodes that depend on it.
// Text exists only where a plan leaves the process: attrKeys below is the one
// table of the attribute keys each type carries in a .dag file, which Attr,
// internal/dagman's writer and its parser all go through.
package dag

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Node is one vertex of a workflow graph. Its payload is set once, by the
// node's emitter, and read-only after: graphs derived from another (a reduced
// workflow, a rescue DAG, a clone) share nodes or copy them by value, so they
// share the LFN slices too.
type Node struct {
	ID   string
	Type string

	// Job payload of "job" nodes and of the "compute" nodes made from them.
	Transformation string
	Derivation     string
	Inputs         []string // logical files read, in derivation order
	Outputs        []string // logical files written

	Site       string // compute: execution site; register: replica site
	Executable string // compute: executable path from the Transformation Catalog
	LFN        string // transfer, register: the logical file
	SrcURL     string // transfer: source physical URL
	DstURL     string // transfer: destination physical URL
	PFN        string // register: physical URL to publish
}

// Node types that carry a payload.
const (
	TypeJob      = "job"
	TypeCompute  = "compute"
	TypeTransfer = "transfer"
	TypeRegister = "register"
)

// Attribute keys: the name of each payload field in a plan's text form.
const (
	AttrTransformation = "transformation"
	AttrDerivation     = "derivation"
	AttrInputs         = "inputs"
	AttrOutputs        = "outputs"
	AttrSite           = "site"
	AttrExecutable     = "executable"
	AttrSrcURL         = "src"
	AttrDstURL         = "dst"
	AttrLFN            = "lfn"
	AttrPFN            = "pfn"
)

// attrKeys maps each payload type to its attribute keys, sorted: the fixed
// set its emitter fills and the order a .dag file lists them in.
var attrKeys = map[string][]string{
	TypeJob:      {AttrDerivation, AttrInputs, AttrOutputs, AttrTransformation},
	TypeCompute:  {AttrDerivation, AttrExecutable, AttrInputs, AttrOutputs, AttrSite, AttrTransformation},
	TypeTransfer: {AttrDstURL, AttrLFN, AttrSrcURL},
	TypeRegister: {AttrLFN, AttrPFN, AttrSite},
}

// AttrKeys returns the attribute keys of a node type, sorted; none for a type
// without a payload. The slice is shared; do not change it.
func AttrKeys(typ string) []string { return attrKeys[typ] }

// fields maps each attribute key to its payload field: a string, or an LFN
// list.
var fields = map[string]func(*Node) (*string, *[]string){
	AttrTransformation: func(n *Node) (*string, *[]string) { return &n.Transformation, nil },
	AttrDerivation:     func(n *Node) (*string, *[]string) { return &n.Derivation, nil },
	AttrInputs:         func(n *Node) (*string, *[]string) { return nil, &n.Inputs },
	AttrOutputs:        func(n *Node) (*string, *[]string) { return nil, &n.Outputs },
	AttrSite:           func(n *Node) (*string, *[]string) { return &n.Site, nil },
	AttrExecutable:     func(n *Node) (*string, *[]string) { return &n.Executable, nil },
	AttrSrcURL:         func(n *Node) (*string, *[]string) { return &n.SrcURL, nil },
	AttrDstURL:         func(n *Node) (*string, *[]string) { return &n.DstURL, nil },
	AttrLFN:            func(n *Node) (*string, *[]string) { return &n.LFN, nil },
	AttrPFN:            func(n *Node) (*string, *[]string) { return &n.PFN, nil },
}

// Field returns the payload field behind an attribute key — a string, or an
// LFN list — and nil for both when key is not an attribute of n's type. Attr
// reads through it and the .dag parser writes through it, so the key-to-field
// mapping is spelled once.
func (n *Node) Field(key string) (*string, *[]string) {
	if !slices.Contains(attrKeys[n.Type], key) {
		return nil, nil
	}
	return fields[key](n)
}

// Attr returns an attribute's text: a string field as it is, an LFN list
// comma-joined (chimera refuses an LFN that is empty or holds a comma, so the
// join is reversible); "" when key is not an attribute of n's type.
func (n *Node) Attr(key string) string {
	s, list := n.Field(key)
	switch {
	case s != nil:
		return *s
	case list != nil:
		return strings.Join(*list, ",")
	}
	return ""
}

// Graph is a mutable DAG. The zero value is not usable; call New.
//
// Vertices live in a dense slice and are referred to by slot; adjacency is a
// pair of slot slices per vertex, and is the only record of the edges. Every
// read returns ids in sorted order, as the planners' determinism requires:
// the id order of the whole graph is built once after a change to the node set
// and cached; a vertex's neighbours are kept in insertion order with a flag
// recording whether that is already id order (it is whenever edges are added
// by walking sorted ids, which is how the planners add them).
//
// Any number of goroutines may read a graph nobody is changing; the cached
// order is published atomically for that reason. Changes need exclusive access.
type Graph struct {
	index map[string]int32 // id -> slot in verts
	verts []vertex         // a removed vertex keeps its slot, with node == nil
	edges int

	// Scratch of AddEdge's cycle check: mark[v] == gen means v was visited by
	// the current search, so no search clears or allocates a visited set.
	mark  []uint32
	gen   uint32
	stack []int32

	// Slabs a planner that knows its graph's size draws from (NewSized): nodes
	// for NewNode, and the windows adjacency lists grow in.
	spareNodes []Node
	spareSlots []int32
	nodeHint   int

	order atomic.Pointer[idOrder]
}

type vertex struct {
	node     *Node
	children adjacency
	parents  adjacency
}

// adjacency is one vertex's neighbours in one direction, in insertion order.
type adjacency struct {
	slots    []int32
	unsorted bool // insertion order is not id order
}

func (a *adjacency) add(g *Graph, v int32) {
	if n := len(a.slots); n > 0 && g.verts[a.slots[n-1]].node.ID > g.verts[v].node.ID {
		a.unsorted = true
	}
	if len(a.slots) == cap(a.slots) {
		// A full list moves to a window of the slab twice its size (one slot
		// for a new list: most lists of a planned graph hold one vertex)
		// while the slab has room. The window is capped, so an append past
		// it moves again instead of writing into the next list's window.
		if need := max(2*cap(a.slots), 1); len(g.spareSlots) >= need {
			w := append(g.spareSlots[:0:need], a.slots...)
			g.spareSlots = g.spareSlots[need:]
			a.slots = w
		}
	}
	a.slots = append(a.slots, v)
}

// remove deletes v, keeping the order of the rest (so a sorted list stays one).
func (a *adjacency) remove(v int32) {
	if i := slices.Index(a.slots, v); i >= 0 {
		a.slots = slices.Delete(a.slots, i, i+1)
	}
}

// idOrder is the id-sorted view of the node set.
type idOrder struct {
	byRank []int32 // live slots in id order
	rank   []int32 // slot -> position in byRank; meaningless for removed slots
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
	return &Graph{index: map[string]int32{}}
}

// NewSized returns an empty graph with room for about nodes nodes and edges
// edges: its index and vertex tables are sized for the nodes, NewNode hands
// out nodes from one slab of that many, and adjacency lists grow in windows
// of one slot slab sized for the edges. A planner that knows its graph's size builds it with a
// fixed number of allocations; a wrong hint costs only growth.
func NewSized(nodes, edges int) *Graph {
	nodes, edges = max(nodes, 0), max(edges, 0)
	return &Graph{
		index:      make(map[string]int32, nodes),
		verts:      make([]vertex, 0, nodes),
		mark:       make([]uint32, 0, nodes),
		spareSlots: make([]int32, 4*edges), // each edge is in two lists; doubling takes up to twice that
		nodeHint:   nodes,
	}
}

// NewNode returns a zero node for the caller to fill and add, carved from a
// slab the graph allocates by the node hint of NewSized (by small chunks
// without one). The node is the caller's like any other: it may be added to
// this graph or another.
func (g *Graph) NewNode() *Node {
	if len(g.spareNodes) == 0 {
		g.spareNodes = make([]Node, max(g.nodeHint-len(g.verts), 16))
	}
	n := &g.spareNodes[0]
	g.spareNodes = g.spareNodes[1:]
	return n
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.index) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddNode inserts a node; the ID must be unique.
func (g *Graph) AddNode(n *Node) error {
	if n == nil || n.ID == "" {
		return errors.New("dag: nil or unnamed node")
	}
	if _, dup := g.index[n.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDupNode, n.ID)
	}
	g.index[n.ID] = int32(len(g.verts))
	g.verts = append(g.verts, vertex{node: n})
	g.mark = append(g.mark, 0)
	g.order.Store(nil)
	return nil
}

// Node returns the node with the given ID.
func (g *Graph) Node(id string) (*Node, bool) {
	v, ok := g.index[id]
	if !ok {
		return nil, false
	}
	return g.verts[v].node, true
}

// AddEdge adds a dependency edge from -> to ("to depends on from"). Both
// nodes must exist and the edge must not create a cycle.
func (g *Graph) AddEdge(from, to string) error {
	if from == to {
		return fmt.Errorf("%w: %q", ErrSelfEdge, from)
	}
	f, ok := g.index[from]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, from)
	}
	t, ok := g.index[to]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, to)
	}
	if g.hasEdge(f, t) {
		return nil // idempotent
	}
	// Reject cycles: "to" must not reach "from".
	if g.reaches(t, f) {
		return fmt.Errorf("%w: %s -> %s", ErrCycle, from, to)
	}
	g.edges++
	g.verts[f].children.add(g, t)
	g.verts[t].parents.add(g, f)
	return nil
}

// reaches reports whether a path exists from src to dst (src != dst). It is
// AddEdge's check and uses the graph's scratch, so it belongs to the writer.
func (g *Graph) reaches(src, dst int32) bool {
	// A path needs a first edge out of src and a last edge into dst; an edge
	// to or from a node just added has neither, which is most edges a planner
	// adds.
	if len(g.verts[src].children.slots) == 0 || len(g.verts[dst].parents.slots) == 0 {
		return false
	}
	g.gen++
	if g.gen == 0 { // wrapped: stale marks could collide with a reused stamp
		clear(g.mark)
		g.gen = 1
	}
	g.mark[src] = g.gen
	stack := append(g.stack[:0], src)
	found := false
search:
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range g.verts[cur].children.slots {
			if next == dst {
				found = true
				break search
			}
			if g.mark[next] != g.gen {
				g.mark[next] = g.gen
				stack = append(stack, next)
			}
		}
	}
	g.stack = stack[:0]
	return found
}

// HasEdge reports whether the edge from -> to exists.
func (g *Graph) HasEdge(from, to string) bool {
	f, ok := g.index[from]
	if !ok {
		return false
	}
	t, ok := g.index[to]
	if !ok {
		return false
	}
	return g.hasEdge(f, t)
}

// hasEdge scans the shorter of f's children and t's parents. A planned graph's
// lists are short on at least one end — the wide ones are a collector's
// parents — so the scan is as cheap as an edge-set lookup, and the graph keeps
// no edge set beside its adjacency.
func (g *Graph) hasEdge(f, t int32) bool {
	children, parents := g.verts[f].children.slots, g.verts[t].parents.slots
	if len(children) <= len(parents) {
		return slices.Contains(children, t)
	}
	return slices.Contains(parents, f)
}

// RemoveNode deletes a node and all its edges.
func (g *Graph) RemoveNode(id string) error {
	v, ok := g.index[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, id)
	}
	for _, c := range g.verts[v].children.slots {
		g.verts[c].parents.remove(v)
		g.edges--
	}
	for _, p := range g.verts[v].parents.slots {
		g.verts[p].children.remove(v)
		g.edges--
	}
	g.verts[v] = vertex{}
	delete(g.index, id)
	g.order.Store(nil)
	return nil
}

// sorted returns the id order of the node set, building it on first use after
// a change. Readers of an unchanging graph may race to build it; they build
// equal values and publish them atomically.
func (g *Graph) sorted() *idOrder {
	if o := g.order.Load(); o != nil {
		return o
	}
	o := &idOrder{byRank: make([]int32, 0, len(g.index)), rank: make([]int32, len(g.verts))}
	for v := range g.verts {
		if g.verts[v].node != nil {
			o.byRank = append(o.byRank, int32(v))
		}
	}
	byID := func(a, b int32) int { return strings.Compare(g.verts[a].node.ID, g.verts[b].node.ID) }
	if !slices.IsSortedFunc(o.byRank, byID) {
		slices.SortFunc(o.byRank, byID)
	}
	for r, v := range o.byRank {
		o.rank[v] = int32(r)
	}
	g.order.Store(o)
	return o
}

// ids renders slots as node ids.
func (g *Graph) ids(slots []int32) []string {
	out := make([]string, len(slots))
	for i, v := range slots {
		out[i] = g.verts[v].node.ID
	}
	return out
}

// neighbours returns one adjacency list as sorted ids.
func (g *Graph) neighbours(a *adjacency) []string {
	return g.appendNeighbours(make([]string, 0, len(a.slots)), a)
}

// appendNeighbours appends one adjacency list to dst as sorted ids.
func (g *Graph) appendNeighbours(dst []string, a *adjacency) []string {
	start := len(dst)
	for _, v := range a.slots {
		dst = append(dst, g.verts[v].node.ID)
	}
	if a.unsorted {
		slices.Sort(dst[start:])
	}
	return dst
}

// Nodes returns all node IDs, sorted.
func (g *Graph) Nodes() []string { return g.ids(g.sorted().byRank) }

// Children returns the IDs depending on id, sorted.
func (g *Graph) Children(id string) []string {
	v, ok := g.index[id]
	if !ok {
		return []string{}
	}
	return g.neighbours(&g.verts[v].children)
}

// AppendChildren appends the IDs depending on id to dst, sorted, and returns
// the extended slice: Children for a caller walking many vertices with one
// reused buffer.
func (g *Graph) AppendChildren(dst []string, id string) []string {
	v, ok := g.index[id]
	if !ok {
		return dst
	}
	return g.appendNeighbours(dst, &g.verts[v].children)
}

// Parents returns the IDs id depends on, sorted.
func (g *Graph) Parents(id string) []string {
	v, ok := g.index[id]
	if !ok {
		return []string{}
	}
	return g.neighbours(&g.verts[v].parents)
}

// Positions is the graph read by position, for an executor that keeps its
// per-node state in slices: position i is the i-th id Nodes returns, and the
// children of every position are listed by position, in that same id order.
type Positions struct {
	Nodes []*Node
	start []int32 // the children of i are kids[start[i]:start[i+1]]
	kids  []int32
}

// Positions builds the graph's position view from the slot adjacency in one
// pass: a fixed number of allocations, whatever the graph's size.
func (g *Graph) Positions() *Positions {
	o := g.sorted()
	n := len(o.byRank)
	p := &Positions{
		Nodes: make([]*Node, n),
		start: make([]int32, n+1),
		kids:  make([]int32, 0, g.edges),
	}
	for r, v := range o.byRank {
		vx := &g.verts[v]
		p.Nodes[r] = vx.node
		p.start[r] = int32(len(p.kids))
		for _, c := range vx.children.slots {
			p.kids = append(p.kids, o.rank[c])
		}
		if vx.children.unsorted {
			slices.Sort(p.kids[p.start[r]:]) // ranks ascend in id order
		}
	}
	p.start[n] = int32(len(p.kids))
	return p
}

// Children returns the positions depending on position i, in id order. The
// slice is shared; do not change it.
func (p *Positions) Children(i int) []int32 { return p.kids[p.start[i]:p.start[i+1]] }

// Roots returns nodes with no parents, sorted.
func (g *Graph) Roots() []string {
	return g.filter(func(v *vertex) bool { return len(v.parents.slots) == 0 })
}

// Leaves returns nodes with no children, sorted.
func (g *Graph) Leaves() []string {
	return g.filter(func(v *vertex) bool { return len(v.children.slots) == 0 })
}

// filter returns the ids of the vertices keep accepts, sorted; nil when none.
func (g *Graph) filter(keep func(*vertex) bool) []string {
	byRank := g.sorted().byRank
	n := 0
	for _, v := range byRank {
		if keep(&g.verts[v]) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, v := range byRank {
		if keep(&g.verts[v]) {
			out = append(out, g.verts[v].node.ID)
		}
	}
	return out
}

// TopoSort returns the nodes in a deterministic topological order (Kahn's
// algorithm, always emitting the lexicographically smallest ready node).
func (g *Graph) TopoSort() ([]string, error) {
	order, err := g.topo()
	if err != nil {
		return nil, err
	}
	return g.ids(order), nil
}

// topo is TopoSort in slots. The ready heap holds ranks in the cached id
// order, so picking the smallest ready id compares integers, not strings.
func (g *Graph) topo() ([]int32, error) {
	o := g.sorted()
	indeg := make([]int32, len(g.verts))
	ready := make(minHeap, 0, len(o.byRank))
	for r, v := range o.byRank {
		indeg[v] = int32(len(g.verts[v].parents.slots))
		if indeg[v] == 0 {
			ready = append(ready, int32(r)) // ascending, so already a heap
		}
	}
	order := make([]int32, 0, len(o.byRank))
	for len(ready) > 0 {
		cur := o.byRank[ready.pop()]
		order = append(order, cur)
		for _, c := range g.verts[cur].children.slots {
			indeg[c]--
			if indeg[c] == 0 {
				ready.push(o.rank[c])
			}
		}
	}
	if len(order) != len(o.byRank) {
		return nil, ErrCycle
	}
	return order, nil
}

// minHeap is a binary min-heap of ranks. container/heap would box every
// element into an interface.
type minHeap []int32

func (h *minHeap) push(r int32) {
	s := append(*h, r)
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

func (h *minHeap) pop() int32 {
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
	order, err := g.topo()
	if err != nil {
		return nil, err
	}
	depth := make([]int, len(g.verts))
	maxDepth := 0
	for _, v := range order {
		for _, p := range g.verts[v].parents.slots {
			depth[v] = max(depth[v], depth[p]+1)
		}
		maxDepth = max(maxDepth, depth[v])
	}
	levels := make([][]string, maxDepth+1)
	for _, v := range g.sorted().byRank { // id order, so each level comes out sorted
		levels[depth[v]] = append(levels[depth[v]], g.verts[v].node.ID)
	}
	return levels, nil
}

// Ancestors returns every node from which id is reachable.
func (g *Graph) Ancestors(id string) []string {
	return g.closure(id, func(v *vertex) []int32 { return v.parents.slots })
}

// Descendants returns every node reachable from id.
func (g *Graph) Descendants(id string) []string {
	return g.closure(id, func(v *vertex) []int32 { return v.children.slots })
}

// closure returns, sorted, every node reachable from id along next. It is a
// read, so its visited set is its own and not the cycle check's scratch.
func (g *Graph) closure(id string, next func(*vertex) []int32) []string {
	start, ok := g.index[id]
	if !ok {
		return []string{}
	}
	seen := make([]bool, len(g.verts))
	seen[start] = true
	var found []int32
	for stack := []int32{start}; len(stack) > 0; {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range next(&g.verts[cur]) {
			if !seen[v] {
				seen[v] = true
				found = append(found, v)
				stack = append(stack, v)
			}
		}
	}
	rank := g.sorted().rank
	slices.SortFunc(found, func(a, b int32) int { return int(rank[a] - rank[b]) })
	return g.ids(found)
}

// Clone returns a copy of the graph whose nodes are copies by value: a clone's
// node can be changed without touching the original's, and the read-only LFN
// slices are shared.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		index: make(map[string]int32, len(g.index)),
		verts: make([]vertex, 0, len(g.index)),
		edges: g.edges,
		mark:  make([]uint32, len(g.index)),
	}
	// Removed slots are squeezed out, so slots are renumbered.
	slot := make([]int32, len(g.verts))
	for v := range g.verts {
		n := g.verts[v].node
		if n == nil {
			continue
		}
		c := *n
		slot[v] = int32(len(out.verts))
		out.index[n.ID] = slot[v]
		out.verts = append(out.verts, vertex{node: &c})
	}
	renumber := func(a adjacency) adjacency {
		if len(a.slots) == 0 {
			return adjacency{}
		}
		b := adjacency{slots: make([]int32, len(a.slots)), unsorted: a.unsorted}
		for i, v := range a.slots {
			b.slots[i] = slot[v]
		}
		return b
	}
	for v := range g.verts {
		if g.verts[v].node == nil {
			continue
		}
		c := &out.verts[slot[v]]
		c.children, c.parents = renumber(g.verts[v].children), renumber(g.verts[v].parents)
	}
	return out
}

// DOT renders the graph in Graphviz dot syntax, deterministically.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for _, id := range g.Nodes() {
		n, _ := g.Node(id)
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
	for _, v := range g.verts {
		if v.node != nil {
			out[v.node.Type]++
		}
	}
	return out
}
