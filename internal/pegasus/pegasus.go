// Package pegasus implements the planner half of the GriPhyN Virtual Data
// System as the paper configures it (§3.2, Figure 2): it receives an
// abstract workflow from Chimera and produces a concrete, executable
// workflow by
//
//  1. reducing the abstract DAG against the Replica Location Service —
//     jobs whose data products already exist anywhere in the Grid are
//     pruned, on the assumption that fetching data is always cheaper than
//     recomputing it (Figures 1 → 3 of the paper);
//  2. checking feasibility — the root jobs' input files must exist in the
//     RLS and be reachable by a transport protocol;
//  3. mapping each remaining job onto a site where the Transformation
//     Catalog has its executable (random, round-robin, or MDS-driven
//     least-loaded selection);
//  4. adding transfer nodes that stage inputs to the chosen sites (replica
//     source picked at random, as in the paper), transfer nodes that
//     deliver requested outputs to the user's storage location U, and
//     registration nodes that publish new data products in the RLS
//     (Figure 4);
//  5. generating Condor-G submit files and the DAGMan .dag file.
package pegasus

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"
	"unicode/utf8"

	"repro/internal/chimera"
	"repro/internal/dag"
	"repro/internal/gridftp"
	"repro/internal/mds"
	"repro/internal/rls"
	"repro/internal/tcat"
)

// Node types in concrete workflows.
const (
	NodeCompute  = dag.TypeCompute
	NodeTransfer = dag.TypeTransfer
	NodeRegister = dag.TypeRegister
)

// Attribute keys of concrete-workflow nodes in a plan's text form (see
// dag.Node.Attr).
const (
	AttrSite       = dag.AttrSite
	AttrExecutable = dag.AttrExecutable
	AttrSrcURL     = dag.AttrSrcURL
	AttrDstURL     = dag.AttrDstURL
	AttrLFN        = dag.AttrLFN
	AttrPFN        = dag.AttrPFN
)

// SiteSelection is the policy for mapping jobs to sites.
type SiteSelection int

// Site-selection policies. The paper's prototype "picks a random location to
// execute from among the returned locations"; round-robin and least-loaded
// are the natural alternatives its related-work section discusses.
// SelectLocality is the replica-cost policy this repo adds: a job runs where
// its input replicas already live, so data moves only when it must.
const (
	SelectRandom SiteSelection = iota
	SelectRoundRobin
	SelectLeastLoaded
	SelectLocality
)

// Errors returned by the planner.
var (
	ErrInfeasible = errors.New("pegasus: workflow infeasible: missing input replicas")
	ErrNoSite     = errors.New("pegasus: no site can run transformation")
	ErrNeedMDS    = errors.New("pegasus: least-loaded selection requires an MDS service")
)

// Config wires the planner to its information services.
type Config struct {
	RLS *rls.RLS
	TC  *tcat.Catalog
	MDS *mds.Service // required for SelectLeastLoaded

	Selection SiteSelection
	// Rand drives random site and replica selection; a fixed seed makes
	// plans reproducible. Defaults to a seed-1 source.
	Rand *rand.Rand

	// NoReduce disables the abstract-DAG reduction (ablation A1).
	NoReduce bool

	// OutputSite is the user-specified storage location U; requested
	// outputs are delivered there and, when RegisterOutputs is set,
	// registered with their U replica.
	OutputSite string
	// RegisterOutputs adds RLS registration nodes for every data product.
	RegisterOutputs bool

	// Net is the link-cost model SelectLocality scores candidate sites
	// with; the zero value uses the gridftp defaults (10 MB/s wide-area,
	// 100 MB/s local, 50 ms latency).
	Net gridftp.Network
	// SizeOf reports the size in bytes of an existing logical file, for
	// replica-cost scoring and planner byte estimates. Files it cannot
	// size (or a nil hook) are assumed to be defaultFileSize.
	SizeOf func(lfn string) int64
}

// defaultFileSize stands in for files whose size the planner cannot learn
// (e.g. outputs not yet materialized): the ~1 MB of a cutout image, the
// dominant file class in the paper's workload.
const defaultFileSize = 1 << 20

func (c Config) sizeOf(lfn string) int64 {
	if c.SizeOf != nil {
		if s := c.SizeOf(lfn); s > 0 {
			return s
		}
	}
	return defaultFileSize
}

func (c Config) rng() *rand.Rand {
	if c.Rand != nil {
		return c.Rand
	}
	return rand.New(rand.NewSource(1))
}

// Plan is the planner's result.
type Plan struct {
	// Abstract is the workflow as received (not mutated).
	Abstract *dag.Graph
	// Reduced is the abstract workflow after RLS-based pruning. It shares
	// its nodes with Abstract, and is Abstract when nothing was pruned: read
	// both, change neither.
	Reduced *dag.Graph
	// Concrete is the executable workflow with transfer/register nodes.
	Concrete *dag.Graph

	// PrunedJobs are abstract jobs eliminated because their outputs were
	// already materialized.
	PrunedJobs []string
	// ReusedLFNs are files satisfied from existing replicas.
	ReusedLFNs []string
	// SiteOf maps each compute job to its execution site.
	SiteOf map[string]string

	// Replicas is the replica snapshot the whole plan was computed from,
	// fetched in a single RLS BulkLookup. Callers may prime a read-through
	// rls.Cache with it so the runner's lookups are free.
	Replicas map[string][]rls.PFN
	// EstBytesMoved is the planner's estimate of bytes the transfer nodes
	// will move (sum of input sizes over stage-in/inter-stage/stage-out
	// nodes) — the quantity SelectLocality minimizes.
	EstBytesMoved int64
	// RLSRoundTrips is the number of RLS read round trips this plan cost.
	RLSRoundTrips int64
}

// Stats summarizes a plan for reports and experiments.
type Stats struct {
	AbstractJobs  int
	PrunedJobs    int
	ComputeJobs   int
	TransferNodes int
	RegisterNodes int
}

// Stats computes the plan's node counts.
func (p *Plan) Stats() Stats {
	byType := p.Concrete.CountByType()
	return Stats{
		AbstractJobs:  p.Abstract.Len(),
		PrunedJobs:    len(p.PrunedJobs),
		ComputeJobs:   byType[NodeCompute],
		TransferNodes: byType[NodeTransfer],
		RegisterNodes: byType[NodeRegister],
	}
}

// Map plans an abstract workflow onto the Grid, producing a concrete plan.
func Map(wf *chimera.Workflow, cfg Config) (*Plan, error) {
	return mapPinned(wf, cfg, nil)
}

// mapPinned is the planner body behind Map. pin pre-assigns sites (job id ->
// site): a pinned job skips site selection and runs where the caller says,
// provided the Transformation Catalog has its executable there. The one
// caller that pins is the wave planner's collector wave, whose site is a
// function of the request rather than a policy choice — which is why the pin
// is a parameter here and not a Config field.
func mapPinned(wf *chimera.Workflow, cfg Config, pin map[string]string) (*Plan, error) {
	if wf == nil || wf.Graph == nil || wf.Graph.Len() == 0 {
		return nil, errors.New("pegasus: empty workflow")
	}
	if cfg.RLS == nil || cfg.TC == nil {
		return nil, errors.New("pegasus: RLS and TC are required")
	}
	if cfg.Selection == SelectLeastLoaded && cfg.MDS == nil {
		return nil, ErrNeedMDS
	}
	rng := cfg.rng()

	p := &Plan{Abstract: wf.Graph}

	// --- 0. Replica snapshot: every planner decision below reads replica
	// state from one BulkLookup over the workflow's whole file set — a
	// single RLS round trip per plan, however many LFNs the request names
	// (previously reduction + feasibility + source selection each paid one
	// round trip per LFN).
	before := cfg.RLS.RoundTrips()
	lfns := workflowLFNs(wf)
	snap := cfg.RLS.BulkLookup(lfns)
	p.Replicas = snap

	// --- 1. Abstract DAG reduction (Figure 2 step "Abstract DAG reduction").
	reduced, pruned, reused := reduce(wf, cfg, snap, len(lfns)-len(snap))
	p.Reduced = reduced
	p.PrunedJobs = pruned
	p.ReusedLFNs = reused

	// --- 2. Feasibility: every input consumed from outside the reduced
	// workflow must have a replica. producerOf maps each file the reduced
	// workflow makes to the job making it.
	jobs := reduced.Nodes()
	producerOf := make(map[string]string, len(jobs))
	for _, id := range jobs {
		for _, lfn := range job(reduced, id).Outputs {
			producerOf[lfn] = id
		}
	}
	var missing []string
	for _, id := range jobs {
		for _, lfn := range job(reduced, id).Inputs {
			if producerOf[lfn] == "" && len(snap[lfn]) == 0 {
				missing = append(missing, lfn)
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, dedup(missing))
	}

	// --- 3 & 4. Site selection and concrete workflow construction.
	p.SiteOf = make(map[string]string, len(jobs))
	c := &concretizer{p: p, cfg: cfg, reduced: reduced, jobs: jobs}
	if err := c.decide(wf, rng, snap, pin, producerOf); err != nil {
		return nil, err
	}
	if err := c.build(); err != nil {
		return nil, err
	}
	p.RLSRoundTrips = cfg.RLS.RoundTrips() - before
	return p, nil
}

// job returns the node of a job id known to be in g.
func job(g *dag.Graph, id string) *dag.Node {
	n, _ := g.Node(id)
	return n
}

// workflowLFNs collects every logical file the plan can touch — requested
// outputs plus all job inputs and outputs — sorted and deduplicated, so one
// BulkLookup covers the planner's entire replica working set.
func workflowLFNs(wf *chimera.Workflow) []string {
	g := wf.Graph
	ids := g.Nodes()
	n := len(wf.RequestedLFNs)
	for _, id := range ids {
		nd := job(g, id)
		n += len(nd.Inputs) + len(nd.Outputs)
	}
	all := make([]string, 0, n)
	all = append(all, wf.RequestedLFNs...)
	for _, id := range ids {
		nd := job(g, id)
		all = append(all, nd.Inputs...)
		all = append(all, nd.Outputs...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// reduce prunes jobs whose required outputs already exist in the RLS. A job
// survives only if one of its outputs is required and absent: requirements
// start at the requested LFNs and propagate to the inputs of surviving jobs
// (walked in reverse topological order). The reduced graph is assembled from
// the survivors and shares their nodes with the abstract one; when every job
// survives it is the abstract graph. Nothing downstream writes to either.
// absent is how many of the workflow's files have no replica: the most the
// requirement set can hold.
func reduce(wf *chimera.Workflow, cfg Config, snap map[string][]rls.PFN, absent int) (g *dag.Graph, pruned, reused []string) {
	if cfg.NoReduce {
		return wf.Graph, nil, nil
	}
	order, err := wf.Graph.TopoSort()
	if err != nil {
		// Chimera guarantees acyclicity; a cycle here is a programming
		// error upstream, and returning the unreduced graph is safe.
		return wf.Graph, nil, nil
	}

	required := make(map[string]bool, absent)
	reused = make([]string, 0, len(snap)) // files with replicas, most once
	for _, lfn := range wf.RequestedLFNs {
		if len(snap[lfn]) > 0 {
			reused = append(reused, lfn)
		} else {
			required[lfn] = true
		}
	}

	var drop map[string]bool // made by the first pruned job
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		n := job(wf.Graph, id)
		needed := false
		for _, lfn := range n.Outputs {
			if required[lfn] {
				needed = true
				break
			}
		}
		if !needed {
			if drop == nil {
				drop = map[string]bool{}
			}
			drop[id] = true
			continue
		}
		for _, lfn := range n.Inputs {
			if len(snap[lfn]) > 0 {
				reused = append(reused, lfn)
			} else {
				required[lfn] = true
			}
		}
	}
	slices.Sort(reused)
	return subgraph(wf.Graph, drop), sortedKeys(drop), slices.Compact(reused)
}

// subgraph returns the graph of src's nodes outside drop with the edges among
// them: src itself when nothing is dropped, else a new graph sharing the nodes.
func subgraph(src *dag.Graph, drop map[string]bool) *dag.Graph {
	if len(drop) == 0 {
		return src
	}
	g := dag.NewSized(src.Len()-len(drop), src.NumEdges())
	ids := src.Nodes()
	for _, id := range ids {
		if !drop[id] {
			n, _ := src.Node(id)
			_ = g.AddNode(n) // ids are unique in src
		}
	}
	var kids []string
	for _, id := range ids {
		if drop[id] {
			continue
		}
		kids = src.AppendChildren(kids[:0], id)
		for _, child := range kids {
			if !drop[child] {
				_ = g.AddEdge(id, child) // both ends were added; src is acyclic
			}
		}
	}
	return g
}

// concretizer performs site selection and inserts transfer and registration
// nodes around the reduced workflow's compute jobs, in two passes. decide
// walks the jobs in emission order: it draws every site and replica choice
// from the plan's rng, spells every node id and URL the plan adds into one
// text buffer, and records each transfer and registration as an emission.
// build converts the buffer to a string once, sizes the graph by what decide
// counted, and adds the nodes — from the graph's slab — and the edges in the
// order decide recorded them. Its three emitters are the only code that
// creates concrete-workflow nodes.
type concretizer struct {
	p       *Plan
	cfg     Config
	reduced *dag.Graph
	jobs    []string // site-selection order
	exe     []string // per job: the executable at its site

	text  []byte // every id and URL the plan spells, back to back
	str   string // text, once decide is done
	ems   []emission
	edges int // edges build adds
	cw    *dag.Graph
}

// span is a string of the concretizer's text by offsets.
type span struct{ lo, hi int32 }

// emission is one transfer or registration node, as decide recorded it.
type emission struct {
	typ    string // NodeTransfer or NodeRegister
	lfn    string
	site   string // register: the replica's site
	id     span
	src    span   // transfer: the source URL, when spelled here...
	srcURL string // ...else the existing replica's
	dst    span   // transfer: the destination URL; register: the PFN
	// The node runs after the job after, or after the emission afterEm (-1:
	// neither). A stage-in or inter-stage transfer also feeds the job feeds,
	// and is shared by every consumer of the file at that site: build adds it
	// only if no node has its id yet.
	after   string
	afterEm int32
	feeds   string
}

// spell appends prefix, the id fragment of lfn and then rest to the text, and
// returns the span written.
func (c *concretizer) spell(prefix, lfn string, rest ...string) span {
	lo := len(c.text)
	c.text = append(c.text, prefix...)
	c.text = appendFragment(c.text, lfn)
	for _, r := range rest {
		c.text = append(c.text, r...)
	}
	return span{int32(lo), int32(len(c.text))}
}

// url appends gridftp.URL(site, lfn) to the text and returns its span.
func (c *concretizer) url(site, lfn string) span {
	lo := len(c.text)
	c.text = gridftp.AppendURL(c.text, site, lfn)
	return span{int32(lo), int32(len(c.text))}
}

// at returns the string of a span; valid once decide is done.
func (c *concretizer) at(s span) string { return c.str[s.lo:s.hi] }

// emit records e and the edges build will give it, and returns its index.
func (c *concretizer) emit(e emission) int32 {
	if e.after != "" || e.afterEm >= 0 {
		c.edges++
	}
	if e.feeds != "" {
		c.edges++
	}
	c.ems = append(c.ems, e)
	return int32(len(c.ems) - 1)
}

// decide is the first pass: site selection in deterministic job order (jobs
// arrives sorted by id), then the transfers and registrations in the order the
// plan has always emitted them, which is also the order the rng is drawn in.
// SelectLocality assigns in topological order instead, so a consumer can see
// where its producers landed and follow the bytes.
func (c *concretizer) decide(wf *chimera.Workflow, rng *rand.Rand, snap map[string][]rls.PFN,
	pin map[string]string, producerOf map[string]string) error {
	p, cfg, reduced := c.p, c.cfg, c.reduced
	if cfg.Selection == SelectLocality {
		if order, err := reduced.TopoSort(); err == nil {
			c.jobs = order
		}
	}
	c.exe = make([]string, len(c.jobs))
	rrIndex := 0
	assigned := map[string]int{} // jobs per site, for locality tie-breaks
	// candidates asks the TC once per transformation, not once per job.
	asked := map[string][]tcat.Entry{}
	candidates := func(tr string) ([]tcat.Entry, error) {
		if entries, ok := asked[tr]; ok {
			return entries, nil
		}
		entries, err := cfg.TC.Lookup(tr)
		if err == nil {
			asked[tr] = entries
		}
		return entries, err
	}
	files := 0
	for i, id := range c.jobs {
		n := job(reduced, id)
		files += len(n.Inputs) + len(n.Outputs)
		tr := n.Transformation
		site := pin[id]
		if site == "" {
			entries, err := candidates(tr)
			if err != nil {
				return fmt.Errorf("%w: %q (%v)", ErrNoSite, tr, err)
			}
			switch cfg.Selection {
			case SelectRoundRobin:
				site = entries[rrIndex%len(entries)].Site
				rrIndex++
			case SelectLeastLoaded:
				sites := make([]string, len(entries))
				for i, e := range entries {
					sites[i] = e.Site
				}
				site, err = cfg.MDS.LeastLoaded(sites...)
				if err != nil {
					return fmt.Errorf("%w: %q (%v)", ErrNoSite, tr, err)
				}
				// Planner-side load accounting so successive picks spread out.
				_ = cfg.MDS.AddLoad(site, 1)
			case SelectLocality:
				site = pickByLocality(cfg, entries, n.Inputs, snap, producerOf, p.SiteOf, assigned)
				assigned[site]++
			default: // SelectRandom — the paper's behaviour
				site = entries[rng.Intn(len(entries))].Site
			}
		}
		exe, err := cfg.TC.LookupSite(tr, site)
		if err != nil {
			return fmt.Errorf("%w: %q at %q", ErrNoSite, tr, site)
		}
		p.SiteOf[id] = site
		c.exe[i] = exe.Path
	}
	c.edges = reduced.NumEdges()
	// A job's file emits at most two nodes (a transfer and a registration),
	// each with a node id and at most two URLs of some 40 bytes.
	c.ems = make([]emission, 0, files)
	c.text = make([]byte, 0, 64*files)

	// Transfer nodes for inputs: one per (file, destination site), shared by
	// every job there that consumes the file.
	for _, id := range c.jobs {
		site := p.SiteOf[id]
		for _, lfn := range job(reduced, id).Inputs {
			e := emission{typ: NodeTransfer, lfn: lfn, afterEm: -1, feeds: id}
			if prod := producerOf[lfn]; prod != "" {
				// Inter-stage: producer runs in this workflow.
				srcSite := p.SiteOf[prod]
				if srcSite == site {
					continue // same site: no staging needed
				}
				e.id = c.spell("tx_", lfn, "_", srcSite, "_to_", site)
				e.src = c.url(srcSite, lfn)
				e.after = prod
			} else {
				// Stage-in from an existing replica, read from the plan's
				// snapshot. The source replica is picked at random, as in the
				// paper — except under SelectLocality, which takes the cheapest
				// link deterministically.
				replicas := snap[lfn]
				if len(replicas) == 0 {
					return fmt.Errorf("%w: %q", ErrInfeasible, lfn)
				}
				if replicaAt(replicas, site) {
					continue // replica already local: genuinely nothing to move
				}
				e.id = c.spell("stagein_", lfn, "_to_", site)
				e.srcURL = pickSource(cfg, rng, replicas, site, lfn).URL
			}
			e.dst = c.url(site, lfn)
			c.emit(e)
		}
	}

	// Output delivery and registration.
	requested := make(map[string]bool, len(wf.RequestedLFNs))
	for _, lfn := range wf.RequestedLFNs {
		requested[lfn] = true
	}
	for _, id := range c.jobs {
		site := p.SiteOf[id]
		for _, lfn := range job(reduced, id).Outputs {
			finalSite, after, afterEm := site, id, int32(-1)
			if requested[lfn] && cfg.OutputSite != "" && cfg.OutputSite != site {
				finalSite = cfg.OutputSite
				afterEm = c.emit(emission{typ: NodeTransfer, lfn: lfn,
					id: c.spell("stageout_", lfn, "_to_", finalSite), src: c.url(site, lfn),
					dst: c.url(finalSite, lfn), after: id, afterEm: -1})
				after = ""
			}
			if cfg.RegisterOutputs {
				c.emit(emission{typ: NodeRegister, lfn: lfn, site: finalSite,
					id: c.spell("reg_", lfn), dst: c.url(finalSite, lfn), after: after, afterEm: afterEm})
			}
		}
	}

	// Requested files fully satisfied from the RLS still need delivery to U.
	if cfg.OutputSite != "" {
		for _, lfn := range wf.RequestedLFNs {
			replicas := snap[lfn]
			// No replicas cannot happen for a file nobody here produces:
			// reduction and feasibility guarantee it.
			if producerOf[lfn] != "" || len(replicas) == 0 || replicaAt(replicas, cfg.OutputSite) {
				continue
			}
			src := pickSource(cfg, rng, replicas, cfg.OutputSite, lfn)
			tx := c.emit(emission{typ: NodeTransfer, lfn: lfn,
				id: c.spell("stageout_", lfn, "_to_", cfg.OutputSite), srcURL: src.URL,
				dst: c.url(cfg.OutputSite, lfn), afterEm: -1})
			if cfg.RegisterOutputs {
				c.emit(emission{typ: NodeRegister, lfn: lfn, site: cfg.OutputSite,
					id: c.spell("reg_", lfn), dst: c.url(cfg.OutputSite, lfn), afterEm: tx})
			}
		}
	}
	return nil
}

// build is the second pass: the compute nodes and their edges, then every
// emission in order.
func (c *concretizer) build() error {
	c.str = string(c.text)
	c.text = nil
	c.cw = dag.NewSized(len(c.jobs)+len(c.ems), c.edges)
	for i, id := range c.jobs {
		if err := c.compute(job(c.reduced, id), c.p.SiteOf[id], c.exe[i]); err != nil {
			return err
		}
	}

	// Dependency edges between surviving compute jobs.
	var kids []string
	for _, id := range c.jobs {
		kids = c.reduced.AppendChildren(kids[:0], id)
		for _, child := range kids {
			if err := c.cw.AddEdge(id, child); err != nil {
				return err
			}
		}
	}

	for i := range c.ems {
		e := &c.ems[i]
		var err error
		switch {
		case e.typ == NodeRegister:
			err = c.register(e)
		case e.feeds == "":
			err = c.transfer(e)
		default:
			if _, exists := c.cw.Node(c.at(e.id)); !exists {
				err = c.transfer(e)
			}
			if err == nil {
				err = c.cw.AddEdge(c.at(e.id), e.feeds)
			}
		}
		if err != nil {
			return err
		}
	}
	c.p.Concrete = c.cw
	return nil
}

// compute adds a compute node: the abstract job by value, sharing its LFN
// slices, with the site and executable the mapping chose.
//
//nvo:hotpath
func (c *concretizer) compute(abstract *dag.Node, site, exe string) error {
	n := c.cw.NewNode()
	*n = *abstract
	n.Type, n.Site, n.Executable = NodeCompute, site, exe
	return c.cw.AddNode(n)
}

// transfer adds the transfer node of e, after the node it runs after when
// there is one.
//
//nvo:hotpath
func (c *concretizer) transfer(e *emission) error {
	n := c.cw.NewNode()
	*n = dag.Node{ID: c.at(e.id), Type: NodeTransfer, LFN: e.lfn, SrcURL: e.srcURL, DstURL: c.at(e.dst)}
	if n.SrcURL == "" {
		n.SrcURL = c.at(e.src)
	}
	if err := c.cw.AddNode(n); err != nil {
		return err
	}
	c.p.EstBytesMoved += c.cfg.sizeOf(e.lfn)
	return c.edgeAfter(e, n.ID)
}

// register adds the registration node of e: it publishes the file's replica
// at e.site once the node it runs after has run.
//
//nvo:hotpath
func (c *concretizer) register(e *emission) error {
	n := c.cw.NewNode()
	*n = dag.Node{ID: c.at(e.id), Type: NodeRegister, LFN: e.lfn, Site: e.site, PFN: c.at(e.dst)}
	if err := c.cw.AddNode(n); err != nil {
		return err
	}
	return c.edgeAfter(e, n.ID)
}

// edgeAfter adds the edge from the node e runs after, if any, to id.
func (c *concretizer) edgeAfter(e *emission, id string) error {
	switch {
	case e.after != "":
		return c.cw.AddEdge(e.after, id)
	case e.afterEm >= 0:
		return c.cw.AddEdge(c.at(c.ems[e.afterEm].id), id)
	}
	return nil
}

// replicaAt reports whether one of the replicas is stored at site.
func replicaAt(replicas []rls.PFN, site string) bool {
	for _, r := range replicas {
		if r.Site == site {
			return true
		}
	}
	return false
}

// pickByLocality scores each candidate site by the simulated cost of moving
// the job's inputs there — for every input not already replicated at the
// site, the cheapest link from an existing replica (or from the producer's
// assigned site for inter-stage files), weighted by file size — and returns
// the cheapest site. Ties break toward the site with fewer jobs assigned so
// equal-cost work still spreads across pools, then by name; the whole pick
// is deterministic, which the kill/resume byte-identity sweep depends on.
func pickByLocality(cfg Config, entries []tcat.Entry, inputs []string,
	snap map[string][]rls.PFN, producerOf, siteOf map[string]string,
	assigned map[string]int) string {

	net := cfg.Net
	best := ""
	var bestCost time.Duration
	for _, e := range entries {
		site := e.Site
		var cost time.Duration
		for _, lfn := range inputs {
			size := cfg.sizeOf(lfn)
			if prod, ok := producerOf[lfn]; ok {
				if srcSite, placed := siteOf[prod]; placed && srcSite != site {
					cost += net.Cost(srcSite, site, size)
				}
				continue
			}
			replicas := snap[lfn]
			if len(replicas) == 0 {
				continue // feasibility already rejected truly missing inputs
			}
			cheapest := time.Duration(-1)
			for _, r := range replicas {
				if r.Site == site {
					cheapest = 0
					break
				}
				if c := net.Cost(r.Site, site, size); cheapest < 0 || c < cheapest {
					cheapest = c
				}
			}
			cost += cheapest
		}
		if best == "" || cost < bestCost ||
			(cost == bestCost && assigned[site] < assigned[best]) ||
			(cost == bestCost && assigned[site] == assigned[best] && site < best) {
			best, bestCost = site, cost
		}
	}
	return best
}

// pickSource chooses the replica a transfer stages from: random under the
// paper's policies, the cheapest link (ties by site then URL — the replica
// list is already sorted) under SelectLocality.
func pickSource(cfg Config, rng *rand.Rand, replicas []rls.PFN, dst, lfn string) rls.PFN {
	if cfg.Selection != SelectLocality {
		return replicas[rng.Intn(len(replicas))]
	}
	size := cfg.sizeOf(lfn)
	best := replicas[0]
	bestCost := cfg.Net.Cost(best.Site, dst, size)
	for _, r := range replicas[1:] {
		if c := cfg.Net.Cost(r.Site, dst, size); c < bestCost {
			best, bestCost = r, c
		}
	}
	return best
}

// appendFragment appends the node-id fragment of a logical file name to dst:
// each ASCII letter and digit as it is, and every other character — a rune,
// or one byte of invalid UTF-8 — as one '_'. A plan's transfer and
// registration ids embed it ("reg_" + fragment), so two files with one
// fragment would name one node; CompareFragments is the same rule for an
// admission that refuses such names before anything is planned.
func appendFragment(dst []byte, lfn string) []byte {
	for _, r := range lfn {
		dst = append(dst, fragmentByte(r))
	}
	return dst
}

// CompareFragments orders a and b by their fragments, as bytes.Compare would
// order appendFragment of each, without building either.
func CompareFragments(a, b string) int {
	for len(a) > 0 && len(b) > 0 {
		fa, wa := nextFragmentByte(a)
		fb, wb := nextFragmentByte(b)
		if fa != fb {
			return int(fa) - int(fb)
		}
		a, b = a[wa:], b[wb:]
	}
	return len(a) - len(b) // only the sign matters: the longer fragment is later
}

// nextFragmentByte is the fragment byte of the character s starts with, and
// that character's width.
func nextFragmentByte(s string) (byte, int) {
	if c := s[0]; c < utf8.RuneSelf {
		return fragmentByte(rune(c)), 1
	}
	_, w := utf8.DecodeRuneInString(s)
	return '_', w
}

// fragmentByte is the fragment rule for one character.
func fragmentByte(r rune) byte {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		return byte(r)
	}
	return '_'
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
