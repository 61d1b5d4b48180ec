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
	"sort"
	"strings"
	"time"

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

	p := &Plan{Abstract: wf.Graph, SiteOf: map[string]string{}}

	// --- 0. Replica snapshot: every planner decision below reads replica
	// state from one BulkLookup over the workflow's whole file set — a
	// single RLS round trip per plan, however many LFNs the request names
	// (previously reduction + feasibility + source selection each paid one
	// round trip per LFN).
	before := cfg.RLS.RoundTrips()
	snap := cfg.RLS.BulkLookup(workflowLFNs(wf))
	p.Replicas = snap

	// --- 1. Abstract DAG reduction (Figure 2 step "Abstract DAG reduction").
	reduced, pruned, reused := reduce(wf, cfg, snap)
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
	if err := concretize(p, wf, cfg, rng, snap, pin, jobs, producerOf); err != nil {
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
	seen := map[string]bool{}
	for _, lfn := range wf.RequestedLFNs {
		seen[lfn] = true
	}
	for _, id := range wf.Graph.Nodes() {
		n := job(wf.Graph, id)
		for _, lfn := range n.Inputs {
			seen[lfn] = true
		}
		for _, lfn := range n.Outputs {
			seen[lfn] = true
		}
	}
	return sortedKeys(seen)
}

// reduce prunes jobs whose required outputs already exist in the RLS. A job
// survives only if one of its outputs is required and absent: requirements
// start at the requested LFNs and propagate to the inputs of surviving jobs
// (walked in reverse topological order). The reduced graph is assembled from
// the survivors and shares their nodes with the abstract one; when every job
// survives it is the abstract graph. Nothing downstream writes to either.
func reduce(wf *chimera.Workflow, cfg Config, snap map[string][]rls.PFN) (g *dag.Graph, pruned, reused []string) {
	if cfg.NoReduce {
		return wf.Graph, nil, nil
	}
	order, err := wf.Graph.TopoSort()
	if err != nil {
		// Chimera guarantees acyclicity; a cycle here is a programming
		// error upstream, and returning the unreduced graph is safe.
		return wf.Graph, nil, nil
	}

	required := map[string]bool{}
	reusedSet := map[string]bool{}
	for _, lfn := range wf.RequestedLFNs {
		if len(snap[lfn]) > 0 {
			reusedSet[lfn] = true
		} else {
			required[lfn] = true
		}
	}

	drop := map[string]bool{}
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
			drop[id] = true
			continue
		}
		for _, lfn := range n.Inputs {
			if len(snap[lfn]) > 0 {
				reusedSet[lfn] = true
			} else {
				required[lfn] = true
			}
		}
	}
	return subgraph(wf.Graph, drop), sortedKeys(drop), sortedKeys(reusedSet)
}

// subgraph returns the graph of src's nodes outside drop with the edges among
// them: src itself when nothing is dropped, else a new graph sharing the nodes.
func subgraph(src *dag.Graph, drop map[string]bool) *dag.Graph {
	if len(drop) == 0 {
		return src
	}
	g := dag.New()
	ids := src.Nodes()
	for _, id := range ids {
		if !drop[id] {
			n, _ := src.Node(id)
			_ = g.AddNode(n) // ids are unique in src
		}
	}
	for _, id := range ids {
		if drop[id] {
			continue
		}
		for _, child := range src.Children(id) {
			if !drop[child] {
				_ = g.AddEdge(id, child) // both ends were added; src is acyclic
			}
		}
	}
	return g
}

// concretize performs site selection and inserts transfer and registration
// nodes around the reduced workflow's compute jobs. Its three emitters are the
// only code that creates concrete-workflow nodes.
func concretize(p *Plan, wf *chimera.Workflow, cfg Config, rng *rand.Rand, snap map[string][]rls.PFN,
	pin map[string]string, jobs []string, producerOf map[string]string) error {
	cw := dag.New()
	reduced := p.Reduced

	// compute is the abstract job by value, sharing its LFN slices, with the
	// site and executable the mapping chose.
	compute := func(abstract *dag.Node, site, exe string) error {
		cn := *abstract
		cn.Type, cn.Site, cn.Executable = NodeCompute, site, exe
		return cw.AddNode(&cn)
	}
	// transfer moves lfn from srcURL to dstSite, after the job that makes the
	// file when this workflow does ("" when the source is an existing replica).
	transfer := func(id, lfn, srcURL, dstSite, after string) error {
		tn := &dag.Node{ID: id, Type: NodeTransfer, LFN: lfn, SrcURL: srcURL, DstURL: gridftp.URL(dstSite, lfn)}
		if err := cw.AddNode(tn); err != nil {
			return err
		}
		p.EstBytesMoved += cfg.sizeOf(lfn)
		if after == "" {
			return nil
		}
		return cw.AddEdge(after, id)
	}
	// register publishes lfn's replica at site once the node after has run.
	register := func(lfn, site, after string) error {
		rn := &dag.Node{ID: "reg_" + sanitize(lfn), Type: NodeRegister, LFN: lfn, Site: site, PFN: gridftp.URL(site, lfn)}
		if err := cw.AddNode(rn); err != nil {
			return err
		}
		return cw.AddEdge(after, rn.ID)
	}

	// Site selection, in deterministic job order (jobs arrives sorted by id).
	// SelectLocality assigns in topological order instead, so a consumer can
	// see where its producers landed and follow the bytes.
	if cfg.Selection == SelectLocality {
		if order, err := reduced.TopoSort(); err == nil {
			jobs = order
		}
	}
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
	for _, id := range jobs {
		n := job(reduced, id)
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
		if err := compute(n, site, exe.Path); err != nil {
			return err
		}
	}

	// Dependency edges between surviving compute jobs.
	for _, id := range jobs {
		for _, child := range reduced.Children(id) {
			if err := cw.AddEdge(id, child); err != nil {
				return err
			}
		}
	}

	// Transfer nodes for inputs: one per (file, destination site), shared by
	// every job there that consumes the file.
	for _, id := range jobs {
		site := p.SiteOf[id]
		for _, lfn := range job(reduced, id).Inputs {
			var txID, srcURL string
			prod := producerOf[lfn]
			if prod != "" {
				// Inter-stage: producer runs in this workflow.
				srcSite := p.SiteOf[prod]
				if srcSite == site {
					continue // same site: no staging needed
				}
				txID = "tx_" + sanitize(lfn) + "_" + srcSite + "_to_" + site
				srcURL = gridftp.URL(srcSite, lfn)
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
				txID = "stagein_" + sanitize(lfn) + "_to_" + site
				srcURL = pickSource(cfg, rng, replicas, site, lfn).URL
			}
			if _, exists := cw.Node(txID); !exists {
				if err := transfer(txID, lfn, srcURL, site, prod); err != nil {
					return err
				}
			}
			if err := cw.AddEdge(txID, id); err != nil {
				return err
			}
		}
	}

	// Output delivery and registration.
	requested := map[string]bool{}
	for _, lfn := range wf.RequestedLFNs {
		requested[lfn] = true
	}
	for _, id := range jobs {
		site := p.SiteOf[id]
		for _, lfn := range job(reduced, id).Outputs {
			finalSite, lastNode := site, id
			if requested[lfn] && cfg.OutputSite != "" && cfg.OutputSite != site {
				finalSite = cfg.OutputSite
				lastNode = "stageout_" + sanitize(lfn) + "_to_" + finalSite
				if err := transfer(lastNode, lfn, gridftp.URL(site, lfn), finalSite, id); err != nil {
					return err
				}
			}
			if cfg.RegisterOutputs {
				if err := register(lfn, finalSite, lastNode); err != nil {
					return err
				}
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
			txID := "stageout_" + sanitize(lfn) + "_to_" + cfg.OutputSite
			if err := transfer(txID, lfn, src.URL, cfg.OutputSite, ""); err != nil {
				return err
			}
			if cfg.RegisterOutputs {
				if err := register(lfn, cfg.OutputSite, txID); err != nil {
					return err
				}
			}
		}
	}

	p.Concrete = cw
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

// sanitize turns an LFN into a legal node-id fragment.
func sanitize(lfn string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, lfn)
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
