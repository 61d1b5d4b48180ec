// Package chimera implements the workflow-composition half of the GriPhyN
// Virtual Data System (Foster et al. 2002) as the paper uses it: given a
// Virtual Data Catalog of transformations and derivations and a requested
// logical file, compose the abstract workflow — the DAG of derivations that
// materializes the file, chaining backward through derivations whose outputs
// feed other derivations' inputs (Figure 1 of the paper).
//
// The abstract workflow names only logical transformations and logical
// files; no resources are assigned. That is Pegasus's job (internal/pegasus).
package chimera

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dag"
	"repro/internal/vdl"
)

// Node attribute keys used on abstract workflow nodes. Downstream packages
// (pegasus, dagman) read these.
const (
	// AttrTransformation is the logical transformation name of a job node.
	AttrTransformation = "transformation"
	// AttrInputs / AttrOutputs are comma-joined logical file lists.
	AttrInputs  = "inputs"
	AttrOutputs = "outputs"
	// AttrDerivation is the originating DV name.
	AttrDerivation = "derivation"
)

// NodeType is the Type of every abstract-workflow job node.
const NodeType = "job"

// Errors returned by composition.
var (
	ErrNoProducer = errors.New("chimera: no derivation produces the requested file")
	ErrAmbiguous  = errors.New("chimera: multiple derivations produce the same file")
)

// Request asks for one or more logical files to be materialized.
type Request struct {
	LFNs []string
}

// Workflow is the result of composition: the abstract DAG plus the file sets
// Pegasus needs for feasibility checks and reduction.
type Workflow struct {
	Graph *dag.Graph
	// RequestedLFNs are the files the user asked for.
	RequestedLFNs []string
	// RawInputs are input files no derivation in the catalog produces; they
	// must pre-exist somewhere in the Grid (Pegasus checks the RLS).
	RawInputs []string
	// Intermediate are files both produced and consumed inside the workflow.
	Intermediate []string

	// files keeps, per job, the slices AddJob joined into the node's
	// AttrInputs/AttrOutputs, so the planner reads a job's files without
	// splitting a comma-joined string back (the collector's lists one entry
	// per galaxy) at every use.
	files map[string]jobFiles
}

type jobFiles struct{ inputs, outputs []string }

// Compose builds the abstract workflow that materializes every requested
// LFN, walking the catalog backward from the requested files through their
// producing derivations. A file produced by more than one derivation is an
// ErrAmbiguous error; a requested file with no producer is ErrNoProducer.
func Compose(cat *vdl.Catalog, req Request) (*Workflow, error) {
	if len(req.LFNs) == 0 {
		return nil, errors.New("chimera: empty request")
	}
	g := dag.New()
	wf := &Workflow{Graph: g, RequestedLFNs: append([]string(nil), req.LFNs...)}

	// visit composes the producer chain for lfn; returns the derivation
	// name producing it, or "" for raw inputs.
	visited := map[string]string{} // lfn -> producing node id ("" = raw)
	rawSet := map[string]bool{}
	interSet := map[string]bool{}

	var visit func(lfn string, needed bool) (string, error)
	visit = func(lfn string, requested bool) (string, error) {
		if prod, seen := visited[lfn]; seen {
			return prod, nil
		}
		producers := cat.Producers(lfn)
		switch {
		case len(producers) == 0:
			if requested {
				return "", fmt.Errorf("%w: %q", ErrNoProducer, lfn)
			}
			visited[lfn] = ""
			rawSet[lfn] = true
			return "", nil
		case len(producers) > 1:
			return "", fmt.Errorf("%w: %q produced by %v", ErrAmbiguous, lfn, producers)
		}
		dvName := producers[0]
		visited[lfn] = dvName
		dv, _ := cat.Derivation(dvName)

		if _, exists := g.Node(dvName); !exists {
			inputs, outputs := dv.InputLFNs(), dv.OutputLFNs()
			if err := wf.AddJob(dvName, dv.TR, inputs, outputs); err != nil {
				return "", err
			}
			// Mark every output of this DV as visited to avoid re-walking.
			for _, out := range outputs {
				visited[out] = dvName
			}
			// Recurse into the DV's inputs.
			for _, in := range inputs {
				parent, err := visit(in, false)
				if err != nil {
					return "", err
				}
				if parent != "" {
					interSet[in] = true
					if err := g.AddEdge(parent, dvName); err != nil {
						return "", err
					}
				}
			}
		}
		return dvName, nil
	}

	for _, lfn := range req.LFNs {
		if _, err := visit(lfn, true); err != nil {
			return nil, err
		}
	}

	wf.RawInputs = sortedSet(rawSet)
	wf.Intermediate = sortedSet(interSet)
	return wf, nil
}

// AddJob adds the abstract job node of one derivation; the id doubles as the
// derivation name. Every composer of abstract workflows — Compose here, the
// wave planner in internal/pegasus — adds its jobs through this, so the
// attribute set Pegasus and the runners read is spelled once. The workflow
// keeps the two slices; the caller must not change them afterwards.
func (wf *Workflow) AddJob(id, transformation string, inputs, outputs []string) error {
	n := &dag.Node{ID: id, Type: NodeType, Attrs: map[string]string{
		AttrTransformation: transformation,
		AttrDerivation:     id,
		AttrInputs:         strings.Join(inputs, ","),
		AttrOutputs:        strings.Join(outputs, ","),
	}}
	if err := wf.Graph.AddNode(n); err != nil {
		return err
	}
	if wf.files == nil {
		wf.files = map[string]jobFiles{}
	}
	wf.files[id] = jobFiles{inputs: inputs, outputs: outputs}
	return nil
}

// Inputs returns the input logical files of job id, in AttrInputs order. The
// slice is shared; treat it as read-only.
func (wf *Workflow) Inputs(id string) []string {
	if f, ok := wf.files[id]; ok {
		return f.inputs
	}
	return wf.attrLFNs(id, AttrInputs)
}

// Outputs returns the output logical files of job id, in AttrOutputs order.
// The slice is shared; treat it as read-only.
func (wf *Workflow) Outputs(id string) []string {
	if f, ok := wf.files[id]; ok {
		return f.outputs
	}
	return wf.attrLFNs(id, AttrOutputs)
}

// attrLFNs reads a file list from the node's attribute: the job was put into
// Graph directly, not through AddJob.
func (wf *Workflow) attrLFNs(id, key string) []string {
	n, ok := wf.Graph.Node(id)
	if !ok {
		return nil
	}
	return SplitLFNs(n.Attr(key))
}

// SplitLFNs reverses AddJob's comma join for node-attribute consumers.
func SplitLFNs(s string) []string {
	if s == "" {
		return nil
	}
	out := make([]string, 0, strings.Count(s, ",")+1)
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
