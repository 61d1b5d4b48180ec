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

// Attribute keys of abstract job nodes in a plan's text form (see dag.Node.Attr).
const (
	AttrTransformation = dag.AttrTransformation
	AttrInputs         = dag.AttrInputs
	AttrOutputs        = dag.AttrOutputs
	AttrDerivation     = dag.AttrDerivation
)

// NodeType is the Type of every abstract-workflow job node.
const NodeType = dag.TypeJob

// Errors returned by composition.
var (
	ErrNoProducer = errors.New("chimera: no derivation produces the requested file")
	ErrAmbiguous  = errors.New("chimera: multiple derivations produce the same file")
	// ErrBadLFN refuses a logical file name a plan cannot carry: an empty one,
	// or one holding the comma that separates a list in the .dag text form.
	ErrBadLFN = errors.New("chimera: logical file name is empty or contains ','")
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
}

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
// wave planner in internal/pegasus — adds its jobs through this, so it is
// where an LFN that the .dag text form could not carry is refused (ErrBadLFN).
// The node keeps the two slices; the caller must not change them afterwards.
func (wf *Workflow) AddJob(id, transformation string, inputs, outputs []string) error {
	for _, lfns := range [][]string{inputs, outputs} {
		for _, lfn := range lfns {
			if lfn == "" || strings.Contains(lfn, ",") {
				return fmt.Errorf("%w: derivation %q, file %q", ErrBadLFN, id, lfn)
			}
		}
	}
	return wf.Graph.AddNode(&dag.Node{ID: id, Type: NodeType, Transformation: transformation,
		Derivation: id, Inputs: inputs, Outputs: outputs})
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
