// Package fabricpool forbids constructing Condor simulators outside the
// shared execution fabric. PR 6 made the fabric the single owner of the
// pool substrate: every workflow's simulator is stamped out by a fabric
// lease, so admission control, per-tenant quotas and fair-share
// accounting actually govern all execution. A stray condor.NewSimulator
// in request-handling code would mint capacity the scheduler never
// granted — jobs running outside every quota, invisible to /stats.
// Simulators must come from fabric.Lease.NewSimulator (or the package
// listed in -fabricpool.allow).
package fabricpool

import (
	"repro/internal/analyze/forbid"
)

// Analyzer is the fabricpool check.
var Analyzer = forbid.New("fabricpool",
	"forbid condor.NewSimulator outside internal/fabric; all execution capacity is minted by fabric "+
		"leases so admission control, tenant quotas and fair-share accounting govern every workflow",
	"repro/internal/fabric", "comma-separated import paths allowed to construct Condor simulators",
	forbid.Rule{Kind: forbid.Call, Pkg: "repro/internal/condor", Names: []string{"NewSimulator"},
		Msg: "condor.%s outside the fabric mints execution capacity no quota governs; take a fabric lease and call lease.NewSimulator"},
)
