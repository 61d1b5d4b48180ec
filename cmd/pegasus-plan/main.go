// Command pegasus-plan maps an abstract workflow onto the Grid, standalone:
// given a VDL derivation file, a transformation catalog, a replica list and
// a requested logical file, it runs Chimera's composition and Pegasus's
// reduction/concretization and writes the DAGMan .dag file plus Condor-G
// submit files — the paper's Figure 2 pipeline as a command-line tool.
//
//	pegasus-plan -vdl wf.vdl -tc tc.txt -replicas rc.txt -request cluster.vot \
//	             -output-site stsci -register -out ./plan
//
// The replica file holds one "lfn site url" triple per line.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/chimera"
	"repro/internal/pegasus"
	"repro/internal/rls"
	"repro/internal/tcat"
	"repro/internal/vdl"
)

func main() {
	vdlPath := flag.String("vdl", "", "VDL file with TR and DV statements (required)")
	tcPath := flag.String("tc", "", "transformation catalog file (required)")
	rcPath := flag.String("replicas", "", "replica list file: lines of 'lfn site url'")
	request := flag.String("request", "", "comma-separated logical files to materialize (required)")
	outputSite := flag.String("output-site", "", "deliver requested outputs to this site")
	register := flag.Bool("register", false, "add RLS registration nodes")
	noReduce := flag.Bool("no-reduce", false, "disable abstract-DAG reduction")
	policy := flag.String("site-selection", "random", "random | roundrobin | locality")
	seed := flag.Int64("seed", 1, "random site/replica selection seed")
	out := flag.String("out", "plan", "output directory for .dag and submit files")
	flag.Parse()

	if *vdlPath == "" || *tcPath == "" || *request == "" {
		flag.Usage()
		os.Exit(2)
	}
	selection, err := parseSelection(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pegasus-plan:", err)
		os.Exit(2)
	}

	vdlText, err := os.ReadFile(*vdlPath)
	check(err)
	cat, err := vdl.Parse(string(vdlText))
	check(err)

	tcFile, err := os.Open(*tcPath)
	check(err)
	tc, err := tcat.Read(tcFile)
	tcFile.Close()
	check(err)

	r := rls.New()
	if *rcPath != "" {
		rcFile, err := os.Open(*rcPath)
		check(err)
		err = rls.ReadReplicas(r, rcFile)
		rcFile.Close()
		check(err)
	}

	wf, err := chimera.Compose(cat, chimera.Request{LFNs: strings.Split(*request, ",")})
	check(err)
	fmt.Printf("abstract workflow: %d jobs, %d raw inputs, %d intermediates\n",
		wf.Graph.Len(), len(wf.RawInputs), len(wf.Intermediate))

	cfg := pegasus.Config{
		RLS:             r,
		TC:              tc,
		Rand:            rand.New(rand.NewSource(*seed)),
		NoReduce:        *noReduce,
		OutputSite:      *outputSite,
		RegisterOutputs: *register,
		Selection:       selection,
	}
	plan, err := pegasus.Map(wf, cfg)
	check(err)

	st := plan.Stats()
	fmt.Printf("reduced: pruned %d jobs (reused %d files)\n", st.PrunedJobs, len(plan.ReusedLFNs))
	fmt.Printf("concrete workflow: %d compute, %d transfer, %d register nodes\n",
		st.ComputeJobs, st.TransferNodes, st.RegisterNodes)
	fmt.Printf("planner cost: %d RLS round trip(s), est %d bytes moved\n",
		plan.RLSRoundTrips, plan.EstBytesMoved)
	for _, id := range plan.Reduced.Nodes() {
		fmt.Printf("  %-30s -> %s\n", id, plan.SiteOf[id])
	}

	check(os.MkdirAll(*out, 0o755))
	dagPath := filepath.Join(*out, "workflow.dag")
	check(os.WriteFile(dagPath, []byte(plan.DAGFile("workflow")), 0o644))
	for _, sf := range plan.SubmitFiles() {
		check(os.WriteFile(filepath.Join(*out, sf.Node+".submit"), []byte(sf.Text), 0o644))
	}
	check(os.WriteFile(filepath.Join(*out, "workflow.dot"),
		[]byte(plan.Concrete.DOT("workflow")), 0o644))
	fmt.Printf("wrote %s, %d submit files and workflow.dot\n", dagPath, plan.Concrete.Len())
}

// parseSelection maps a -site-selection name to its policy. Least-loaded is
// not among them: it needs slot counts per site, which the tool's inputs do
// not carry.
func parseSelection(name string) (pegasus.SiteSelection, error) {
	switch name {
	case "random":
		return pegasus.SelectRandom, nil
	case "roundrobin":
		return pegasus.SelectRoundRobin, nil
	case "locality":
		return pegasus.SelectLocality, nil
	}
	return 0, fmt.Errorf("unknown -site-selection %q (want random, roundrobin or locality)", name)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pegasus-plan:", err)
		os.Exit(1)
	}
}
