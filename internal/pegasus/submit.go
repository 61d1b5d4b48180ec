package pegasus

import (
	"fmt"
	"strings"

	"repro/internal/dag"
)

// SubmitFile is one Condor-G job description generated by the Submit File
// Generator (Figure 2, step 9–11).
type SubmitFile struct {
	Node string
	Text string
}

// SubmitFiles renders a Condor-G submit description for every node of the
// concrete workflow, in deterministic node order.
func (p *Plan) SubmitFiles() []SubmitFile {
	var out []SubmitFile
	for _, id := range p.Concrete.Nodes() {
		n, _ := p.Concrete.Node(id)
		out = append(out, SubmitFile{Node: id, Text: submitText(n)})
	}
	return out
}

// submitText renders one node in the classic Condor-G syntax.
func submitText(n *dag.Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Condor-G submit file for node %s\n", n.ID)
	b.WriteString("universe = globus\n")
	switch n.Type {
	case NodeCompute:
		fmt.Fprintf(&b, "globusscheduler = %s/jobmanager-condor\n", n.Site)
		fmt.Fprintf(&b, "executable = %s\n", n.Executable)
		fmt.Fprintf(&b, "arguments = %s\n", strings.Join(n.Inputs, ","))
		fmt.Fprintf(&b, "transfer_output = %s\n", strings.Join(n.Outputs, ","))
	case NodeTransfer:
		b.WriteString("executable = /usr/bin/globus-url-copy\n")
		fmt.Fprintf(&b, "arguments = %s %s\n", n.SrcURL, n.DstURL)
	case NodeRegister:
		b.WriteString("executable = /usr/bin/globus-rls-cli\n")
		fmt.Fprintf(&b, "arguments = create %s %s\n", n.LFN, n.PFN)
	}
	fmt.Fprintf(&b, "log = %s.log\n", n.ID)
	b.WriteString("notification = never\n")
	b.WriteString("queue\n")
	return b.String()
}

// DAGFile renders the DAGMan .dag description of the concrete workflow:
// a JOB line per node and a PARENT ... CHILD line per dependency.
func (p *Plan) DAGFile(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# DAGMan file for workflow %s\n", name)
	nodes := p.Concrete.Nodes()
	for _, id := range nodes {
		fmt.Fprintf(&b, "JOB %s %s.submit\n", id, id)
	}
	for _, id := range nodes {
		children := p.Concrete.Children(id) // sorted
		if len(children) == 0 {
			continue
		}
		fmt.Fprintf(&b, "PARENT %s CHILD %s\n", id, strings.Join(children, " "))
	}
	return b.String()
}
