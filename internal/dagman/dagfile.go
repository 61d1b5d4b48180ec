// DAG file serialization: the on-disk twin of a concrete workflow, written at
// plan time so a crashed run can be resumed without replanning. Re-running
// Pegasus after a crash would produce a different concrete DAG (the RLS-based
// reduction prunes newly-materialized files and site selection consumes the
// rng in job order), so the resumed execution instead reloads the exact graph
// the journal's node IDs refer to.
//
// The format is line-oriented and deterministic (nodes and attributes
// sorted), with every token quoted so IDs, attribute values, and sites
// round-trip byte-exactly:
//
//	DAGFILE v1
//	NODE <id> <type>
//	ATTR <id> <key> <value>
//	DONE <id>
//	EDGE <parent> <child>
//
// A node has one ATTR line per key of its type in dag.AttrKeys — every key,
// even an empty one — and a type outside that table has none. An LFN list is
// one comma-joined value. DONE lines mark nodes a rescue file records as
// already completed; a plain plan-time snapshot has none. Lines have no
// length limit: a collector's inputs line grows with the request, and the
// request's own caps are what bound it.
package dagman

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dag"
)

// dagFileHeader identifies the format; bump the version on layout changes.
const dagFileHeader = "DAGFILE v1"

// WriteDAG serializes g (and an optional set of already-done node IDs) in the
// deterministic text format above.
func WriteDAG(w io.Writer, g *dag.Graph, done map[string]bool) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, dagFileHeader)
	for _, id := range g.Nodes() {
		n, _ := g.Node(id)
		fmt.Fprintf(bw, "NODE %s %s\n", strconv.Quote(n.ID), strconv.Quote(n.Type))
		for _, k := range dag.AttrKeys(n.Type) {
			fmt.Fprintf(bw, "ATTR %s %s %s\n",
				strconv.Quote(n.ID), strconv.Quote(k), strconv.Quote(n.Attr(k)))
		}
	}
	for _, id := range g.Nodes() {
		if done[id] {
			fmt.Fprintf(bw, "DONE %s\n", strconv.Quote(id))
		}
	}
	for _, id := range g.Nodes() {
		for _, c := range g.Children(id) {
			fmt.Fprintf(bw, "EDGE %s %s\n", strconv.Quote(id), strconv.Quote(c))
		}
	}
	return bw.Flush()
}

// WriteDAGFile writes the serialized DAG to path, fsyncing before close so
// the snapshot survives the crashes it exists to recover from.
func WriteDAGFile(path string, g *dag.Graph, done map[string]bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := WriteDAG(f, g, done); err != nil {
		_ = f.Close() // the write error is the failure being reported
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the failure being reported
		return err
	}
	return f.Close()
}

// ReadDAG parses the text format back into a graph and the set of DONE
// nodes. It is the one reader of the format, and it is typed: an ATTR key
// outside its node type's set is refused, and a list is split here, once.
func ReadDAG(r io.Reader) (*dag.Graph, map[string]bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), math.MaxInt)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("dagman: empty DAG file")
	}
	if sc.Text() != dagFileHeader {
		return nil, nil, fmt.Errorf("dagman: bad DAG file header %q", sc.Text())
	}
	g := dag.New()
	done := map[string]bool{}
	for lineNo := 2; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := readLine(g, done, line); err != nil {
			return nil, nil, fmt.Errorf("dagman: DAG file line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return g, done, nil
}

// directives maps each line directive to its field count.
var directives = map[string]int{"NODE": 2, "ATTR": 3, "DONE": 1, "EDGE": 2}

// readLine applies one directive line to the graph being read.
func readLine(g *dag.Graph, done map[string]bool, line string) error {
	op, rest, _ := strings.Cut(line, " ")
	want, ok := directives[op]
	if !ok {
		return fmt.Errorf("unknown directive %q", op)
	}
	fields, err := splitQuoted(rest)
	if err != nil {
		return err
	}
	if len(fields) != want {
		return fmt.Errorf("%s wants %d fields, got %d", op, want, len(fields))
	}
	switch op {
	case "NODE":
		return g.AddNode(&dag.Node{ID: fields[0], Type: fields[1]})
	case "EDGE":
		return g.AddEdge(fields[0], fields[1])
	}
	n, ok := g.Node(fields[0])
	if !ok {
		return fmt.Errorf("%s for unknown node %q", op, fields[0])
	}
	if op == "DONE" {
		done[n.ID] = true
		return nil
	}
	return setAttr(n, fields[1], fields[2])
}

// ReadDAGFile is ReadDAG over the file at path.
func ReadDAGFile(path string) (*dag.Graph, map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	//nvolint:ignore errclose read-only handle; there are no buffered writes a failed close could lose
	defer f.Close()
	return ReadDAG(f)
}

// WriteRescueFile serializes the rescue DAG of a finished-but-failed report —
// the failed and never-run subgraph a later submission resumes from, the
// on-disk analogue of Condor DAGMan's rescue files.
func WriteRescueFile(path string, g *dag.Graph, report *Report) error {
	return WriteDAGFile(path, report.RescueDAG(g), nil)
}

// setAttr stores one ATTR value in the payload field its key names.
func setAttr(n *dag.Node, key, val string) error {
	s, list := n.Field(key)
	switch {
	case s != nil:
		*s = val
	case list != nil:
		lfns, err := splitLFNs(val)
		if err != nil {
			return fmt.Errorf("node %q: %w", n.ID, err)
		}
		*list = lfns
	default:
		return fmt.Errorf("node %q: %q is not an attribute of a %q node", n.ID, key, n.Type)
	}
	return nil
}

// splitLFNs reverses the comma join of an LFN list. "" is the empty list; an
// empty element cannot come from a plan, since no LFN is empty.
func splitLFNs(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	lfns := strings.Split(s, ",")
	if slices.Contains(lfns, "") {
		return nil, fmt.Errorf("empty LFN in list %q", s)
	}
	return lfns, nil
}

// splitQuoted splits a run of space-separated Go double-quoted tokens.
func splitQuoted(s string) ([]string, error) {
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		if s[0] != '"' {
			return nil, fmt.Errorf("unquoted token at %q", s)
		}
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			return nil, fmt.Errorf("bad token at %q: %w", s, err)
		}
		tok, _ := strconv.Unquote(q) // QuotedPrefix has checked the syntax
		out = append(out, tok)
		s = s[len(q):]
	}
	return out, nil
}
