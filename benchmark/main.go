// Command benchmark is the repo's one benchmark: six request workloads
// through the portal → Pegasus → DAGMan → measure pipeline, eight end-to-end
// metrics per workload, and a separate traced pass that replays every layer
// through its public functions. See README.md.
//
// The pipeline is driven in-process from this one goroutine; every number is
// taken from outside the program, around calls into its public functions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// host is the metadata every record carries, so numbers from two machines
// are never compared by accident.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Race       bool   `json:"race"`
	GitCommit  string `json:"git_commit"`
}

func hostInfo() host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Race: raceEnabled, GitCommit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitCommit = s.Value
			}
		}
	}
	return h
}

// record is what -json writes: one invocation's results.
type record struct {
	Host    host        `json:"host"`
	Seed    int64       `json:"seed"`
	Workers int         `json:"workers"`
	Traced  bool        `json:"traced"`
	Sets    [][]*result `json:"sets"` // one set per pass; -selfcheck makes two
}

func defaultWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func main() {
	if err := run(defaultParams(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run runs the benchmark on the problem p as the command line directs. The
// problem's size and the worker count are not arguments: the metric names
// mean one stated problem, and the tests pass a smaller one in directly.
func run(p params, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload to run: cold, wave, staged, staged-serial, memo or journal")
		all       = fs.Bool("all", false, "run the six workloads in turn and compare their outputs")
		trace     = fs.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of the untraced one")
		selfcheck = fs.Bool("selfcheck", false, "run the chosen workloads twice and fail if an end-to-end metric differs by more than its bound")
		jsonPath  = fs.String("json", "", "also write the full record (host, raw samples) to this file")
		traceOut  = fs.String("trace-out", "", "span file of the traced pass (default <out>/trace-<workload>.json)")
	)
	fs.Int64Var(&p.seed, "seed", 5, "seed of the generated sky and of every random choice")
	fs.Float64Var(&p.seconds, "seconds", 8, "timed wall per workload; requests are issued until it is spent")
	fs.StringVar(&p.outDir, "out", filepath.Join("benchmark", "out"), "directory for journals and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *selfcheck && *trace != 0 {
		return fmt.Errorf("-selfcheck compares end-to-end metrics, which -trace 1 does not measure")
	}

	var chosen []workload
	switch {
	case *all:
		chosen = workloads
	default:
		w, ok := workloadNamed(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (use -workload or -all)", *name)
		}
		chosen = []workload{w}
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}

	rec := record{Host: hostInfo(), Seed: p.seed, Workers: p.workers, Traced: *trace != 0}
	fmt.Fprintf(stdout, "host num_cpu=%d gomaxprocs=%d %s %s/%s race=%t commit=%s seed=%d workers=%d galaxies=%d\n",
		rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.GOOS, rec.Host.GOARCH,
		rec.Host.Race, rec.Host.GitCommit, p.seed, p.workers, p.galaxies)

	passes := 1
	if *selfcheck {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		var set []*result
		for _, w := range chosen {
			var (
				r   *result
				err error
			)
			if *trace != 0 {
				out := *traceOut
				if out == "" {
					out = filepath.Join(p.outDir, "trace-"+w.name+".json")
				}
				r, err = tracedPass(w, p, out)
			} else {
				r, err = measure(w, p)
			}
			if err != nil {
				return err
			}
			printResult(stdout, r)
			set = append(set, r)
		}
		if err := compareOutputs(set); err != nil {
			return err
		}
		rec.Sets = append(rec.Sets, set)
	}
	if *selfcheck {
		if err := compareSets(stdout, rec.Sets[0], rec.Sets[1]); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	// The last line is the one the driver reads: the last workload's result.
	last := rec.Sets[len(rec.Sets)-1]
	return printDriverLine(stdout, last[len(last)-1])
}

// printResult prints every metric of one workload as "name value unit".
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s.output_sha256 %s\n", r.Workload, r.OutputSHA256)
	fmt.Fprintf(w, "%s.valid_rows %d rows\n", r.Workload, r.ValidRows)
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.name]; ok {
			printMetric(w, r.Workload, m.name, v)
		}
	}
	names := make([]string, 0, len(r.PerLayer))
	for name := range r.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		printMetric(w, r.Workload, name, r.PerLayer[name])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s.failure %s\n", r.Workload, f)
	}
}

func printMetric(w io.Writer, workload, name string, m metric) {
	fmt.Fprintf(w, "%s.%s %v %s", workload, name, m.Value, m.Unit)
	if m.N > 0 {
		fmt.Fprintf(w, " n=%d", m.N)
	}
	if len(m.Samples) > 0 {
		fmt.Fprintf(w, " q1=%v q3=%v", m.Q1, m.Q3)
	}
	fmt.Fprintln(w)
}

// printDriverLine prints the one JSON object the benchmark contract asks for
// as the last line of standard output: the gated end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func printDriverLine(w io.Writer, r *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.name]; ok && m.gated {
			metrics[m.name] = value{v.Value, v.Unit}
		}
	}
	for name, v := range r.PerLayer {
		metrics[name] = value{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// compareOutputs is the cross-workload output check: every workload of one
// set computed the same catalog, so all output hashes must be equal, and the
// two portal workloads must merge the same number of valid rows.
func compareOutputs(set []*result) error {
	var portalValid = -1
	for _, r := range set {
		if r.OutputSHA256 != set[0].OutputSHA256 {
			return fmt.Errorf("output_sha256 of %s (%s) differs from %s (%s)",
				r.Workload, r.OutputSHA256, set[0].Workload, set[0].OutputSHA256)
		}
		if w, _ := workloadNamed(r.Workload); w.portal {
			if portalValid >= 0 && r.ValidRows != portalValid {
				return fmt.Errorf("%s merged %d valid rows, the other portal workload %d", r.Workload, r.ValidRows, portalValid)
			}
			portalValid = r.ValidRows
		}
	}
	return nil
}

// compareSets is the repeatability check: two sets of runs of the same code
// must agree on every end-to-end metric within its bound, and exactly on the
// metrics that repeat exactly. The wall-clock metrics of an ungated workload are
// reported as unresolved: it is ungated because they do not repeat.
func compareSets(w io.Writer, a, b []*result) error {
	var bad int
	for i := range a {
		wl, _ := workloadNamed(a[i].Workload)
		for _, m := range endToEnd {
			va, vb := a[i].EndToEnd[m.name].Value, b[i].EndToEnd[m.name].Value
			diff := 0.0
			if va != vb {
				diff = math.Abs(va-vb) / math.Min(math.Abs(va), math.Abs(vb))
			}
			bound := m.bound
			if m.exact {
				bound = 0
			}
			verdict := "ok"
			switch {
			case diff <= bound:
			case wl.ungated && m.wall:
				verdict = "unresolved"
			default:
				verdict = "DIFFERS"
				bad++
			}
			fmt.Fprintf(w, "selfcheck %s.%s %v vs %v diff=%.4f bound=%v %s\n", a[i].Workload, m.name, va, vb, diff, bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d end-to-end metrics differ between two runs of the same code by more than their bound", bad)
	}
	return nil
}
