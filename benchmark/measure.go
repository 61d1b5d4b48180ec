package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/votable"
	"repro/internal/webservice"
)

const (
	// setupRepeats is how often a staged workload sets up: the driver gates on
	// setup_s and asks for the median of several setups in a run, not one cold
	// sample. Portal workloads set up once per request anyway.
	setupRepeats = 3
	// A time-driven run issues requests until -seconds of timed wall are
	// spent and at least minRequests are made, because it is the sample count
	// that steadies a median and the slow workloads (a journaled request takes
	// seconds, and fsync latency on a shared disk is noisy) would otherwise
	// get three or four. It stops early, after at least floorRequests, once
	// the timed wall exceeds overtime × -seconds, so that a slow disk cannot
	// stretch a run without limit.
	minRequests   = 6
	floorRequests = 3
	overtime      = 2.5
)

// sample is what one timed request yields.
type sample struct {
	wall    float64 // seconds
	mallocs uint64
	bytes   uint64
	stats   webservice.RunStats
	rows    int    // rows of the output table
	valid   int    // valid rows (merged portal table for portal workloads)
	sha     string // SHA-256 of the output VOTable
	err     error
}

// request is a workload's timed call: it returns the request's stats and,
// for portal workloads, the merged table.
type request func() (webservice.RunStats, *votable.Table, error)

// timeRequest times one call from outside. Garbage of earlier requests is
// collected first so that a request pays only for its own allocations.
func timeRequest(tb *core.Testbed, call request) sample {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := now()
	stats, merged, err := call()
	s := sample{wall: since(t0), stats: stats, err: err}
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.bytes = m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		return s
	}
	s.sha, s.rows, s.valid, s.err = inspectOutput(tb, merged)
	return s
}

// inspectOutput hashes the output table in the cache site's store and counts
// its rows; valid rows are counted in the merged portal table when there is
// one, else in the output table itself.
func inspectOutput(tb *core.Testbed, merged *votable.Table) (sha string, rows, valid int, err error) {
	data, err := tb.FTP.Store(cacheSite).Get(outLFN)
	if err != nil {
		return "", 0, 0, err
	}
	sum := sha256.Sum256(data)
	out, err := votable.ReadTable(bytes.NewReader(data))
	if err != nil {
		return "", 0, 0, err
	}
	if merged == nil {
		merged = out
	}
	for i := 0; i < merged.NumRows(); i++ {
		if ok, _ := merged.Bool(i, "valid"); ok {
			valid++
		}
	}
	return hex.EncodeToString(sum[:]), out.NumRows(), valid, nil
}

// call is the workload's timed call. Portal workloads run the whole Figure 5
// flow and read the request's stats back from the compute service, whose
// first (and only) request this is; the staged workloads submit the catalog
// to the compute service directly.
func (s *bed) call(w workload, onProgress func(done, total int)) request {
	if w.portal {
		return func() (webservice.RunStats, *votable.Table, error) {
			res, err := s.tb.Portal.Analyze(cluster)
			if err != nil {
				return webservice.RunStats{}, nil, err
			}
			st, err := s.tb.Compute.Status("req-000001")
			return st.Stats, res.Table, err
		}
	}
	return func() (webservice.RunStats, *votable.Table, error) {
		_, st, err := s.svc.ComputeWithProgress(s.cat, cluster, onProgress)
		return st, nil, err
	}
}

// checkSample applies the workload's precondition and the journal check to a
// successful request.
func checkSample(w workload, p params, s sample) error {
	if s.err != nil {
		return nil // counted as a failed request, not a broken precondition
	}
	if err := w.check(p, s.stats); err != nil {
		return fmt.Errorf("workload %s: precondition broken: %w", w.name, err)
	}
	if w.journal {
		if err := checkJournal(p); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
	}
	return nil
}

// prepare builds the workload's pre-request state — runtime warm-up, testbed
// and, for staged workloads, the staging request — and reports how long that
// took: one setup_s sample. Like a timed request, a setup starts from a
// collected heap, so that it does not pay for the previous request's garbage.
func prepare(w workload, p params) (*bed, float64, error) {
	runtime.GC()
	t0 := now()
	if err := warmUp(p); err != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	if w.portal {
		tb, err := core.NewTestbed(w.config(p))
		return &bed{tb: tb}, since(t0), err
	}
	b, err := newStaged(w, p)
	return b, since(t0), err
}

// measure runs one workload untraced: closed loop, one client, the next
// request issued when the previous one returns.
func measure(w workload, p params) (*result, error) {
	var (
		setups  []float64
		samples []sample
		timed   float64
	)
	more := func() bool {
		if p.requests > 0 {
			return len(samples) < p.requests
		}
		if len(samples) < floorRequests {
			return true
		}
		if timed >= overtime*p.seconds {
			return false
		}
		return len(samples) < minRequests || timed < p.seconds
	}
	record := func(s sample) error {
		samples = append(samples, s)
		timed += s.wall
		return checkSample(w, p, s)
	}

	// Staged workloads set up a few times and keep the last testbed, resetting
	// it before each request; portal workloads set up afresh for each request.
	var b *bed
	setUp := func() error {
		var (
			setup float64
			err   error
		)
		b, setup, err = prepare(w, p)
		setups = append(setups, setup)
		return err
	}
	if !w.portal {
		for i := 0; i < setupRepeats; i++ {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
	}
	for more() {
		ready := setUp
		if !w.portal {
			ready = func() error { return b.reset(w, p) }
		}
		if err := ready(); err != nil {
			return nil, err
		}
		if err := record(timeRequest(b.tb, b.call(w, nil))); err != nil {
			return nil, err
		}
	}
	return summarize(w, p, setups, samples)
}

// metric is one reported number with the raw samples behind it.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is one workload's record.
type result struct {
	Workload     string            `json:"workload"`
	Why          string            `json:"why"`
	Workers      int               `json:"workers"`
	Galaxies     int               `json:"galaxies"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	OutputSHA256 string            `json:"output_sha256"`
	ValidRows    int               `json:"valid_rows"`
	EndToEnd     map[string]metric `json:"end_to_end,omitempty"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
	Failures     []string          `json:"failures,omitempty"`
}

// endToEnd lists the end-to-end metrics in print order. bound is the share by
// which a later change may worsen the metric (BENCHMARK.json) and by which
// -selfcheck lets two runs of the same code differ; an exact metric repeats
// exactly on one seed, so -selfcheck demands equality of it. A driver's
// regression gate cannot take a metric that is ever zero, so model_sia_s (zero
// once images are staged) and failed_share are not gated: BENCHMARK.json lists
// the former among the per-layer metrics and failures travel in the result
// line's failed count. The model makespan moves by 0.05% from seed to seed;
// its 1% bound is for the driver, which compares medians over seeds.
var endToEnd = []struct {
	name  string
	unit  string
	bound float64
	gated bool // listed under end_to_end in BENCHMARK.json
	wall  bool // wall-clock: only reported, not checked, on an ungated workload
	exact bool
}{
	{name: "setup_s", unit: "s", bound: 0.25, gated: true, wall: true},
	{name: "request_wall_s", unit: "s", bound: 0.25, gated: true, wall: true},
	{name: "galaxies_per_s", unit: "galaxies/s", bound: 0.25, gated: true, wall: true},
	{name: "model_makespan_s", unit: "s", bound: 0.01, gated: true, exact: true},
	{name: "model_sia_s", unit: "s", exact: true},
	{name: "allocs_per_galaxy", unit: "allocs", bound: 0.05, gated: true},
	{name: "alloc_bytes_per_galaxy", unit: "B", bound: 0.10, gated: true},
	{name: "failed_share", unit: "fraction", exact: true},
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// quartiles returns the median and the first and third quartile (linear
// interpolation between order statistics).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func medianOf(name string, v []float64) metric {
	q1, med, q3 := quartiles(v)
	return metric{Value: med, Unit: unitOf(name), N: len(v), Q1: q1, Q3: q3, Samples: v}
}

// outcome judges the requests of one run. A request fails when it errored,
// returned the wrong row count, or produced output bytes different from the
// run's first good request; the good ones are returned for the metrics. The
// model clock and the valid count must repeat exactly across them.
func outcome(w workload, p params, samples []sample) (*result, []sample, error) {
	r := &result{
		Workload: w.name, Why: w.why, Workers: w.workers(p), Galaxies: p.galaxies,
		Attempted: len(samples),
	}
	var good []sample
	for i, s := range samples {
		switch {
		case s.err != nil:
			r.Failures = append(r.Failures, fmt.Sprintf("request %d: %v", i, s.err))
		case s.rows != p.galaxies:
			r.Failures = append(r.Failures, fmt.Sprintf("request %d: %d rows, want %d", i, s.rows, p.galaxies))
		case len(good) > 0 && s.sha != good[0].sha:
			r.Failures = append(r.Failures, fmt.Sprintf("request %d: output %s differs from %s", i, s.sha, good[0].sha))
		default:
			good = append(good, s)
		}
	}
	r.Failed = len(samples) - len(good)
	if len(good) == 0 {
		return nil, nil, fmt.Errorf("workload %s: no request succeeded: %v", w.name, r.Failures)
	}
	first := good[0]
	for _, s := range good[1:] {
		if s.stats.Makespan != first.stats.Makespan || s.stats.SIAModelTime != first.stats.SIAModelTime || s.valid != first.valid {
			return nil, nil, fmt.Errorf("workload %s: model clock or valid count differs between requests of one run", w.name)
		}
	}
	r.OutputSHA256, r.ValidRows = first.sha, first.valid
	return r, good, nil
}

// summarize turns the samples into the workload's end-to-end record.
func summarize(w workload, p params, setups []float64, samples []sample) (*result, error) {
	r, good, err := outcome(w, p, samples)
	if err != nil {
		return nil, err
	}
	var walls, allocs, allocBytes []float64
	var timed float64
	for _, s := range good {
		walls = append(walls, s.wall)
		timed += s.wall
		allocs = append(allocs, float64(s.mallocs)/float64(p.galaxies))
		allocBytes = append(allocBytes, float64(s.bytes)/float64(p.galaxies))
	}
	first := good[0]
	r.EndToEnd = map[string]metric{
		"setup_s":        medianOf("setup_s", setups),
		"request_wall_s": medianOf("request_wall_s", walls),
		// The rate the one closed-loop client sustained over the whole run: unlike
		// the median request it slows when a few requests stall.
		"galaxies_per_s":         {Value: float64(len(good)*p.galaxies) / timed, Unit: unitOf("galaxies_per_s"), N: len(good)},
		"model_makespan_s":       {Value: first.stats.Makespan.Seconds(), Unit: unitOf("model_makespan_s")},
		"model_sia_s":            {Value: first.stats.SIAModelTime.Seconds(), Unit: unitOf("model_sia_s")},
		"allocs_per_galaxy":      medianOf("allocs_per_galaxy", allocs),
		"alloc_bytes_per_galaxy": medianOf("alloc_bytes_per_galaxy", allocBytes),
		"failed_share":           {Value: float64(r.Failed) / float64(r.Attempted), Unit: unitOf("failed_share"), N: r.Attempted},
	}
	return r, nil
}
