package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/journal"
	"repro/internal/votable"
	"repro/internal/webservice"
)

// span is one timed interval at a layer boundary. Spans of one request share
// its Request identifier; Parent is the ID of the span that caused this one
// (0 = none). Count is the number of calls a replay span covers: a replay
// times a whole batch of calls into one layer as one span, because the
// per-layer metrics are sums over the batch and a span per call would add a
// clock read to calls that take a microsecond.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Request string `json:"request"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int    `json:"count,omitempty"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(parent int, request, name string) int {
	at := now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Request: request, StartNs: at})
	return len(t.spans)
}

func (t *tracer) end(id, count int) float64 {
	at := now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs, s.Count = at, count
	return float64(s.EndNs-s.StartNs) / 1e9
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// heapSampler tracks the peak in-use heap from cheap runtime/metrics reads
// taken at span boundaries of the traced request.
type heapSampler struct {
	mu     sync.Mutex
	sample []metrics.Sample
	peak   uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{sample: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
}

func (h *heapSampler) observe() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.sample)
	if inuse := h.sample[0].Value.Uint64() + h.sample[1].Value.Uint64(); inuse > h.peak {
		h.peak = inuse
	}
}

// countingTransport wraps the testbed's in-process HTTP transport: it records
// a span per exchange and counts the exchanges per endpoint.
type countingTransport struct {
	next    http.RoundTripper
	tr      *tracer
	heap    *heapSampler
	parent  int
	request string

	mu    sync.Mutex
	count map[string]int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	endpoint := strings.TrimPrefix(req.URL.Path, "/")
	if i := strings.IndexByte(endpoint, '/'); i >= 0 {
		endpoint = endpoint[:i]
	}
	id := c.tr.begin(c.parent, c.request, "http."+endpoint)
	resp, err := c.next.RoundTrip(req)
	c.tr.end(id, 1)
	c.heap.observe()
	c.mu.Lock()
	c.count[endpoint]++
	c.mu.Unlock()
	return resp, err
}

// traced is what the one traced request of a workload yields.
type traced struct {
	sample     sample
	preExecute float64 // start → first onProgress(0, total): stage-in and planning
	execute    float64 // first → last onProgress: DAGMan execution
	http       map[string]int
	gcCycles   uint64
	gcCPUShare float64
	peakHeap   uint64
}

// gcWork reads the process's cumulative GC cycles, GC CPU seconds and total
// CPU seconds.
func gcWork() (cycles uint64, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()
}

// traceRequest runs one request of the workload with a span around every
// HTTP exchange and, for compute calls, timestamps from the progress
// callback. Portal workloads run twice: once whole (Analyze) for the request
// counts and the tracing overhead, and once step by step through the
// portal's and the compute service's public functions for the phase times.
func traceRequest(w workload, p params, b *bed, tr *tracer, m layerMetrics) (*traced, error) {
	const reqID = "traced"
	root := tr.begin(0, reqID, "request."+w.name)
	heap := newHeapSampler()
	ct := &countingTransport{next: b.tb.Client.Transport, tr: tr, heap: heap, parent: root, request: reqID, count: map[string]int{}}
	b.tb.Client.Transport = ct
	defer func() { b.tb.Client.Transport = ct.next }()

	var first, last time.Time
	onProgress := func(done, total int) {
		last = now()
		if first.IsZero() {
			first = last
		}
		if done%16 == 0 {
			heap.observe()
		}
	}
	// The GC counters and the start time are read inside the timed call, past
	// the collection timeRequest forces before it.
	var (
		start                time.Time
		cycles0, cycles1     uint64
		gc0, cpu0, gc1, cpu1 float64
	)
	call := b.call(w, onProgress)
	s := timeRequest(b.tb, func() (webservice.RunStats, *votable.Table, error) {
		cycles0, gc0, cpu0 = gcWork()
		start = now()
		st, merged, err := call()
		cycles1, gc1, cpu1 = gcWork()
		return st, merged, err
	})
	tr.end(root, 1)
	if s.err != nil {
		return nil, fmt.Errorf("traced request: %w", s.err)
	}
	t := &traced{sample: s, http: ct.count, gcCycles: cycles1 - cycles0, peakHeap: heap.peak}
	if cpu1 > cpu0 {
		t.gcCPUShare = (gc1 - gc0) / (cpu1 - cpu0)
	}
	if !w.portal {
		t.preExecute, t.execute = first.Sub(start).Seconds(), last.Sub(first).Seconds()
		return t, nil
	}

	// Step by step on a second fresh testbed: the portal's two archive
	// fan-outs, then the compute call with progress timestamps.
	steps, _, err := prepare(w, p)
	if err != nil {
		return nil, err
	}
	const stepID = "traced-steps"
	id := tr.begin(0, stepID, "portal.find_images")
	_, _, err = steps.tb.Portal.FindImagesReport(cluster)
	m.busy("portal.find_images_s", tr.end(id, 1))
	if err != nil {
		return nil, err
	}
	id = tr.begin(0, stepID, "portal.build_catalog")
	cat, _, err := steps.tb.Portal.BuildCatalogReport(cluster)
	m.busy("portal.build_catalog_s", tr.end(id, 1))
	if err != nil {
		return nil, err
	}
	id = tr.begin(0, stepID, "webservice.compute")
	first, last = time.Time{}, time.Time{}
	start = now()
	_, _, err = steps.tb.Compute.ComputeWithProgress(cat, cluster, onProgress)
	tr.end(id, 1)
	if err != nil {
		return nil, err
	}
	t.preExecute, t.execute = first.Sub(start).Seconds(), last.Sub(first).Seconds()
	return t, nil
}

// artifacts are the inputs the layer replays need from a real request.
type artifacts struct {
	vdlText string
	graph   *dag.Graph       // the concrete DAG DAGMan executed
	journal []journal.Record // every record of a journaled request (journal workload only)
}

// capture reads the planning artifacts a journaled request leaves behind: a
// monolithic request on a testbed of its own, cancelled as soon as DAGMan
// starts. The images are staged and the .vdl and .dag files complete by then,
// and the fsyncs of a whole journaled run are not worth paying for two files.
func capture(p params) (*artifacts, error) {
	dir := filepath.Join(p.outDir, "capture")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cfg := p.config(p.galaxies)
	cfg.JournalDir = dir
	tb, err := core.NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	cat, err := tb.Portal.BuildCatalog(cluster)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err = tb.Compute.ComputeWithContext(ctx, cat, cluster, func(done, total int) { cancel() })
	if err == nil {
		return nil, fmt.Errorf("capture request ran to completion; expected it to stop at the first progress event")
	}
	vdlText, err := os.ReadFile(filepath.Join(dir, cluster+".vdl"))
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	graph, _, err := dagman.ReadDAGFile(filepath.Join(dir, cluster+".dag"))
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	return &artifacts{vdlText: string(vdlText), graph: graph}, nil
}

// baselineRequests is how many untraced requests the traced pass times
// first, so that trace.overhead_share has a median to compare against.
const baselineRequests = 2

// tracedPass produces a workload's per-layer metrics: untraced baseline
// requests, one traced request, then a serial replay of every layer the
// workload's requests pass through, on inputs captured from a real request.
func tracedPass(w workload, p params, out string) (*result, error) {
	tr := newTracer()
	m := layerMetrics{}

	// ready puts b into the workload's pre-request state: a fresh testbed for
	// a portal workload, a reset of the one staged testbed otherwise.
	var (
		b   *bed
		err error
	)
	if !w.portal {
		if b, _, err = prepare(w, p); err != nil {
			return nil, err
		}
	}
	ready := func() error {
		if w.portal {
			b, _, err = prepare(w, p)
			return err
		}
		return b.reset(w, p)
	}

	var samples []sample
	var walls []float64
	for i := 0; i < baselineRequests; i++ {
		if err := ready(); err != nil {
			return nil, err
		}
		s := timeRequest(b.tb, b.call(w, nil))
		if err := checkSample(w, p, s); err != nil {
			return nil, err
		}
		samples = append(samples, s)
		walls = append(walls, s.wall)
	}
	_, baseline, _ := quartiles(walls)

	// The replays run on a monolithic staged testbed: the workload's own for
	// the staged workloads, a plain one built for the purpose for the portal
	// ones (a wave request leaves no image staged).
	staged := b
	if w.portal {
		if staged, err = newStaged(workload{}, p); err != nil {
			return nil, err
		}
	}
	art, err := capture(p)
	if err != nil {
		return nil, err
	}

	if err := ready(); err != nil {
		return nil, err
	}
	t, err := traceRequest(w, p, b, tr, m)
	if err != nil {
		return nil, err
	}
	if err := checkSample(w, p, t.sample); err != nil {
		return nil, err
	}
	samples = append(samples, t.sample)
	if w.journal {
		if art.journal, _, err = journal.Replay(filepath.Join(p.journalDir(), cluster+".journal")); err != nil {
			return nil, err
		}
	}
	m.fromRequest(t, baseline)
	if err := replayLayers(w, p, staged, art, tr, m); err != nil {
		return nil, err
	}
	m.finish(t.sample.wall)
	if err := tr.write(out); err != nil {
		return nil, err
	}

	r, _, err := outcome(w, p, samples)
	if err != nil {
		return nil, err
	}
	r.PerLayer = m
	return r, nil
}

// fromRequest records what the traced request itself shows: the compute
// service's own counters, the HTTP exchanges, the runtime's GC work.
func (m layerMetrics) fromRequest(t *traced, baseline float64) {
	st := t.sample.stats
	m.set("webservice.pre_execute_s", t.preExecute)
	m.set("webservice.execute_s", t.execute)
	m.set("webservice.status_polls", float64(t.http["status"]))
	m.set("webservice.images_fetched", float64(st.ImagesFetched))
	m.set("webservice.images_cached", float64(st.ImagesCached))
	m.set("webservice.memo_hits", float64(st.MemoHits))
	m.set("webservice.memo_misses", float64(st.MemoMisses))
	m.set("webservice.files_staged", float64(st.FilesStaged))
	m.set("webservice.bytes_staged", float64(st.BytesStaged))
	m.set("webservice.sia_bytes", float64(st.SIABytes))
	m.set("webservice.retries", float64(st.Retries))
	m.set("webservice.waves", float64(st.Waves))
	m.set("webservice.max_wave_nodes", float64(st.MaxWaveNodes))
	m.set("webservice.peak_staged_images", float64(st.PeakStagedImages))
	m.set("webservice.images_evicted", float64(st.ImagesEvicted))
	m.set("services.cutout_requests", float64(t.http["cutout"]))
	m.set("services.cone_requests", float64(t.http["cone"]))
	m.set("services.sia_requests", float64(t.http["sia"]+t.http["siacut"]))
	m.set("model.sia_s", st.SIAModelTime.Seconds())
	m.set("runtime.gc_cycles", float64(t.gcCycles))
	m.set("runtime.gc_cpu_share", t.gcCPUShare)
	m.set("runtime.peak_heap_inuse_mb", float64(t.peakHeap)/(1<<20))
	m.set("trace.overhead_share", (t.sample.wall-baseline)/baseline)
}
