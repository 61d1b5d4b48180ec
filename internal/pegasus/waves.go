package pegasus

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/chimera"
	"repro/internal/dag"
)

// WaveJob describes one abstract job a WaveSource yields. The ID doubles as
// the derivation name, exactly as on chimera-composed graphs (where every
// node's ID is its DV name), so downstream runners dispatch identically on
// wave-planned and monolithically-planned nodes.
type WaveJob struct {
	ID             string
	Transformation string
	Inputs         []string
	Outputs        []string
}

// WaveSource yields a request's leaf jobs on demand, so a survey-scale
// request never materializes a per-job list (let alone a per-job DAG node)
// for the whole workload at once.
type WaveSource struct {
	// Jobs is the number of leaf jobs.
	Jobs int
	// Job returns the i-th leaf job (0 <= i < Jobs). It is called once per
	// job per planned wave, in index order.
	Job func(i int) WaveJob
	// Collector is the fan-in job consuming the leaves' outputs (the
	// concatVOT derivation of the morphology workload). A zero ID means the
	// request has no collector wave.
	Collector WaveJob
}

// WavePlanner plans one request as a sequence of bounded concrete workflows
// ("waves") instead of a single monolithic DAG: each leaf wave covers at most
// waveSize jobs, the collector wave is the one fan-in job pinned to a
// deterministic collector site, and both are planned by the ordinary Map body
// — RLS reduction, site selection, transfer and registration nodes.
//
// Leaf waves deliver and register their outputs at the collector site, so by
// the time the collector wave is planned every input is a local replica and
// the collector plan stays O(1) in the request size. Because every wave is
// reduced against the RLS, replanning a wave after a crash prunes exactly the
// jobs whose outputs were already registered — resume falls out of the
// paper's own reduction semantics.
type WavePlanner struct {
	src           WaveSource
	cfg           Config
	waveSize      int
	seed          int64
	collectorSite string
}

// NewWavePlanner validates the source and picks the collector site: the
// configured OutputSite when the Transformation Catalog can run the collector
// there, else the first TC site (sorted) that can — a deterministic choice a
// resumed run recomputes identically.
func NewWavePlanner(src WaveSource, cfg Config, waveSize int, seed int64) (*WavePlanner, error) {
	if cfg.RLS == nil || cfg.TC == nil {
		return nil, errors.New("pegasus: RLS and TC are required")
	}
	if waveSize <= 0 {
		return nil, fmt.Errorf("pegasus: wave size %d must be positive", waveSize)
	}
	if src.Jobs < 0 || (src.Jobs > 0 && src.Job == nil) {
		return nil, errors.New("pegasus: wave source needs a Job func for its jobs")
	}
	p := &WavePlanner{src: src, cfg: cfg, waveSize: waveSize, seed: seed}
	if src.Collector.ID != "" {
		entries, err := cfg.TC.Lookup(src.Collector.Transformation)
		if err != nil {
			return nil, fmt.Errorf("%w: %q (%v)", ErrNoSite, src.Collector.Transformation, err)
		}
		p.collectorSite = entries[0].Site // Lookup sorts by site
		for _, e := range entries {
			if e.Site == cfg.OutputSite {
				p.collectorSite = e.Site
				break
			}
		}
	}
	return p, nil
}

// LeafWaves is the number of bounded leaf waves.
func (p *WavePlanner) LeafWaves() int {
	return (p.src.Jobs + p.waveSize - 1) / p.waveSize
}

// Waves is the total wave count, collector included.
func (p *WavePlanner) Waves() int {
	n := p.LeafWaves()
	if p.src.Collector.ID != "" {
		n++
	}
	return n
}

// CollectorSite is the site the collector job is pinned to ("" when the
// source has no collector).
func (p *WavePlanner) CollectorSite() string { return p.collectorSite }

// WaveBounds returns the [lo, hi) job-index window of one leaf wave.
func (p *WavePlanner) WaveBounds(wave int) (lo, hi int) {
	lo = wave * p.waveSize
	hi = lo + p.waveSize
	if hi > p.src.Jobs {
		hi = p.src.Jobs
	}
	return lo, hi
}

// Plan produces the concrete plan of one wave; every wave goes through the
// planner body behind Map. Each wave draws its randomness from its own
// (seed, wave) stream, so a wave's plan never depends on how many waves ran
// before it — the property that lets a resume replan any single wave in
// isolation. When a collector exists, leaf waves are planned with the
// collector site as their output site (registration forced on), so leaf
// outputs land where the collector consumes them. The final wave is the
// collector as a one-job workflow, never reduced and pinned to the collector
// site: left to site selection it could be mapped away from its inputs and
// plan one stage-in per leaf job, unbounded in the request size.
func (p *WavePlanner) Plan(wave int) (*Plan, error) {
	if wave < 0 || wave >= p.Waves() {
		return nil, fmt.Errorf("pegasus: wave %d out of range [0, %d)", wave, p.Waves())
	}
	cfg := p.cfg
	cfg.Rand = rand.New(rand.NewSource(p.seed + int64(wave)))
	if wave == p.LeafWaves() {
		cfg.NoReduce = true
		return mapJobs([]WaveJob{p.src.Collector}, cfg, map[string]string{p.src.Collector.ID: p.collectorSite})
	}
	lo, hi := p.WaveBounds(wave)
	jobs := make([]WaveJob, 0, hi-lo)
	for i := lo; i < hi; i++ {
		jobs = append(jobs, p.src.Job(i))
	}
	if p.src.Collector.ID != "" {
		cfg.OutputSite = p.collectorSite
		cfg.RegisterOutputs = true
	}
	return mapJobs(jobs, cfg, nil)
}

// mapJobs assembles one wave's abstract sub-workflow, every output requested,
// and maps it.
func mapJobs(jobs []WaveJob, cfg Config, pin map[string]string) (*Plan, error) {
	wf := &chimera.Workflow{Graph: dag.NewSized(len(jobs), len(jobs)), RequestedLFNs: make([]string, 0, len(jobs))}
	producerOf := make(map[string]string, len(jobs))
	for _, j := range jobs {
		if err := wf.AddJob(j.ID, j.Transformation, j.Inputs, j.Outputs); err != nil {
			return nil, err
		}
		for _, out := range j.Outputs {
			producerOf[out] = j.ID
			wf.RequestedLFNs = append(wf.RequestedLFNs, out)
		}
	}
	// Intra-wave dependencies (leaf jobs are typically independent, but the
	// source is free to yield small producer/consumer chains).
	for _, j := range jobs {
		for _, in := range j.Inputs {
			if prod, ok := producerOf[in]; ok && prod != j.ID {
				if err := wf.Graph.AddEdge(prod, j.ID); err != nil {
					return nil, err
				}
			}
		}
	}
	return mapPinned(wf, cfg, pin)
}
