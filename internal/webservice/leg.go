package webservice

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/chimera"
	"repro/internal/condor"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/pegasus"
	"repro/internal/vdl"
)

// A workflow leg is one execution of a request under one fabric lease: the
// first run of a fresh request, or the resumption of a journaled one (after
// a crash, a cancel, an operator requeue or a fabric preemption). Every leg
// runs the same body — runLeg: open the scoped journal, build the DAGMan
// options once, execute the plan source's graphs, write the rescue file on
// failure, journal the end marker — and differs only in its plan source:
// where the concrete graphs come from.
//
//	             fresh request                       resumed request
//	monolithic   stage all, Chimera, pegasus.Map,    ReadDAGFile(.dag)
//	             persist .vdl + .dag
//	wave         WavePlanner, persist .vdl + .waves  WavePlanner from .waves
//
// A monolithic source yields its one graph; a wave source stages, plans and
// yields one bounded wave at a time. Both are the closure type
// dagman.ExecuteWaves takes, so the resubmission path is the first-run path.

// leg is the per-execution context: the receiver of everything one leg does
// — its body and plan sources here, node behaviour in runner.go, recovery in
// integrity.go, image staging in staging.go. It owns the request's virtual
// data catalog, the leg's accounting and the profiler labels.
type leg struct {
	s               *Service
	tenant, cluster string
	// cat is the request's virtual data catalog, set by the plan source: the
	// runner reconstructs measurement configs from its derivations and the
	// integrity layer re-derives damaged files from its provenance.
	cat *vdl.Catalog
	// mu guards stats, which only account writes and only snapshot reads.
	mu    sync.Mutex
	stats RunStats
	// labels is the pprof label set (tenant, cluster, wave) every node Run
	// body executes under, so profiles taken against a busy fabric attribute
	// samples to the request that caused them. It is rebuilt only when the
	// wave changes, keeping the per-job overhead to one atomic load.
	labels     atomic.Value // pprof.LabelSet
	onProgress func(done, total int)
	// done/total are the progress counters: a one-graph source knows its
	// total up front, a wave source grows it as waves are planned (the
	// concrete node count of a wave is unknown until its plan exists).
	done, total int
}

// newLeg builds the context of one leg of a request the fabric has preempted
// preemptions times so far. Monolithic plans keep the wave label at "-".
func (s *Service) newLeg(tenant, cluster string, preemptions int, onProgress func(done, total int)) *leg {
	l := &leg{s: s, tenant: tenant, cluster: cluster, onProgress: onProgress,
		stats: RunStats{Preemptions: preemptions}}
	l.setWave("-")
	return l
}

// account is the one door to the leg's RunStats. Whatever a leg counts — on
// the scheduler goroutine (plan folding, retries, failover rotation, wave
// bookkeeping) or inside Run bodies on the worker pool — arrives here as a
// delta and is folded in under the lock: counters add, the two high-water
// marks take the maximum, ReusedOutput latches. A RunStats is therefore the
// fold of its leg's deltas in any order, which is what keeps it identical at
// every worker width.
func (l *leg) account(d RunStats) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Galaxies += d.Galaxies
	l.stats.ComputeJobs += d.ComputeJobs
	l.stats.PrunedJobs += d.PrunedJobs
	l.stats.TransferNodes += d.TransferNodes
	l.stats.RegisterNodes += d.RegisterNodes
	l.stats.ImagesFetched += d.ImagesFetched
	l.stats.ImagesCached += d.ImagesCached
	l.stats.SIARequests += d.SIARequests
	l.stats.SIABytes += d.SIABytes
	l.stats.SIAModelTime += d.SIAModelTime
	l.stats.FilesStaged += d.FilesStaged
	l.stats.BytesStaged += d.BytesStaged
	l.stats.InvalidRows += d.InvalidRows
	l.stats.Retries += d.Retries
	l.stats.Failovers += d.Failovers
	l.stats.MemoHits += d.MemoHits
	l.stats.MemoMisses += d.MemoMisses
	l.stats.Makespan += d.Makespan
	l.stats.ReusedOutput = l.stats.ReusedOutput || d.ReusedOutput
	l.stats.ChecksumFailures += d.ChecksumFailures
	l.stats.Quarantined += d.Quarantined
	l.stats.Rederived += d.Rederived
	l.stats.RestoredNodes += d.RestoredNodes
	l.stats.RLSRoundTrips += d.RLSRoundTrips
	l.stats.PlannedBytesMoved += d.PlannedBytesMoved
	l.stats.ScheduleEvents += d.ScheduleEvents
	l.stats.ClusteredTasks += d.ClusteredTasks
	l.stats.ClusteredNodes += d.ClusteredNodes
	l.stats.Waves += d.Waves
	l.stats.MaxWaveNodes = max(l.stats.MaxWaveNodes, d.MaxWaveNodes)
	l.stats.ImagesEvicted += d.ImagesEvicted
	l.stats.PeakStagedImages = max(l.stats.PeakStagedImages, d.PeakStagedImages)
	l.stats.Preemptions += d.Preemptions
}

// snapshot returns the leg's accounting so far.
func (l *leg) snapshot() RunStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// setWave rebuilds the label set for a new wave. The wave driver calls it
// between waves, when no Run bodies execute.
func (l *leg) setWave(wave string) {
	l.labels.Store(pprof.Labels("tenant", l.tenant, "cluster", l.cluster, "wave", wave))
}

// labelled returns run executed under the current label set.
func (l *leg) labelled(run func() error) func() error {
	return func() error {
		var err error
		pprof.Do(context.Background(), l.labels.Load().(pprof.LabelSet), func(context.Context) {
			err = run()
		})
		return err
	}
}

func (l *leg) progress() {
	if l.onProgress != nil {
		l.onProgress(l.done, l.total)
	}
}

func (l *leg) path(ext string) string {
	return filepath.Join(l.s.cfg.JournalDir, wfBase(l.tenant, l.cluster)+ext)
}

// planned folds one Pegasus plan into the leg's accounting. The plan's
// replica snapshot seeds the read-through cache, so runner-side lookups
// (retry rotation, recovery) cost no extra RLS round trips.
func (l *leg) planned(plan *pegasus.Plan) {
	l.s.replicas.Prime(plan.Replicas)
	ps := plan.Stats()
	l.account(RunStats{
		ComputeJobs:       ps.ComputeJobs,
		PrunedJobs:        ps.PrunedJobs,
		TransferNodes:     ps.TransferNodes,
		RegisterNodes:     ps.RegisterNodes,
		RLSRoundTrips:     plan.RLSRoundTrips,
		PlannedBytesMoved: plan.EstBytesMoved,
	})
}

// planSource is what one leg executes.
type planSource struct {
	// begin is the KindBegin detail of a fresh leg.
	begin string
	// next yields the leg's concrete graphs in order, nil when exhausted.
	next func(w int) (*dag.Graph, error)
}

// oneGraph is the monolithic plan source: the whole request as one graph.
func (l *leg) oneGraph(g *dag.Graph) func(int) (*dag.Graph, error) {
	l.total = g.Len()
	return func(w int) (*dag.Graph, error) {
		if w > 0 {
			return nil, nil
		}
		return g, nil
	}
}

// waves is the survey-scale plan source: instead of staging every image and
// planning one monolithic concrete DAG, the request is cut into waves. Each
// wave stages only its own images, plans through the ordinary Pegasus
// pipeline, executes to completion, and is discarded before the next wave
// is planned — peak image-staging and planner/scheduler memory are bounded
// by the wave. The final wave runs the concatenating job at a deterministic
// collector site the leaf waves delivered their results to. On a resumed
// leg RLS reduction prunes whole jobs whose outputs were already
// registered, so each replanned wave shrinks to its unfinished remainder.
func (l *leg) waves(planner *pegasus.WavePlanner, refs []imageRef) func(int) (*dag.Graph, error) {
	s := l.s
	// evict reclaims a completed leaf wave's staged cutouts: once a wave's
	// derived outputs are registered in the RLS its input images are dead
	// weight, so the store's peak footprint stays bounded by one wave
	// instead of accumulating the whole survey. Inputs whose output is not
	// registered (a rescue re-run may need them) are kept.
	evict := func(w int) {
		if w < 0 || w >= planner.LeafWaves() {
			return
		}
		lo, hi := planner.WaveBounds(w)
		for _, r := range refs[lo:hi] {
			if s.cfg.RLS.Exists(r.id+".txt") && s.evictImage(r.id+".fit") {
				l.account(RunStats{ImagesEvicted: 1})
			}
		}
	}
	return func(w int) (*dag.Graph, error) {
		// Waves release sequentially: wave w-1 has completed (and
		// registered its outputs) by the time wave w is staged — no Run
		// bodies execute while the wave label is rebuilt here.
		l.setWave(strconv.Itoa(w))
		evict(w - 1)
		if w >= planner.Waves() {
			return nil, nil
		}
		if w < planner.LeafWaves() {
			lo, hi := planner.WaveBounds(w)
			if err := l.cacheImageRefs(refs[lo:hi]); err != nil {
				return nil, err
			}
			l.account(RunStats{PeakStagedImages: s.countStagedImages()})
		}
		plan, err := planner.Plan(w)
		if err != nil {
			return nil, err
		}
		l.planned(plan)
		l.account(RunStats{Waves: 1, MaxWaveNodes: plan.Concrete.Len()})
		l.total += plan.Concrete.Len()
		l.progress()
		return plan.Concrete, nil
	}
}

// freshSource plans a new request and, when journaling, persists the plan
// and the VDL it came from so a resumed leg reloads the exact plan without
// replanning — site selection is seeded, and replanning against a healthier
// RLS would prune differently. The catalog is built from the request's
// derivations directly, in both modes; the derivation file is written from
// the same derivations only where a resume will need to parse it.
func (l *leg) freshSource(dvs *derivations) (*planSource, error) {
	s := l.s
	cat, err := dvs.catalog()
	if err != nil {
		return nil, fmt.Errorf("webservice: request table: %w", err)
	}
	l.cat = cat
	src := &planSource{}
	// The per-request seed derives from the cluster name (not a shared
	// stream), so concurrent requests stay individually deterministic.
	seed := s.requestSeed(l.cluster)
	refs := dvs.refs
	var persistPlan func() error
	if s.cfg.WaveSize > 0 {
		// The manifest replaces the .dag artifact, which would be unbounded
		// at survey scale.
		planner, err := pegasus.NewWavePlanner(waveSourceFor(refs, l.cluster), s.planConfig(), s.cfg.WaveSize, seed)
		if err != nil {
			return nil, err
		}
		src.begin = fmt.Sprintf("cluster=%s seed=%d waves=%d jobs=%d", l.cluster, seed, planner.Waves(), len(refs))
		src.next = l.waves(planner, refs)
		persistPlan = func() error { return writeWaveManifest(l.path(".waves"), s.cfg.WaveSize, refs) }
	} else {
		if err := l.cacheImageRefs(refs); err != nil {
			return nil, err
		}
		wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{outputLFN(l.cluster)}})
		if err != nil {
			return nil, err
		}
		pcfg := s.planConfig()
		pcfg.Rand = rand.New(rand.NewSource(seed))
		plan, err := pegasus.Map(wf, pcfg)
		if err != nil {
			return nil, err
		}
		l.planned(plan)
		src.begin = fmt.Sprintf("cluster=%s seed=%d nodes=%d", l.cluster, seed, plan.Concrete.Len())
		src.next = l.oneGraph(plan.Concrete)
		persistPlan = func() error { return dagman.WriteDAGFile(l.path(".dag"), plan.Concrete, nil) }
	}
	if s.cfg.JournalDir != "" {
		if err := os.MkdirAll(s.cfg.JournalDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(l.path(".vdl"), []byte(dvs.text()), 0o644); err != nil {
			return nil, err
		}
		if err := persistPlan(); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// savedSource reloads the plan a fresh leg persisted. A wave manifest marks
// a survey-scale run (the .dag artifact is never written in that mode): it
// restores the exact wave decomposition, and restages missing images,
// without the original input table.
func (l *leg) savedSource() (*planSource, error) {
	s := l.s
	src := &planSource{}
	waveSize, refs, err := readWaveManifest(l.path(".waves"))
	switch {
	case err == nil:
		planner, perr := pegasus.NewWavePlanner(waveSourceFor(refs, l.cluster), s.planConfig(), waveSize, s.requestSeed(l.cluster))
		if perr != nil {
			return nil, perr
		}
		src.next = l.waves(planner, refs)
	case errors.Is(err, fs.ErrNotExist):
		g, _, derr := dagman.ReadDAGFile(l.path(".dag"))
		if derr != nil {
			return nil, fmt.Errorf("webservice: resume %s: %w", l.cluster, derr)
		}
		src.next = l.oneGraph(g)
	default:
		return nil, fmt.Errorf("webservice: resume %s: %w", l.cluster, err)
	}
	vdlText, err := os.ReadFile(l.path(".vdl"))
	if err != nil {
		return nil, fmt.Errorf("webservice: resume %s: %w", l.cluster, err)
	}
	if l.cat, err = vdl.Parse(string(vdlText)); err != nil {
		return nil, fmt.Errorf("webservice: resume %s: saved VDL invalid: %w", l.cluster, err)
	}
	return src, nil
}

// runLeg executes one workflow leg under a granted fabric lease: the full
// §4.3 pipeline when dvs is set, the resumption of the journaled run when
// it is nil (admission turned a fresh request's table into its derivations
// before it got here). A resumed leg reloads the persisted plan (never
// replans), restores every node the journal's intact prefix records as
// completed, and runs only the unfinished remainder, so its output VOTable
// is byte-identical to the uninterrupted run's. However the leg exits, the lease is released and
// the model-time makespan charged to the tenant's fair-share account —
// except when preempted: the caller answers the revocation with
// lease.Preempted, which requeues the workflow.
func (l *leg) runLeg(ctx context.Context, lease *fabric.Lease, dvs *derivations) (_ string, retErr error) {
	s, tenant, cluster := l.s, l.tenant, l.cluster
	defer func() {
		if !errors.Is(retErr, ErrPreempted) {
			lease.Done(l.snapshot().Makespan, retErr != nil)
		}
	}()
	// Only a journaled workflow can checkpoint-stop, so only those opt
	// into scheduler revocation.
	lease.SetPreemptible(s.cfg.JournalDir != "")
	outLFN := outputLFN(cluster)

	fresh := dvs != nil
	var src *planSource
	var err error
	if !fresh {
		if src, err = l.savedSource(); err == nil {
			// The saved VDL holds one galMorph derivation per galaxy plus
			// the collector.
			l.account(RunStats{Galaxies: len(l.cat.Derivations()) - 1})
		}
	} else {
		if s.cfg.Proxy != nil {
			proxy, err := s.cfg.Proxy()
			if err != nil {
				return "", fmt.Errorf("webservice: credential retrieval: %w", err)
			}
			if !proxy.Valid(s.cfg.Now()) {
				return "", errors.New("webservice: Grid proxy expired; delegate a fresh credential")
			}
		}
		l.account(RunStats{Galaxies: len(dvs.refs)})
		// Output already materialized? Serve it straight from the RLS
		// (Figure 6 step 2).
		if s.cfg.RLS.Exists(outLFN) {
			l.account(RunStats{ReusedOutput: true})
			return outLFN, nil
		}
		src, err = l.freshSource(dvs)
	}
	if err != nil {
		return "", err
	}

	// The write-ahead journal DAGMan records every transition in. A resumed
	// leg's intact prefix is the authoritative history (a torn final line is
	// the crash signature and is discarded by CRC check).
	var jw *journal.Writer
	var recs []journal.Record
	if s.cfg.JournalDir != "" {
		path, scope := l.path(".journal"), wfScope(tenant, cluster)
		if fresh {
			jw, err = journal.CreateScoped(path, scope)
		} else {
			jw, recs, err = journal.OpenAppendScoped(path, scope)
			if err != nil {
				err = fmt.Errorf("webservice: resume %s: %w", cluster, err)
			}
		}
		if err != nil {
			return "", err
		}
		// A failed close means the final records may not have reached the
		// disk — the journal is the crash-recovery contract, so that is a
		// run failure, not a cleanup detail.
		defer func() {
			if errors.Is(retErr, ErrPreempted) {
				// Best-effort checkpoint marker: DAGMan already journaled
				// the abort, so replay is correct without it.
				_ = jw.Append(journal.Record{Kind: journal.KindPreempted,
					Detail: "lease revoked; checkpoint-stopped at event boundary"})
			}
			if cerr := jw.Close(); cerr != nil && retErr == nil {
				retErr = fmt.Errorf("webservice: closing journal: %w", cerr)
			}
		}()
		if fresh {
			// The begin marker goes straight to the writer so a wrapping
			// sink's event budget counts DAGMan events only.
			if err := jw.Append(journal.Record{Kind: journal.KindBegin, Detail: src.begin}); err != nil {
				return "", err
			}
		} else if _, ended := journal.Ended(recs); ended && s.cfg.RLS.Exists(outLFN) {
			l.account(RunStats{ReusedOutput: true})
			return outLFN, nil
		}
	}

	// A dead context aborts the workflow (cancellation); a revoked lease
	// checkpoint-stops it at the next journal event boundary (preemption).
	opts := dagman.Options{
		MaxRetries:  s.cfg.MaxRetries,
		ClusterSize: s.cfg.ClusterSize,
		MaxInFlight: lease.JobAllowance,
		Completed:   journal.CompletedNodes(recs),
		Check: func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if lease.IsRevoked() {
				return ErrPreempted
			}
			return nil
		},
		Monitor: func(e dagman.Event) {
			switch e.Kind {
			case dagman.EventRetried:
				l.account(RunStats{Retries: 1})
			case dagman.EventCompleted, dagman.EventRestored:
				l.done++
				l.progress()
			}
		},
	}
	if jw != nil {
		opts.Journal = jw
		if s.cfg.WrapJournal != nil {
			opts.Journal = s.cfg.WrapJournal(tenant, cluster, opts.Journal)
		}
	}

	// DAGMan executes on the Condor pools, resubmitting the rescue DAG when
	// configured.
	l.progress()
	ws, err := dagman.ExecuteWaves(src.next, l.runner(), l.simFactory(lease), opts, s.cfg.RescueRounds)
	if ws != nil {
		l.account(RunStats{
			Makespan:       ws.Makespan,
			RestoredNodes:  ws.Restored,
			ScheduleEvents: ws.ScheduleEvents,
			ClusteredTasks: ws.ClusteredTasks,
			ClusteredNodes: ws.ClusteredNodes,
		})
	}
	var we *dagman.WaveError
	if errors.As(err, &we) {
		if jw != nil {
			// Serialize the rescue DAG — the classic on-disk artifact naming
			// exactly the nodes a resubmission must run.
			if rerr := dagman.WriteRescueFile(l.path(".rescue.dag"), we.Graph, we.Report); rerr != nil {
				return "", rerr
			}
		}
		return "", fmt.Errorf("webservice: workflow failed: %d failed, %d unrun",
			we.Report.Failed, we.Report.Unrun)
	}
	if err != nil {
		return "", err
	}
	if !s.cfg.RLS.Exists(outLFN) {
		return "", fmt.Errorf("webservice: workflow completed but %q not registered", outLFN)
	}
	if err := jw.Append(journal.Record{Kind: journal.KindEnd, Detail: "output=" + outLFN}); err != nil {
		return "", err
	}
	return outLFN, nil
}

// simFactory builds the leg's simulator factory: every scheduler is
// stamped by the fabric from the shared pool set, under the service's
// execution model (fault injection, side-effect fan-out, dedicated
// transfer lanes, serialized submission overhead). Rescue rounds call the
// factory again, reusing the same lease — a rescue is still the same
// workflow occupying the same fabric slot.
func (l *leg) simFactory(lease *fabric.Lease) func() (*condor.Simulator, error) {
	s := l.s
	var inj *faults.Injector
	if s.cfg.FaultsFor != nil {
		inj = s.cfg.FaultsFor(l.tenant, l.cluster)
	}
	return func() (*condor.Simulator, error) {
		return lease.NewSimulator(fabric.SimOptions{
			Workers:        s.workers(),
			SubmitOverhead: s.cfg.SchedOverhead,
			TransferSlots:  s.cfg.TransferSlots,
			Injector:       inj,
		})
	}
}

// planConfig is the Pegasus configuration every plan of this service uses —
// the whole-request Map and each wave draw from the same substrate wiring
// (Rand is set per call site).
func (s *Service) planConfig() pegasus.Config {
	return pegasus.Config{
		RLS:             s.cfg.RLS,
		TC:              s.cfg.TC,
		OutputSite:      s.cfg.CacheSite,
		RegisterOutputs: true,
		Selection:       s.cfg.Selection,
		Net:             s.cfg.GridFTP.Network(),
		SizeOf:          func(lfn string) int64 { return s.cfg.GridFTP.Store(s.cfg.CacheSite).Size(lfn) },
	}
}

// wfScope names one workflow for journal-record stamping: the scope every
// record of the run carries and a resume must present.
func wfScope(tenant, cluster string) string { return tenant + "/" + cluster }

// wfBase is the basename of one workflow's recovery artifacts under
// JournalDir (.journal, .vdl, .dag or .waves, .rescue.dag). The default
// tenant keeps the historic bare-cluster names, so journals written before
// multi-tenancy resume unchanged; other tenants get namespaced files so
// two tenants computing the same cluster name cannot collide on disk.
func wfBase(tenant, cluster string) string {
	if tenant == DefaultTenant {
		return cluster
	}
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		}
		return '_'
	}, tenant)
	return safe + "__" + cluster
}

// waveSourceFor mirrors the request's derivations — one galMorph job
// per galaxy plus the concatVOT collector — as a lazy pegasus.WaveSource, so
// the survey-scale path never materializes a per-galaxy job list beyond the
// (id, acref) staging refs it already holds.
func waveSourceFor(refs []imageRef, cluster string) pegasus.WaveSource {
	inputs := make([]string, len(refs))
	for i, r := range refs {
		inputs[i] = r.id + ".txt"
	}
	return pegasus.WaveSource{
		Jobs: len(refs),
		Job: func(i int) pegasus.WaveJob {
			id := refs[i].id
			return pegasus.WaveJob{
				ID:             "m-" + id,
				Transformation: "galMorph",
				Inputs:         []string{id + ".fit"},
				Outputs:        []string{id + ".txt"},
			}
		},
		Collector: pegasus.WaveJob{
			ID:             "collect-" + cluster,
			Transformation: "concatVOT",
			Inputs:         inputs,
			Outputs:        []string{outputLFN(cluster)},
		},
	}
}

// writeWaveManifest persists the wave decomposition of one request: the wave
// size and the ordered (id, acref) galaxy list — everything a resume needs to
// rebuild the exact wave sequence.
func writeWaveManifest(path string, waveSize int, refs []imageRef) error {
	var b strings.Builder
	fmt.Fprintf(&b, "wave_size %d\n", waveSize)
	for _, r := range refs {
		if strings.ContainsAny(r.id, "\t\n") || strings.ContainsAny(r.acref, "\t\n") {
			return fmt.Errorf("webservice: galaxy %q/%q not manifest-safe", r.id, r.acref)
		}
		fmt.Fprintf(&b, "%s\t%s\n", r.id, r.acref)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// readWaveManifest reloads a wave manifest.
func readWaveManifest(path string) (int, []imageRef, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close() //nvolint:ignore errclose read-only manifest; decode errors surface via the scanner
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	if !sc.Scan() {
		return 0, nil, fmt.Errorf("webservice: wave manifest %s: empty", path)
	}
	sizeStr, ok := strings.CutPrefix(sc.Text(), "wave_size ")
	if !ok {
		return 0, nil, fmt.Errorf("webservice: wave manifest %s: bad header %q", path, sc.Text())
	}
	waveSize, err := strconv.Atoi(sizeStr)
	if err != nil || waveSize <= 0 {
		return 0, nil, fmt.Errorf("webservice: wave manifest %s: bad wave size %q", path, sizeStr)
	}
	var refs []imageRef
	for sc.Scan() {
		id, acref, found := strings.Cut(sc.Text(), "\t")
		if !found || id == "" {
			return 0, nil, fmt.Errorf("webservice: wave manifest %s: bad line %q", path, sc.Text())
		}
		refs = append(refs, imageRef{id: id, acref: acref})
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	return waveSize, refs, nil
}
