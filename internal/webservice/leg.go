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
//	wave         WavePlanner, persist .vdl + .waves  WavePlanner from .waves;
//	             and each wave's .wave<w>.dag        a saved wave's .dag
//
// A monolithic source yields its one graph; a wave source stages, plans and
// yields one bounded wave at a time. Both are the closure type
// dagman.ExecuteWaves takes, so the resubmission path is the first-run path.

// leg is the per-execution context: the receiver of everything one leg does
// — its body and plan sources here, node behaviour in runner.go, recovery in
// integrity.go, image staging in staging.go. It owns the request's virtual
// data catalog and the profiler labels, and reports its accounting, progress
// and lifecycle into the request's record.
type leg struct {
	s *Service
	r *request
	// cat is the request's virtual data catalog, set by the plan source: the
	// runner reconstructs measurement configs from its derivations and the
	// integrity layer re-derives damaged files from its provenance.
	cat *vdl.Catalog
	// refs are a wave leg's galaxy images and their archive URLs: the
	// integrity layer stages an evicted image again to re-derive its result.
	refs []imageRef
	// labels is the context carrying the pprof label set (tenant, cluster,
	// wave) every node Run body executes under, so profiles taken against a
	// busy fabric attribute samples to the request that caused them. It is
	// built only when the wave changes, keeping the per-job overhead to one
	// atomic load and two label switches.
	labels atomic.Value // context.Context
	// sink is the durable journal the leg forwards DAGMan's records to (the
	// scoped writer, wrapped by Config.WrapJournal); nil without JournalDir.
	sink journal.Sink
}

// newLeg builds the context of one leg of request r, which the fabric has
// preempted preemptions times so far. A request reports its running leg:
// r's stats restart at the preemption count and its progress at zero.
// Monolithic plans keep the wave label at "-".
func (s *Service) newLeg(r *request, preemptions int) *leg {
	r.mu.Lock()
	r.Stats = RunStats{Preemptions: preemptions}
	r.JobsDone, r.JobsTotal = 0, 0
	r.mu.Unlock()
	l := &leg{s: s, r: r}
	l.setWave("-")
	return l
}

// account is the one door to the request's RunStats. Whatever a leg counts
// — on the scheduler goroutine (plan folding, retries, failover rotation,
// wave bookkeeping) or inside Run bodies on the worker pool — arrives here
// as a delta and is folded in under the record's lock.
func (l *leg) account(d RunStats) {
	l.r.mu.Lock()
	defer l.r.mu.Unlock()
	l.r.Stats.add(d)
}

// progress advances the request's progress counters by done and total and
// reports them to its observer. A one-graph source knows its total up
// front; a wave source grows it as waves are planned (the concrete node
// count of a wave is unknown until its plan exists).
func (l *leg) progress(done, total int) {
	l.r.mu.Lock()
	done, total = l.r.JobsDone+done, l.r.JobsTotal+total
	l.r.JobsDone, l.r.JobsTotal = done, total
	l.r.mu.Unlock()
	if l.r.observe != nil {
		l.r.observe(done, total)
	}
}

// setWave rebuilds the label context for a new wave. The wave driver calls
// it between waves, when no Run bodies execute.
func (l *leg) setWave(wave string) {
	l.labels.Store(pprof.WithLabels(context.Background(),
		pprof.Labels("tenant", l.r.Tenant, "cluster", l.r.Cluster, "wave", wave)))
}

// label puts the calling goroutine under the leg's current labels and returns
// the call that takes them off again; a Run body starts with
// defer l.label()(). Like pprof.Do over a background context, but with the
// label context built once per wave instead of once per body.
func (l *leg) label() func() {
	pprof.SetGoroutineLabels(l.labels.Load().(context.Context))
	return unlabel
}

func unlabel() { pprof.SetGoroutineLabels(context.Background()) }

// Append makes the leg the journal.Sink DAGMan reports through, so the
// records it makes durable are the only report of the leg's transitions:
// each is forwarded to the durable sink first, and only a record that sink
// accepted is folded into the retry and restored-node counts and the
// progress counter. A refused record (a CrashSink kill) is a transition that
// never happened, so it is neither counted nor reported.
func (l *leg) Append(rec journal.Record) error {
	if l.sink != nil {
		if err := l.sink.Append(rec); err != nil {
			return err
		}
	}
	switch rec.Kind {
	case journal.KindRetried:
		l.account(RunStats{Retries: 1})
	case journal.KindRestored:
		l.account(RunStats{RestoredNodes: 1})
		fallthrough
	case journal.KindCompleted:
		l.progress(1, 0)
	}
	return nil
}

func (l *leg) path(ext string) string {
	return filepath.Join(l.s.cfg.JournalDir, wfBase(l.r.Tenant, l.r.Cluster)+ext)
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
	// total is the node count known before the first graph: a one-graph
	// source's whole plan, 0 for a wave source.
	total int
}

// oneGraph is the monolithic plan source: the whole request as one graph.
func oneGraph(g *dag.Graph) func(int) (*dag.Graph, error) {
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
//
// A journaled leg persists each wave's concrete plan until the wave has
// finished, and a resumed leg runs the saved plan of the wave it died in
// instead of replanning it: the journal restores that wave's nodes by ID,
// and a replan could place a restored job at a site its output never
// reached — pruning a finished sibling job shifts the seeded site draws.
func (l *leg) waves(planner *pegasus.WavePlanner, refs []imageRef, resumed bool) func(int) (*dag.Graph, error) {
	s := l.s
	l.refs = refs
	wavePlan := func(w int) string { return l.path(".wave" + strconv.Itoa(w) + ".dag") }
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
		if s.cfg.JournalDir != "" && w > 0 {
			if err := os.Remove(wavePlan(w - 1)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, err
			}
		}
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
		var g *dag.Graph
		if resumed {
			saved, _, err := dagman.ReadDAGFile(wavePlan(w))
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("webservice: resume %s wave %d: %w", l.r.Cluster, w, err)
			}
			g = saved
		}
		if g == nil {
			plan, err := planner.Plan(w)
			if err != nil {
				return nil, err
			}
			l.planned(plan)
			g = plan.Concrete
			if s.cfg.JournalDir != "" {
				if err := dagman.WriteDAGFile(wavePlan(w), g, nil); err != nil {
					return nil, err
				}
			}
		}
		l.account(RunStats{Waves: 1, MaxWaveNodes: g.Len()})
		l.progress(0, g.Len())
		return g, nil
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
	seed := s.requestSeed(l.r.Cluster)
	refs := dvs.refs
	var persistPlan func() error
	if s.cfg.WaveSize > 0 {
		// The manifest replaces the .dag artifact, which would be unbounded
		// at survey scale.
		planner, err := pegasus.NewWavePlanner(waveSourceFor(refs, l.r.Cluster), s.planConfig(), s.cfg.WaveSize, seed)
		if err != nil {
			return nil, err
		}
		src.begin = fmt.Sprintf("cluster=%s seed=%d waves=%d jobs=%d", l.r.Cluster, seed, planner.Waves(), len(refs))
		src.next = l.waves(planner, refs, false)
		persistPlan = func() error { return writeWaveManifest(l.path(".waves"), s.cfg.WaveSize, refs) }
	} else {
		if err := l.cacheImageRefs(refs); err != nil {
			return nil, err
		}
		wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{outputLFN(l.r.Cluster)}})
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
		src.begin = fmt.Sprintf("cluster=%s seed=%d nodes=%d", l.r.Cluster, seed, plan.Concrete.Len())
		src.next, src.total = oneGraph(plan.Concrete), plan.Concrete.Len()
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
		planner, perr := pegasus.NewWavePlanner(waveSourceFor(refs, l.r.Cluster), s.planConfig(), waveSize, s.requestSeed(l.r.Cluster))
		if perr != nil {
			return nil, perr
		}
		src.next = l.waves(planner, refs, true)
	case errors.Is(err, fs.ErrNotExist):
		g, _, derr := dagman.ReadDAGFile(l.path(".dag"))
		if derr != nil {
			return nil, fmt.Errorf("webservice: resume %s: %w", l.r.Cluster, derr)
		}
		src.next, src.total = oneGraph(g), g.Len()
	default:
		return nil, fmt.Errorf("webservice: resume %s: %w", l.r.Cluster, err)
	}
	vdlText, err := os.ReadFile(l.path(".vdl"))
	if err != nil {
		return nil, fmt.Errorf("webservice: resume %s: %w", l.r.Cluster, err)
	}
	if l.cat, err = vdl.Parse(string(vdlText)); err != nil {
		return nil, fmt.Errorf("webservice: resume %s: saved VDL invalid: %w", l.r.Cluster, err)
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
	s, tenant, cluster := l.s, l.r.Tenant, l.r.Cluster
	defer func() {
		if !errors.Is(retErr, ErrPreempted) {
			lease.Done(l.r.status().Stats.Makespan, retErr != nil)
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
			l.account(RunStats{Galaxies: l.cat.NumDerivations() - 1})
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
		l.sink = jw
		if s.cfg.WrapJournal != nil {
			l.sink = s.cfg.WrapJournal(tenant, cluster, jw)
		}
	}

	// DAGMan journals through the leg, which folds what the durable sink
	// accepted. A dead context aborts the workflow (cancellation); a revoked
	// lease checkpoint-stops it at the next journal event boundary
	// (preemption).
	opts := dagman.Options{
		MaxRetries:  s.cfg.MaxRetries,
		ClusterSize: s.cfg.ClusterSize,
		MaxInFlight: lease.JobAllowance,
		Journal:     l,
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
	}

	// DAGMan executes on the Condor pools, resubmitting the rescue DAG when
	// configured.
	l.progress(0, src.total)
	ws, err := dagman.ExecuteWaves(src.next, l.runner(), l.simFactory(lease), opts, s.cfg.RescueRounds)
	if ws != nil {
		l.account(RunStats{
			Makespan:       ws.Makespan,
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
		inj = s.cfg.FaultsFor(l.r.Tenant, l.r.Cluster)
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
// JournalDir (.journal, .vdl, .dag or .waves and .wave<w>.dag,
// .rescue.dag). The default tenant keeps the historic bare-cluster names, so
// journals written before multi-tenancy resume unchanged; other tenants get
// namespaced files so two tenants computing the same cluster name cannot
// collide on disk.
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
// (id, acref) staging refs it already holds. The jobs' names are the
// request's rowNames and their file lists windows of one slab, so a wave
// costs no per-job allocation to describe.
func waveSourceFor(refs []imageRef, cluster string) pegasus.WaveSource {
	n := len(refs)
	names := newRowNames(refs)
	// Every job's images, then every job's results (the collector's
	// inputs, in order), then the collector's output.
	lfns := make([]string, 2*n+1)
	for i := range refs {
		lfns[i], lfns[n+i] = names.image(i), names.result(i)
	}
	lfns[2*n] = outputLFN(cluster)
	return pegasus.WaveSource{
		Jobs: n,
		Job: func(i int) pegasus.WaveJob {
			return pegasus.WaveJob{
				ID:             names.dv(i),
				Transformation: "galMorph",
				Inputs:         lfns[i : i+1 : i+1],
				Outputs:        lfns[n+i : n+i+1 : n+i+1],
			}
		},
		Collector: pegasus.WaveJob{
			ID:             "collect-" + cluster,
			Transformation: "concatVOT",
			Inputs:         lfns[n : 2*n : 2*n],
			Outputs:        lfns[2*n:],
		},
	}
}

// maxManifestLine is the longest manifest line, newline included, that
// readWaveManifest accepts.
const maxManifestLine = 1 << 20

// writeWaveManifest persists the wave decomposition of one request: the wave
// size and the ordered (id, acref) galaxy list — everything a resume needs to
// rebuild the exact wave sequence. It refuses what readWaveManifest would not
// read back unchanged: a '\r' (the line scanner drops one before '\n'), a tab
// or newline, an empty id, a line over maxManifestLine, a wave size <= 0.
func writeWaveManifest(path string, waveSize int, refs []imageRef) error {
	if waveSize <= 0 {
		return fmt.Errorf("webservice: wave size %d not manifest-safe", waveSize)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "wave_size %d\n", waveSize)
	for _, r := range refs {
		if r.id == "" || strings.ContainsAny(r.id, "\t\r\n") || strings.ContainsAny(r.acref, "\t\r\n") ||
			len(r.id)+len(r.acref)+2 > maxManifestLine {
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
	sc.Buffer(make([]byte, 64*1024), maxManifestLine)
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
