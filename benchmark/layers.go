package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/arena"
	"repro/internal/chimera"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/fabric"
	"repro/internal/fits"
	"repro/internal/gridftp"
	"repro/internal/journal"
	"repro/internal/morphology"
	"repro/internal/pegasus"
	"repro/internal/rls"
	"repro/internal/services"
	"repro/internal/tableops"
	"repro/internal/vdcache"
	"repro/internal/vdl"
	"repro/internal/votable"
)

// perLayer names every per-layer metric of the traced pass with its unit, in
// the order of the pipeline. A workload that does not touch a layer reports
// zero for it, so every traced run prints the same names.
var perLayer = []struct{ name, unit string }{
	{"services.cone_search_s", "s"}, {"services.sia_query_s", "s"},
	{"services.cutout_render_s", "s"}, {"services.cutout_bytes", "B"},
	{"services.cone_requests", "count"}, {"services.sia_requests", "count"}, {"services.cutout_requests", "count"},
	{"portal.find_images_s", "s"}, {"portal.build_catalog_s", "s"},
	{"votable.encode_catalog_s", "s"}, {"votable.decode_catalog_s", "s"},
	{"votable.encode_result_s", "s"}, {"votable.decode_result_s", "s"},
	{"webservice.pre_execute_s", "s"}, {"webservice.execute_s", "s"}, {"webservice.status_polls", "count"},
	{"webservice.images_fetched", "count"}, {"webservice.images_cached", "count"},
	{"webservice.memo_hits", "count"}, {"webservice.memo_misses", "count"},
	{"webservice.files_staged", "count"}, {"webservice.bytes_staged", "B"}, {"webservice.sia_bytes", "B"},
	{"webservice.retries", "count"}, {"webservice.waves", "count"}, {"webservice.max_wave_nodes", "count"},
	{"webservice.peak_staged_images", "count"}, {"webservice.images_evicted", "count"},
	{"model.sia_s", "s"},
	{"vdl.parse_s", "s"}, {"chimera.compose_s", "s"}, {"chimera.abstract_nodes", "count"},
	{"pegasus.map_s", "s"}, {"pegasus.wave_plan_s", "s"}, {"pegasus.concrete_nodes", "count"},
	{"pegasus.transfer_nodes", "count"}, {"pegasus.pruned_jobs", "count"}, {"pegasus.rls_round_trips", "count"},
	{"dagman.schedule_s", "s"}, {"dagman.schedule_events", "count"},
	{"condor.dispatch_s", "s"}, {"condor.tasks", "count"},
	{"gridftp.transfer_s", "s"}, {"gridftp.transfers", "count"}, {"gridftp.transfer_bytes", "B"},
	{"rls.bulk_lookup_s", "s"}, {"rls.register_s", "s"},
	{"vdcache.lookup_s", "s"}, {"fits.parse_view_s", "s"},
	{"morphology.measure_s", "s"}, {"morphology.measure_us_per_galaxy", "us"},
	{"morphology.allocs_per_galaxy", "allocs"}, {"morphology.invalid_rows", "count"},
	{"tableops.spool_s", "s"},
	{"journal.append_s", "s"}, {"journal.records", "count"},
	{"journal.fsync_us_per_record", "us"}, {"journal.replay_s", "s"},
	{"fabric.admit_grant_us", "us"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_share", "fraction"}, {"runtime.peak_heap_inuse_mb", "MB"},
	{"layers.busy_sum_s", "s"}, {"layers.unaccounted_share", "fraction"},
	{"layers.parallel_gain", "ratio"}, {"trace.overhead_share", "fraction"},
}

// layerMetrics collects a traced pass's per-layer metrics.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64) {
	for _, d := range perLayer {
		if d.name == name {
			m[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: undeclared per-layer metric " + name)
}

// busy records a layer's busy time and adds it to the sum of the request's
// disjoint parts. A time measured inside another (the RLS lookup inside the
// Pegasus plan, the Condor dispatch inside the DAGMan schedule, the FITS
// parse inside the measurement) is set, not summed twice.
func (m layerMetrics) busy(name string, v float64) {
	m.set(name, v)
	m.set("layers.busy_sum_s", m["layers.busy_sum_s"].Value+v)
}

// finish fills in zeros for the layers the workload does not touch and closes
// the breakdown against the traced request's wall time. On the serial
// workload nothing overlaps, so the layers must add up and the share they
// leave unaccounted is the figure to read; on the parallel workloads the sum
// exceeds the wall by the gain from running them at once.
func (m layerMetrics) finish(wall float64) {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0)
		}
	}
	busy := m["layers.busy_sum_s"].Value
	m.set("layers.unaccounted_share", (wall-busy)/wall)
	m.set("layers.parallel_gain", busy/wall)
}

// Model durations of the scheduling replays: fixed, so that the replay times
// scheduling alone, with the orders of magnitude of the real cost model.
const (
	replayTransferCost = time.Second
	replayRegisterCost = 100 * time.Millisecond
	replayComputeCost  = 3 * time.Second
)

// emptyRunner gives every node its fixed model duration and no side effect.
func emptyRunner(n *dag.Node, _ int) (dagman.Spec, error) {
	switch n.Type {
	case pegasus.NodeTransfer:
		return dagman.Spec{Cost: replayTransferCost, Lane: condor.LaneTransfer}, nil
	case pegasus.NodeRegister:
		return dagman.Spec{Cost: replayRegisterCost}, nil
	default:
		return dagman.Spec{Cost: replayComputeCost}, nil
	}
}

// replay is the state of one serial layer replay.
type replay struct {
	w   workload
	p   params
	b   *bed
	art *artifacts
	tr  *tracer
	m   layerMetrics

	resultDoc   []byte         // the real output VOTable
	result      *votable.Table // and its rows
	derivations *vdl.Catalog   // the captured derivation file, parsed by planning
}

// span runs fn as one span covering count calls into a layer.
func (r *replay) span(name string, count int, fn func() error) (float64, error) {
	id := r.tr.begin(0, "replay", name)
	err := fn()
	secs := r.tr.end(id, count)
	if err != nil {
		return secs, fmt.Errorf("replay %s: %w", name, err)
	}
	return secs, nil
}

// part times fn as a disjoint part of the request and adds it to the sum.
func (r *replay) part(name string, count int, fn func() error) error {
	secs, err := r.span(name, count, fn)
	r.m.busy(name, secs)
	return err
}

// nested times fn as work that happens inside another part: reported, not
// summed.
func (r *replay) nested(name string, count int, fn func() error) error {
	secs, err := r.span(name, count, fn)
	r.m.set(name, secs)
	return err
}

// replayLayers times every layer the workload's requests pass through, one
// after the other, through the layer's public functions.
func replayLayers(w workload, p params, b *bed, art *artifacts, tr *tracer, m layerMetrics) error {
	r := &replay{w: w, p: p, b: b, art: art, tr: tr, m: m}
	var err error
	if r.resultDoc, err = b.tb.FTP.Store(cacheSite).Get(outLFN); err != nil {
		return err
	}
	if r.result, err = votable.ReadTable(bytes.NewReader(r.resultDoc)); err != nil {
		return err
	}
	steps := []func() error{r.tables, r.planning, r.scheduling, r.dataMovement, r.measurement, r.concat, r.admission}
	if w.portal {
		steps = append(steps, r.archives)
	}
	if w.journal {
		steps = append(steps, r.writeAhead)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// archives replays what the portal and the stage-in ask of the archive
// services: cone searches, SIA queries, and one cutout per galaxy.
func (r *replay) archives() error {
	tb := r.b.tb
	entry, err := tb.Portal.Cluster(cluster)
	if err != nil {
		return err
	}
	// paged calls fn for each page window of a response, until a page comes
	// up short; the monolithic path asks for everything at once.
	paged := func(fn func(offset, maxrec int) *votable.Table) {
		if !r.w.wave {
			fn(0, -1)
			return
		}
		for offset := 0; fn(offset, pageSize).NumRows() == pageSize; offset += pageSize {
		}
	}
	if err := r.nested("services.cone_search_s", 2, func() error {
		for _, a := range []*services.Archive{tb.NED, tb.MAST} {
			paged(func(offset, maxrec int) *votable.Table {
				return a.ConeSearchPage(entry.Center, entry.SearchRadiusDeg, offset, maxrec)
			})
		}
		return nil
	}); err != nil {
		return err
	}
	if err := r.nested("services.sia_query_s", 3, func() error {
		// Two large-scale image services (both served by MAST) and the
		// cutout service.
		tb.MAST.SIAQueryFields(entry.Center, 2*entry.SearchRadiusDeg)
		tb.MAST.SIAQueryFields(entry.Center, 2*entry.SearchRadiusDeg)
		paged(func(offset, maxrec int) *votable.Table {
			return tb.MAST.SIAQueryCutoutsPage(entry.Center, 2*entry.SearchRadiusDeg, offset, maxrec)
		})
		return nil
	}); err != nil {
		return err
	}
	var cutoutBytes int
	err = r.part("services.cutout_render_s", r.b.cat.NumRows(), func() error {
		for i := 0; i < r.b.cat.NumRows(); i++ {
			_, data, err := tb.MAST.CutoutFITS(r.b.cat.Cell(i, "id"))
			if err != nil {
				return err
			}
			cutoutBytes += len(data)
		}
		return nil
	})
	r.m.set("services.cutout_bytes", float64(cutoutBytes))
	return err
}

// tables replays the VOTable codec on the real catalog and the real result.
// The portal workloads ship the catalog to the compute service and read the
// result back; every workload encodes the result once, in the concat job.
func (r *replay) tables() error {
	// decode parses a document the way the workload's path does: the DOM
	// reader on the monolithic path, the row stream on the survey-scale one.
	decode := func(doc []byte) error {
		if r.w.wave {
			return votable.DecodeRows(bytes.NewReader(doc), nil, func(*votable.TableMeta, []string) error { return nil })
		}
		_, err := votable.ReadTable(bytes.NewReader(doc))
		return err
	}
	var buf bytes.Buffer
	if r.w.portal {
		if err := r.part("votable.encode_catalog_s", 1, func() error { return votable.WriteTable(&buf, r.b.cat) }); err != nil {
			return err
		}
		if err := r.part("votable.decode_catalog_s", 1, func() error { return decode(buf.Bytes()) }); err != nil {
			return err
		}
		if err := r.part("votable.decode_result_s", 1, func() error { return decode(r.resultDoc) }); err != nil {
			return err
		}
	}
	buf.Reset()
	return r.part("votable.encode_result_s", 1, func() error { return votable.WriteTable(&buf, r.result) })
}

// planning replays VDL parse, Chimera composition and the Pegasus plan (the
// wave planner on the survey-scale path) on the captured derivation file.
func (r *replay) planning() error {
	if err := r.part("vdl.parse_s", 1, func() (err error) {
		r.derivations, err = vdl.Parse(r.art.vdlText)
		return err
	}); err != nil {
		return err
	}

	// A request plans before anything is derived, so nothing is pruned: plan
	// against a copy of the replica catalog that holds the staged images
	// only. (The testbed's own catalog keeps the derived files; the transfer
	// replay copies them.)
	tb := r.b.tb
	staged := rls.New()
	for _, lfn := range tb.RLS.LFNs() {
		if !strings.HasSuffix(lfn, ".fit") {
			continue
		}
		for _, pfn := range tb.RLS.Lookup(lfn) {
			if err := staged.Register(lfn, pfn); err != nil {
				return err
			}
		}
	}
	cfg := pegasus.Config{
		RLS: staged, TC: tb.TC, OutputSite: cacheSite, RegisterOutputs: true,
		Net:    tb.FTP.Network(),
		SizeOf: func(lfn string) int64 { return tb.FTP.Store(cacheSite).Size(lfn) },
		Rand:   rand.New(rand.NewSource(r.p.seed)),
	}

	var plans []*pegasus.Plan
	if r.w.wave {
		var err error
		if plans, err = r.planWaves(cfg, staged); err != nil {
			return err
		}
	} else {
		var wf *chimera.Workflow
		if err := r.part("chimera.compose_s", 1, func() (err error) {
			wf, err = chimera.Compose(r.derivations, chimera.Request{LFNs: []string{outLFN}})
			return err
		}); err != nil {
			return err
		}
		r.m.set("chimera.abstract_nodes", float64(wf.Graph.Len()))
		if err := r.part("pegasus.map_s", 1, func() error {
			plan, err := pegasus.Map(wf, cfg)
			plans = append(plans, plan)
			return err
		}); err != nil {
			return err
		}
	}
	var st pegasus.Stats
	var roundTrips int64
	for _, plan := range plans {
		ps := plan.Stats()
		st.ComputeJobs += ps.ComputeJobs
		st.TransferNodes += ps.TransferNodes
		st.RegisterNodes += ps.RegisterNodes
		st.PrunedJobs += ps.PrunedJobs
		roundTrips += plan.RLSRoundTrips
	}
	r.m.set("pegasus.concrete_nodes", float64(st.ComputeJobs+st.TransferNodes+st.RegisterNodes))
	r.m.set("pegasus.transfer_nodes", float64(st.TransferNodes))
	r.m.set("pegasus.pruned_jobs", float64(st.PrunedJobs))
	r.m.set("pegasus.rls_round_trips", float64(roundTrips))
	return nil
}

// planWaves replays the survey-scale planner: the request's jobs as a lazy
// wave source (one galMorph job per galaxy and the concatVOT collector, as the
// compute service builds it), every leaf wave planned, then the collector
// wave. The collector is planned once the leaf waves have delivered and
// registered their results at the collector site, so the replay registers
// them in replicas between its two timed halves.
func (r *replay) planWaves(cfg pegasus.Config, replicas *rls.RLS) ([]*pegasus.Plan, error) {
	ids := make([]string, r.b.cat.NumRows())
	results := make([]string, len(ids))
	for i := range ids {
		ids[i] = r.b.cat.Cell(i, "id")
		results[i] = ids[i] + ".txt"
	}
	src := pegasus.WaveSource{
		Jobs: len(ids),
		Job: func(i int) pegasus.WaveJob {
			return pegasus.WaveJob{ID: "m-" + ids[i], Transformation: "galMorph",
				Inputs: []string{ids[i] + ".fit"}, Outputs: []string{results[i]}}
		},
		Collector: pegasus.WaveJob{ID: "collect-" + cluster, Transformation: "concatVOT",
			Inputs: results, Outputs: []string{outLFN}},
	}
	var (
		planner *pegasus.WavePlanner
		plans   []*pegasus.Plan
	)
	plan := func(from, to int) error {
		for wave := from; wave < to; wave++ {
			p, err := planner.Plan(wave)
			if err != nil {
				return err
			}
			plans = append(plans, p)
		}
		return nil
	}
	leaves, err := r.span("pegasus.wave_plan.leaves", 1, func() (err error) {
		if planner, err = pegasus.NewWavePlanner(src, cfg, waveSize, r.p.seed); err != nil {
			return err
		}
		return plan(0, planner.LeafWaves())
	})
	if err != nil {
		return nil, err
	}
	site := planner.CollectorSite()
	for _, lfn := range results {
		if err := replicas.Register(lfn, rls.PFN{Site: site, URL: gridftp.URL(site, lfn)}); err != nil {
			return nil, err
		}
	}
	collector, err := r.span("pegasus.wave_plan.collector", 1, func() error {
		return plan(planner.LeafWaves(), planner.Waves())
	})
	r.m.busy("pegasus.wave_plan_s", leaves+collector)
	return plans, err
}

// scheduling replays DAGMan and the Condor matchmaker on the captured
// concrete DAG with empty job bodies: what is left is scheduling.
func (r *replay) scheduling() error {
	fab, err := fabric.New(fabric.Config{Pools: core.DefaultPools()})
	if err != nil {
		return err
	}
	defer fab.Close()
	ticket, err := fab.Admit("replay", 0)
	if err != nil {
		return err
	}
	lease, err := ticket.Wait(context.Background())
	if err != nil {
		return err
	}
	defer lease.Done(0, false)

	g := r.art.graph
	sim, err := lease.NewSimulator(fabric.SimOptions{Workers: 1})
	if err != nil {
		return err
	}
	var report *dagman.Report
	if err := r.part("dagman.schedule_s", g.Len(), func() (err error) {
		report, err = dagman.Execute(g, emptyRunner, sim, dagman.Options{})
		return err
	}); err != nil {
		return err
	}
	if !report.Succeeded() {
		return fmt.Errorf("replay dagman: %d failed, %d unrun", report.Failed, report.Unrun)
	}
	r.m.set("dagman.schedule_events", float64(report.ScheduleEvents))

	if sim, err = lease.NewSimulator(fabric.SimOptions{Workers: 1}); err != nil {
		return err
	}
	nodes := g.Nodes()
	r.m.set("condor.tasks", float64(len(nodes)))
	return r.nested("condor.dispatch_s", len(nodes), func() error {
		for _, id := range nodes {
			n, _ := g.Node(id)
			spec, _ := emptyRunner(n, 1)
			if err := sim.Submit(condor.Task{ID: id, Cost: spec.Cost, Lane: spec.Lane}); err != nil {
				return err
			}
		}
		for !sim.Idle() {
			if _, ok := sim.Step(); !ok {
				return fmt.Errorf("%d tasks starved", sim.QueueLen())
			}
		}
		return nil
	})
}

// dataMovement replays every transfer and registration of the captured plan
// (the files are where the last real request left them) and the planner's
// one bulk lookup.
func (r *replay) dataMovement() error {
	tb := r.b.tb
	g := r.art.graph
	var transfers, registers []*dag.Node
	var lfns []string
	for _, id := range g.Nodes() {
		n, _ := g.Node(id)
		switch n.Type {
		case pegasus.NodeTransfer:
			transfers = append(transfers, n)
			lfns = append(lfns, n.Attr(pegasus.AttrLFN))
		case pegasus.NodeRegister:
			registers = append(registers, n)
		}
	}
	var moved int64
	if err := r.part("gridftp.transfer_s", len(transfers), func() error {
		for _, n := range transfers {
			res, err := tb.FTP.Transfer(n.Attr(pegasus.AttrSrcURL), n.Attr(pegasus.AttrDstURL))
			if err != nil {
				return err
			}
			moved += res.Bytes
		}
		return nil
	}); err != nil {
		return err
	}
	r.m.set("gridftp.transfers", float64(len(transfers)))
	r.m.set("gridftp.transfer_bytes", float64(moved))

	if err := r.nested("rls.bulk_lookup_s", 1, func() error {
		tb.RLS.BulkLookup(lfns)
		return nil
	}); err != nil {
		return err
	}
	fresh := rls.New()
	return r.part("rls.register_s", len(registers), func() error {
		for _, n := range registers {
			pfn := rls.PFN{Site: n.Attr(pegasus.AttrSite), URL: n.Attr(pegasus.AttrPFN)}
			if err := fresh.Register(n.Attr(pegasus.AttrLFN), pfn); err != nil {
				return err
			}
		}
		return nil
	})
}

// morphConfig reads a galMorph derivation's measurement parameters, as the
// compute service's runner does.
func morphConfig(dv *vdl.Derivation) morphology.Config {
	cfg := morphology.DefaultConfig(0)
	num := func(name string, dst *float64) {
		if b, ok := dv.Bindings[name]; ok && !b.IsFile {
			if v, err := strconv.ParseFloat(b.Value, 64); err == nil {
				*dst = v
			}
		}
	}
	num("redshift", &cfg.Redshift)
	num("pixScale", &cfg.PixScaleDeg)
	num("zeroPoint", &cfg.ZeroPoint)
	num("Ho", &cfg.Cosmology.H0)
	num("om", &cfg.Cosmology.OmegaM)
	if b, ok := dv.Bindings["flat"]; ok && !b.IsFile {
		cfg.Cosmology.Flat = b.Value != "0"
	}
	return cfg
}

// measurement replays the galMorph job bodies on the staged image bytes:
// virtual-data key and lookup for every workload, then FITS view and
// morphology measurement unless the workload's memo is full and bypasses them.
func (r *replay) measurement() error {
	var err error
	n := r.b.cat.NumRows()
	raws := make([][]byte, n)
	cfgs := make([]morphology.Config, n)
	for i := range raws {
		id := r.b.cat.Cell(i, "id")
		if raws[i], err = r.b.tb.FTP.Store(cacheSite).Get(id + ".fit"); err != nil {
			return err
		}
		dv, ok := r.derivations.Derivation("m-" + id)
		if !ok {
			return fmt.Errorf("no derivation for galaxy %s in the captured VDL", id)
		}
		cfgs[i] = morphConfig(dv)
	}

	memo := vdcache.New[morphology.Params]()
	key := func(i int) string {
		c := cfgs[i]
		return vdcache.Key(raws[i], []byte(fmt.Sprintf("galMorph|z=%g|scale=%g|zp=%g|H0=%g|om=%g|flat=%t",
			c.Redshift, c.PixScaleDeg, c.ZeroPoint, c.Cosmology.H0, c.Cosmology.OmegaM, c.Cosmology.Flat)))
	}
	if r.w.keepMemo {
		for i := range raws {
			memo.Put(key(i), morphology.Params{})
		}
	}
	var hits int
	if err := r.part("vdcache.lookup_s", n, func() error {
		for i := range raws {
			if _, hit := memo.Get(key(i)); hit {
				hits++
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if r.w.keepMemo {
		if hits != n {
			return fmt.Errorf("replay vdcache: %d hits, want %d", hits, n)
		}
		return nil
	}

	if err := r.nested("fits.parse_view_s", n, func() error {
		for _, raw := range raws {
			v, err := fits.ParseView(raw)
			if err != nil {
				return err
			}
			if _, err := v.Section(0, 0, v.Nx, v.Ny); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	var invalid int
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := r.part("morphology.measure_s", n, func() error {
		for i, raw := range raws {
			ar := arena.Get()
			params, err := morphology.MeasureRaw(ar, raw, cfgs[i])
			arena.Put(ar)
			if err != nil || !params.Valid {
				invalid++
			}
		}
		return nil
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	r.m.set("morphology.measure_us_per_galaxy", r.m["morphology.measure_s"].Value*1e6/float64(n))
	r.m.set("morphology.allocs_per_galaxy", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	r.m.set("morphology.invalid_rows", float64(invalid))
	return nil
}

// concat replays the result spool of the concat job on the real result rows.
func (r *replay) concat() error {
	return r.part("tableops.spool_s", r.result.NumRows(), func() error {
		ar := arena.Get()
		defer arena.Put(ar)
		sp := tableops.NewSpoolIn(ar, 0, 0)
		for _, row := range r.result.Rows {
			if err := sp.Add(row...); err != nil {
				return err
			}
		}
		return sp.Merge(func([]string) error { return nil })
	})
}

// admission replays admit, grant and release on a private fabric, once per
// galaxy so that the per-call cost is measurable.
func (r *replay) admission() error {
	fab, err := fabric.New(fabric.Config{Pools: core.DefaultPools()})
	if err != nil {
		return err
	}
	defer fab.Close()
	n := r.b.cat.NumRows()
	secs, err := r.span("fabric.admit_grant", n, func() error {
		for i := 0; i < n; i++ {
			ticket, err := fab.Admit("replay", 0)
			if err != nil {
				return err
			}
			lease, err := ticket.Wait(context.Background())
			if err != nil {
				return err
			}
			lease.Done(0, false)
		}
		return nil
	})
	r.m.set("fabric.admit_grant_us", secs*1e6/float64(n))
	return err
}

// writeAhead replays the journal of the traced request: every record
// appended again with fsync on, then the file replayed.
func (r *replay) writeAhead() error {
	path := filepath.Join(r.p.outDir, "replay.journal")
	defer os.Remove(path)
	recs := r.art.journal
	if err := r.part("journal.append_s", len(recs), func() (err error) {
		jw, err := journal.CreateScoped(path, "replay/"+cluster)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if err := jw.Append(rec); err != nil {
				_ = jw.Close()
				return err
			}
		}
		return jw.Close()
	}); err != nil {
		return err
	}
	r.m.set("journal.records", float64(len(recs)))
	r.m.set("journal.fsync_us_per_record", r.m["journal.append_s"].Value*1e6/float64(len(recs)))
	return r.nested("journal.replay_s", len(recs), func() error {
		got, truncated, err := journal.Replay(path)
		if err == nil && (truncated || len(got) != len(recs)) {
			err = fmt.Errorf("replayed %d of %d records, truncated=%t", len(got), len(recs), truncated)
		}
		return err
	})
}
