package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/skysim"
	"repro/internal/votable"
	"repro/internal/wcs"
	"repro/internal/webservice"
)

// Every workload computes the same cluster into the same output LFN, so every
// request of every workload must produce byte-identical output — the check
// the whole benchmark hangs on.
const (
	cluster   = "SURVEY"
	outLFN    = cluster + ".vot"
	cacheSite = "isi"

	waveSize = 100 // wave workload: galaxies per wave
	pageSize = 200 // wave workload: rows per archive page

	warmGalaxies = 48 // size of the untimed runtime warm-up request
)

// params are the benchmark arguments shared by every workload of a run.
type params struct {
	galaxies int
	seed     int64
	workers  int
	seconds  float64 // timed wall per workload; requests are issued until it is spent
	requests int     // when > 0, issue exactly this many requests instead
	outDir   string  // journals, span files
}

// defaultParams is the benchmark's stated problem: 1,000 galaxies, as many
// workers as the host has processors up to four, requests until the time is
// spent. Only the tests run anything smaller.
func defaultParams() params {
	return params{galaxies: 1000, workers: defaultWorkers()}
}

func (p params) journalDir() string { return filepath.Join(p.outDir, "journal") }

// config is the testbed every workload starts from: one cluster of
// p.galaxies galaxies. With seed 5 it is the catalog of survey_test.go.
func (p params) config(galaxies int) core.Config {
	return core.Config{
		ClusterSpecs: []skysim.Spec{{
			Name: cluster, Center: wcs.New(150, 2), Redshift: 0.04,
			NumGalaxies: galaxies, Seed: p.seed + 72,
		}},
		Seed:    p.seed,
		Workers: p.workers,
	}
}

// workload is one request shape. Portal workloads time tb.Portal.Analyze on
// a fresh testbed per request; the others time svc.Compute on a testbed
// whose images one setup request has already staged.
type workload struct {
	name string
	why  string
	// portal selects the full Figure 5 flow on a fresh testbed per request.
	portal bool
	// wave selects the survey-scale path: paged portal, wave planner.
	wave bool
	// serial runs the compute service on one worker.
	serial bool
	// keepMemo keeps the virtual-data memo across requests (no Reopen).
	keepMemo bool
	// journal runs in crash-safe mode with a journal directory that is
	// removed before each request.
	journal bool
	// ungated keeps the workload out of BENCHMARK.json: it runs by name and
	// under -all, but no driver gates later changes on it.
	ungated bool
	// check asserts the workload's precondition from the request's stats: a
	// run that measured something else than it says must fail, not report.
	check func(p params, st webservice.RunStats) error
}

func (w workload) config(p params) core.Config {
	c := p.config(p.galaxies)
	c.Workers = w.workers(p)
	if w.wave {
		c.WaveSize, c.PageSize = waveSize, pageSize
	}
	if w.journal {
		c.JournalDir = p.journalDir()
	}
	return c
}

func (w workload) workers(p params) int {
	if w.serial {
		return 1
	}
	return p.workers
}

func checkFetched(p params, st webservice.RunStats) error {
	if st.ImagesFetched != p.galaxies {
		return fmt.Errorf("images fetched = %d, want %d (cache was not cold)", st.ImagesFetched, p.galaxies)
	}
	return nil
}

func checkStaged(p params, st webservice.RunStats) error {
	if st.ImagesCached != p.galaxies || st.MemoMisses != p.galaxies || st.PrunedJobs != 0 {
		return fmt.Errorf("images cached = %d, memo misses = %d, pruned jobs = %d; want %d, %d, 0 (images staged, nothing memoized or derived)",
			st.ImagesCached, st.MemoMisses, st.PrunedJobs, p.galaxies, p.galaxies)
	}
	return nil
}

var workloads = []workload{
	{
		name:   "cold",
		why:    "first-ever request through the full Figure 5 flow; archive cutout rendering and stage-in do about 80% of the work",
		portal: true,
		check:  checkFetched,
	},
	{
		name:   "wave",
		why:    "same request through the survey-scale path (paged portal, streaming VOTable, wave planner, per-wave eviction)",
		portal: true,
		wave:   true,
		check: func(p params, st webservice.RunStats) error {
			if err := checkFetched(p, st); err != nil {
				return err
			}
			want := (p.galaxies+waveSize-1)/waveSize + 1
			if st.Waves != want || st.PeakStagedImages > waveSize {
				return fmt.Errorf("waves = %d, peak staged images = %d; want %d waves and at most %d staged",
					st.Waves, st.PeakStagedImages, want, waveSize)
			}
			return nil
		},
	},
	{
		name:  "staged",
		why:   "images already in the GridFTP cache, nothing memoized: scheduling, stage-in, measure and concat do all the work",
		check: checkStaged,
	},
	{
		name:   "staged-serial",
		why:    "the staged problem on one worker: the plain serial baseline that scaling efficiency is measured against",
		serial: true,
		check:  checkStaged,
	},
	{
		name:     "memo",
		why:      "virtual-data memo full, so measure is bypassed: planning, matchmaking, transfers and concat dominate",
		keepMemo: true,
		check: func(p params, st webservice.RunStats) error {
			if st.MemoHits != p.galaxies {
				return fmt.Errorf("memo hits = %d, want %d (measure was not bypassed)", st.MemoHits, p.galaxies)
			}
			return nil
		},
	},
	{
		name:    "journal",
		why:     "crash-safe mode: one fsynced journal record per DAGMan transition; the only workload where the journal does work",
		journal: true,
		// A journaled request is 7,370 fsyncs, and on the shared disk of the
		// reference host their latency drifts by 2x within the hour (2.1 s to
		// 4.0 s per request observed): no regression bound the contract allows
		// holds, so the workload is measured but not gated.
		ungated: true,
		check:   checkStaged,
	},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warmUp runs one small untimed request on its own testbed so that the first
// timed request does not pay for a cold runtime (page faults, pool fills).
func warmUp(p params) error {
	n := warmGalaxies
	if p.galaxies < n {
		n = p.galaxies
	}
	tb, err := core.NewTestbed(p.config(n))
	if err != nil {
		return err
	}
	_, err = tb.Portal.Analyze(cluster)
	return err
}

// bed is one workload's testbed. A staged bed also carries the catalog its
// timed requests submit and the compute service they submit it to, after one
// setup request has fetched every image into the GridFTP cache.
type bed struct {
	tb  *core.Testbed
	svc *webservice.Service
	cat *votable.Table
}

// newStaged builds the workload's testbed and stages every image with one
// request through its compute service. The journal workload's staging request
// is journaled like its timed ones, so its setup pays for those fsyncs too.
func newStaged(w workload, p params) (*bed, error) {
	if w.journal {
		if err := os.RemoveAll(p.journalDir()); err != nil {
			return nil, err
		}
	}
	tb, err := core.NewTestbed(w.config(p))
	if err != nil {
		return nil, err
	}
	cat, err := tb.Portal.BuildCatalog(cluster)
	if err != nil {
		return nil, err
	}
	if _, _, err := tb.Compute.Compute(cat, cluster); err != nil {
		return nil, fmt.Errorf("staging request: %w", err)
	}
	return &bed{tb: tb, svc: tb.Compute, cat: cat}, nil
}

// evictDerived forgets every derived product — the per-galaxy result files
// and the output table — from the RLS and the GridFTP stores, leaving only
// the staged images. Without it the next request is served from the RLS
// (ReusedOutput) or pruned to nothing, and measures neither.
func evictDerived(tb *core.Testbed) error {
	for _, lfn := range tb.RLS.LFNs() {
		if strings.HasSuffix(lfn, ".fit") {
			continue
		}
		for _, pfn := range tb.RLS.Lookup(lfn) {
			if err := tb.RLS.Unregister(lfn, pfn); err != nil {
				return fmt.Errorf("evict %s: %w", lfn, err)
			}
		}
	}
	for _, site := range tb.FTP.Sites() {
		store := tb.FTP.Store(site)
		for _, path := range store.List() {
			if strings.HasSuffix(path, ".fit") {
				continue
			}
			if err := store.Delete(path); err != nil {
				return fmt.Errorf("evict %s at %s: %w", path, site, err)
			}
		}
	}
	return nil
}

// reset puts a staged bed into the workload's pre-request state.
func (s *bed) reset(w workload, p params) error {
	if err := evictDerived(s.tb); err != nil {
		return err
	}
	if w.journal {
		if err := os.RemoveAll(p.journalDir()); err != nil {
			return err
		}
	}
	if !w.keepMemo {
		svc, err := s.svc.Reopen()
		if err != nil {
			return err
		}
		s.svc = svc
	}
	return nil
}

// checkJournal asserts the journal workload really journaled: the request's
// write-ahead log replays whole and ends with an end record.
func checkJournal(p params) error {
	recs, truncated, err := journal.Replay(filepath.Join(p.journalDir(), cluster+".journal"))
	if err != nil {
		return err
	}
	if _, ended := journal.Ended(recs); truncated || !ended {
		return fmt.Errorf("journal has %d records, truncated=%t, and no end record", len(recs), truncated)
	}
	return nil
}
