// Command nvo-resume demonstrates the crash-safe workflow recovery stack:
// it runs one cluster's morphology workflow with the write-ahead journal on,
// kills the run at a chosen journal-event boundary (or sweeps every
// boundary), restarts the service, resumes from the journal, and verifies
// that the recovered output VOTable is byte-identical to the uninterrupted
// run's while only the unfinished nodes re-executed.
//
//	nvo-resume -cluster COMA                   kill once mid-run, resume, verify
//	nvo-resume -cluster COMA -crash-after 7    kill after exactly 7 journal events
//	nvo-resume -cluster COMA -sweep            kill at every event boundary
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/portal"
	"repro/internal/skysim"
	"repro/internal/webservice"
)

func main() {
	cluster := flag.String("cluster", "COMA", "cluster to analyze")
	crashAfter := flag.Int("crash-after", 0, "journal events before the kill (0 = mid-run)")
	sweep := flag.Bool("sweep", false, "kill at every event boundary instead of once")
	scale := flag.Float64("scale", 0.25, "scale factor on per-cluster galaxy counts")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 1, "leaf-job side-effect concurrency")
	flag.IntVar(&waveSize, "wave-size", 0, "survey-scale wave execution: galaxies per wave (0 = monolithic)")
	flag.IntVar(&pageSize, "page-size", 0, "paged archive queries: rows per page (0 = unpaged)")
	flag.IntVar(&priority, "priority", 0, "fabric scheduling class of the workflow submissions")
	flag.Parse()

	specs := scaledSpecs(*scale, *seed)

	// Uninterrupted reference run: its output bytes and journal length
	// calibrate the kill points.
	refBytes, events, err := baseline(specs, *seed, *workers, *cluster)
	check(err)
	fmt.Printf("baseline: %d journal events, output %d bytes\n", events, len(refBytes))

	kills := []int{*crashAfter}
	if *sweep {
		kills = kills[:0]
		for k := 1; k < events; k++ {
			kills = append(kills, k)
		}
	} else if *crashAfter <= 0 {
		kills[0] = events / 2
	}

	fmt.Printf("%12s %10s %10s %10s %10s\n", "kill point", "done", "restored", "resumed", "identical")
	for _, k := range kills {
		res, err := killAndResume(specs, *seed, *workers, *cluster, k, refBytes)
		check(err)
		fmt.Printf("%12d %10d %10d %10d %10t\n",
			k, res.doneAtCrash, res.restored, res.resubmitted, res.identical)
		if !res.identical {
			fmt.Fprintln(os.Stderr, "nvo-resume: BYTE IDENTITY VIOLATED")
			os.Exit(1)
		}
	}
	fmt.Println("every resumed run reproduced the uninterrupted output byte-for-byte")
}

func scaledSpecs(scale float64, seed int64) []skysim.Spec {
	specs := skysim.StandardClusters()
	for i := range specs {
		specs[i].Seed += seed
		n := int(float64(specs[i].NumGalaxies) * scale)
		if n < 3 {
			n = 3
		}
		specs[i].NumGalaxies = n
	}
	return specs
}

// Survey-scale and multi-tenant knobs, settable from the command line so
// kill/resume campaigns exercise the same configurations the tests do.
var (
	waveSize int
	pageSize int
	priority int
)

// newTestbed builds the testbed of one run. With crashAfter > 0 every
// workflow leg is killed after that many journal appends: a fresh crash sink
// per leg, which Compute.Reopen disarms.
func newTestbed(specs []skysim.Spec, seed int64, workers int, journalDir string, crashAfter int) (*core.Testbed, error) {
	compute := webservice.Config{Workers: workers, JournalDir: journalDir, WaveSize: waveSize}
	if crashAfter > 0 {
		compute.WrapJournal = func(_, _ string, sink journal.Sink) journal.Sink {
			return &journal.CrashSink{Sink: sink, After: crashAfter}
		}
	}
	return core.NewTestbed(core.Config{
		ClusterSpecs: specs,
		Seed:         seed,
		Compute:      compute,
		Portal:       portal.Config{PageSize: pageSize, Priority: priority},
	})
}

func runCluster(tb *core.Testbed, cluster string) error {
	cat, _, err := tb.Portal.BuildCatalogReport(cluster)
	if err != nil {
		return err
	}
	_, _, err = tb.Compute.ComputeFor(context.Background(), cat, cluster,
		webservice.RequestOptions{Priority: priority}, nil)
	return err
}

func baseline(specs []skysim.Spec, seed int64, workers int, cluster string) ([]byte, int, error) {
	dir, err := os.MkdirTemp("", "nvo-journal-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	tb, err := newTestbed(specs, seed, workers, dir, 0)
	if err != nil {
		return nil, 0, err
	}
	if err := runCluster(tb, cluster); err != nil {
		return nil, 0, err
	}
	out, err := tb.FTP.Store("isi").Get(cluster + ".vot")
	if err != nil {
		return nil, 0, err
	}
	recs, _, err := journal.Replay(filepath.Join(dir, cluster+".journal"))
	if err != nil {
		return nil, 0, err
	}
	return out, len(recs) - 2, nil // minus the begin and end markers
}

type killResult struct {
	doneAtCrash int
	restored    int
	resubmitted int
	identical   bool
}

func killAndResume(specs []skysim.Spec, seed int64, workers int, cluster string, k int, want []byte) (killResult, error) {
	var res killResult
	dir, err := os.MkdirTemp("", "nvo-journal-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	tb, err := newTestbed(specs, seed, workers, dir, k)
	if err != nil {
		return res, err
	}
	if err := runCluster(tb, cluster); !errors.Is(err, journal.ErrCrash) {
		return res, fmt.Errorf("kill point %d: crash did not fire (err=%v)", k, err)
	}
	recs, _, err := journal.Replay(filepath.Join(dir, cluster+".journal"))
	if err != nil {
		return res, err
	}
	res.doneAtCrash = len(journal.CompletedNodes(recs))
	prefix := len(recs)

	// The restarted process: same Grid substrate, crash switch disarmed.
	svc, err := tb.Compute.Reopen()
	if err != nil {
		return res, err
	}
	_, stats, err := svc.ResumeFor(context.Background(), cluster,
		webservice.RequestOptions{Priority: priority}, nil)
	if err != nil {
		return res, fmt.Errorf("kill point %d: resume: %w", k, err)
	}
	res.restored = stats.RestoredNodes

	after, _, err := journal.Replay(filepath.Join(dir, cluster+".journal"))
	if err != nil {
		return res, err
	}
	for _, r := range after[prefix:] {
		if r.Kind == journal.KindSubmitted {
			res.resubmitted++
		}
	}
	got, err := tb.FTP.Store("isi").Get(cluster + ".vot")
	if err != nil {
		return res, err
	}
	res.identical = string(got) == string(want)
	return res, nil
}

// check is the shared fatal-error handler of the nvo commands.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvo-resume:", err)
		os.Exit(1)
	}
}
