package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/portal"
	"repro/internal/votable"
)

// ClusterRun is the outcome of analyzing one cluster, in the quantities the
// paper's §5 reports for its campaign.
type ClusterRun struct {
	Cluster       string
	Galaxies      int
	ComputeJobs   int
	PrunedJobs    int
	TransferNodes int
	FilesStaged   int
	BytesStaged   int64
	ImagesFetched int
	ImagesCached  int
	InvalidRows   int
	Makespan      time.Duration
	// AsymmetryRadiusRho is the Figure 7 correlation for this cluster.
	AsymmetryRadiusRho float64
	// Table is the merged catalog with morphology columns.
	Table *votable.Table
	// Retries counts DAG nodes the compute service resubmitted; Failovers
	// counts transfers rerouted to an alternate RLS replica. Both are zero
	// on a fault-free run.
	Retries   int
	Failovers int
	// Degraded lists the archive services the portal proceeded without.
	Degraded []portal.Degradation
}

// CampaignReport aggregates a multi-cluster run (§5: "a total of 1152
// compute jobs ... 1525 images, corresponding to 30MB of data ... the
// transfer of 2295 files").
type CampaignReport struct {
	Clusters []ClusterRun

	TotalGalaxies  int
	TotalJobs      int
	TotalImages    int
	TotalBytes     int64
	TotalTransfers int
	Pools          []string
}

// RunCampaign analyzes every cluster the portal knows, one after another as
// the paper did, and aggregates the campaign statistics. It stops at the
// first cluster that fails.
func RunCampaign(tb *Testbed) (*CampaignReport, error) {
	entries := tb.Portal.Clusters()
	runs := make([]*ClusterRun, len(entries))
	errs := make([]error, len(entries))
	for i, entry := range entries {
		if runs[i], errs[i] = RunCluster(tb, entry.Name); errs[i] != nil {
			break
		}
	}
	return aggregate(tb, entries, runs, errs)
}

// RunCampaignParallel is RunCampaign with the clusters analyzed
// concurrently by a bounded worker pool. Per-cluster computations are
// seeded from the cluster name, so the results are identical to the
// sequential driver's (asserted by TestParallelCampaignMatchesSequential);
// only wall-clock time changes. The paper analyzed its clusters
// "separately" — this is the obvious scale-out.
func RunCampaignParallel(tb *Testbed, workers int) (*CampaignReport, error) {
	if workers <= 1 {
		return RunCampaign(tb)
	}
	entries := tb.Portal.Clusters()
	runs := make([]*ClusterRun, len(entries))
	errs := make([]error, len(entries))

	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, entry := range entries {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, name string) {
			defer wg.Done()
			defer func() { <-sem }()
			runs[i], errs[i] = RunCluster(tb, name)
		}(i, entry.Name)
	}
	wg.Wait()
	return aggregate(tb, entries, runs, errs)
}

// aggregate folds the per-cluster runs, in portal order, into the campaign
// report; the first failed cluster fails the campaign.
func aggregate(tb *Testbed, entries []portal.ClusterEntry, runs []*ClusterRun, errs []error) (*CampaignReport, error) {
	report := &CampaignReport{Pools: tb.Compute.Pools()}
	for i, run := range runs {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: cluster %s: %w", entries[i].Name, errs[i])
		}
		report.Clusters = append(report.Clusters, *run)
		report.TotalGalaxies += run.Galaxies
		report.TotalJobs += run.ComputeJobs
		report.TotalImages += run.ImagesFetched + run.ImagesCached
		report.TotalBytes += run.BytesStaged
		report.TotalTransfers += run.FilesStaged
	}
	return report, nil
}

// RunCluster performs the full analysis of one cluster through the portal's
// catalog construction and the compute service, returning both the science
// table and the Grid accounting.
func RunCluster(tb *Testbed, name string) (*ClusterRun, error) {
	_, imgDegraded, err := tb.Portal.FindImagesReport(name)
	if err != nil {
		return nil, err
	}
	cat, catDegraded, err := tb.Portal.BuildCatalogReport(name)
	if err != nil {
		return nil, err
	}
	lfn, stats, err := tb.Compute.Compute(cat, name)
	if err != nil {
		return nil, err
	}
	morph, err := tb.Compute.ResultTable(lfn)
	if err != nil {
		return nil, err
	}
	if err := votable.MergeColumns(cat, morph, "id", "id",
		"surface_brightness", "concentration", "asymmetry", "valid"); err != nil {
		return nil, err
	}

	run := &ClusterRun{
		Cluster:       name,
		Galaxies:      stats.Galaxies,
		ComputeJobs:   stats.ComputeJobs,
		PrunedJobs:    stats.PrunedJobs,
		TransferNodes: stats.TransferNodes,
		FilesStaged:   stats.FilesStaged,
		BytesStaged:   stats.BytesStaged,
		ImagesFetched: stats.ImagesFetched,
		ImagesCached:  stats.ImagesCached,
		InvalidRows:   stats.InvalidRows,
		Makespan:      stats.Makespan,
		Retries:       stats.Retries,
		Failovers:     stats.Failovers,
		Table:         cat,
	}
	run.Degraded = append(run.Degraded, imgDegraded...)
	run.Degraded = append(run.Degraded, catDegraded...)
	if cl, err := tb.Cluster(name); err == nil {
		if rho, _, err := AsymmetryRadiusCorrelation(cat, cl.Center); err == nil {
			run.AsymmetryRadiusRho = rho
		}
	}
	return run, nil
}

// Format renders the report as the §5-style summary table.
func (r *CampaignReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Campaign over %d clusters on pools %s\n\n",
		len(r.Clusters), strings.Join(r.Pools, ", "))
	fmt.Fprintf(&b, "%-10s %9s %6s %8s %10s %10s %9s %8s\n",
		"cluster", "galaxies", "jobs", "images", "staged", "bytes", "invalid", "rho")
	for _, c := range r.Clusters {
		fmt.Fprintf(&b, "%-10s %9d %6d %8d %10d %10d %9d %8.3f\n",
			c.Cluster, c.Galaxies, c.ComputeJobs, c.ImagesFetched+c.ImagesCached,
			c.FilesStaged, c.BytesStaged, c.InvalidRows, c.AsymmetryRadiusRho)
	}
	fmt.Fprintf(&b, "\nTotals: %d galaxies, %d compute jobs, %d images, %.1f MB staged, %d file transfers\n",
		r.TotalGalaxies, r.TotalJobs, r.TotalImages, float64(r.TotalBytes)/1e6, r.TotalTransfers)
	fmt.Fprintf(&b, "Paper §5: 1152 compute jobs, 1525 images, 30 MB, 2295 file transfers over 3 pools\n")
	return b.String()
}
