package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/gridftp"
	"repro/internal/portal"
	"repro/internal/rls"
	"repro/internal/services"
	"repro/internal/skysim"
	"repro/internal/wcs"
)

func TestRunClusterAccounting(t *testing.T) {
	tb := smallTestbed(t, 25, nil)
	run, err := RunCluster(tb, "COMA")
	if err != nil {
		t.Fatal(err)
	}
	if run.Galaxies != 25 {
		t.Errorf("galaxies = %d", run.Galaxies)
	}
	if run.ComputeJobs != 26 { // 25 galMorph + 1 concat
		t.Errorf("jobs = %d", run.ComputeJobs)
	}
	if run.ImagesFetched != 25 {
		t.Errorf("images fetched = %d", run.ImagesFetched)
	}
	if run.FilesStaged == 0 || run.BytesStaged == 0 {
		t.Errorf("staging: %d files %d bytes", run.FilesStaged, run.BytesStaged)
	}
	if run.Makespan <= 0 {
		t.Error("no makespan")
	}
	if run.Table.ColumnIndex("asymmetry") < 0 {
		t.Error("science table incomplete")
	}
}

func TestSection5Campaign(t *testing.T) {
	// A scaled version of the paper's 8-cluster campaign: three clusters
	// whose sizes preserve the 37..561 spread shape (scaled by ~1/8 to keep
	// the test fast); the full-size campaign runs in examples/eight-clusters
	// and cmd/nvo-demo.
	specs := []skysim.Spec{
		{Name: "CL0024", Center: wcs.New(15, -30), Redshift: 0.02, NumGalaxies: 5, Seed: 1000},
		{Name: "A2256", Center: wcs.New(95, -6), Redshift: 0.05, NumGalaxies: 14, Seed: 1001},
		{Name: "COMA", Center: wcs.New(195, 28), Redshift: 0.08, NumGalaxies: 70, Seed: 1002},
	}
	tb, err := NewTestbed(Config{ClusterSpecs: specs, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunCampaign(tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Clusters) != 3 {
		t.Fatalf("clusters = %d", len(report.Clusters))
	}
	wantGalaxies := 5 + 14 + 70
	if report.TotalGalaxies != wantGalaxies {
		t.Errorf("galaxies = %d, want %d", report.TotalGalaxies, wantGalaxies)
	}
	// jobs = galaxies + one concat per cluster (§5: 1152 jobs for 1089+
	// galaxies across 8 clusters — jobs modestly exceed galaxy count).
	if report.TotalJobs != wantGalaxies+3 {
		t.Errorf("jobs = %d, want %d", report.TotalJobs, wantGalaxies+3)
	}
	if report.TotalImages != wantGalaxies {
		t.Errorf("images = %d", report.TotalImages)
	}
	// Staged files exceed image count (stage-in + inter-site moves +
	// delivery), mirroring the paper's 2295 transfers > 1525 images.
	if report.TotalTransfers <= report.TotalImages {
		t.Errorf("transfers (%d) should exceed images (%d)",
			report.TotalTransfers, report.TotalImages)
	}
	if len(report.Pools) != 3 {
		t.Errorf("pools = %v", report.Pools)
	}

	text := report.Format()
	for _, want := range []string{"COMA", "Totals:", "Paper §5"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestCampaignFailsOnBrokenCluster(t *testing.T) {
	tb := smallTestbed(t, 5, func(c *Config) { c.Compute.StrictFaults = true })
	// Sabotage: corrupt one image in the compute cache so the strict-fault
	// path fails the cluster.
	cat, err := tb.Portal.BuildCatalog("COMA")
	if err != nil {
		t.Fatal(err)
	}
	id := cat.Cell(0, "id")
	_ = tb.FTP.Store("isi").Put(id+".fit", []byte("corrupted corrupted corrupted"))
	if err := tb.RLS.Register(id+".fit", rlsPFN("isi", id+".fit")); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaign(tb); err == nil {
		t.Error("campaign must surface cluster failure")
	}
}

// rlsPFN is a test helper building a replica record.
func rlsPFN(site, lfn string) rls.PFN {
	return rls.PFN{Site: site, URL: gridftp.URL(site, lfn)}
}

func TestParallelCampaignMatchesSequential(t *testing.T) {
	specs := []skysim.Spec{
		{Name: "C1", Center: wcs.New(15, -30), Redshift: 0.02, NumGalaxies: 12, Seed: 1000},
		{Name: "C2", Center: wcs.New(95, -6), Redshift: 0.05, NumGalaxies: 18, Seed: 1001},
		{Name: "C3", Center: wcs.New(195, 28), Redshift: 0.08, NumGalaxies: 25, Seed: 1002},
	}
	newTB := func() *Testbed {
		tb, err := NewTestbed(Config{ClusterSpecs: specs, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}

	seq, err := RunCampaign(newTB())
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCampaignParallel(newTB(), 3)
	if err != nil {
		t.Fatal(err)
	}

	if seq.TotalJobs != par.TotalJobs || seq.TotalBytes != par.TotalBytes ||
		seq.TotalTransfers != par.TotalTransfers {
		t.Errorf("totals differ:\nseq %+v\npar %+v", seq, par)
	}
	for i := range seq.Clusters {
		s, p := seq.Clusters[i], par.Clusters[i]
		if s.Cluster != p.Cluster || s.Makespan != p.Makespan ||
			s.BytesStaged != p.BytesStaged || s.InvalidRows != p.InvalidRows {
			t.Errorf("cluster %s accounting differs:\nseq %+v\npar %+v", s.Cluster, s, p)
		}
		// Science tables bit-identical.
		if s.Table.NumRows() != p.Table.NumRows() {
			t.Fatalf("%s: row counts differ", s.Cluster)
		}
		for r := range s.Table.Rows {
			for c := range s.Table.Rows[r] {
				if s.Table.Rows[r][c] != p.Table.Rows[r][c] {
					t.Fatalf("%s cell (%d,%d): %q vs %q", s.Cluster, r, c,
						s.Table.Rows[r][c], p.Table.Rows[r][c])
				}
			}
		}
	}
	// workers<=1 falls back to the sequential driver.
	if _, err := RunCampaignParallel(newTB(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCampaignDegradedArchive keeps a secondary catalog archive down
// for the whole campaign: the cluster must still complete, with the outage
// recorded in RunCampaign's degradation report.
func TestChaosCampaignDegradedArchive(t *testing.T) {
	tb := smallTestbed(t, 10, func(c *Config) {
		c.Faults = faults.New(9, faults.Rule{Name: services.OpCone, Site: "mast", Kind: faults.KindSiteDown})
	})
	rep, err := RunCampaign(tb)
	if err != nil {
		t.Fatalf("a dead secondary archive must not fail the campaign: %v", err)
	}
	if len(rep.Clusters) != 1 {
		t.Fatalf("%d cluster reports, want 1", len(rep.Clusters))
	}
	for _, c := range rep.Clusters {
		if !slices.ContainsFunc(c.Degraded, func(d portal.Degradation) bool { return d.Op == "cone" }) {
			t.Errorf("%s: missing cone degradation record, got %v", c.Cluster, c.Degraded)
		}
		if c.Table == nil || c.Table.NumRows() == 0 {
			t.Errorf("%s: degraded run produced no catalog", c.Cluster)
		}
	}
}
