package core

import (
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/condor"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gridftp"
	"repro/internal/journal"
	"repro/internal/myproxy"
	"repro/internal/portal"
	"repro/internal/resilience"
	"repro/internal/rls"
	"repro/internal/tcat"
	"repro/internal/webservice"
)

// TestTestbedSitesComeFromTheFabric: a testbed over a caller's fabric names
// that fabric's pools, and only them, in its campaign report, its
// transformation catalog, and runs a cluster on them.
func TestTestbedSitesComeFromTheFabric(t *testing.T) {
	f, err := fabric.New(fabric.Config{Pools: []condor.Pool{{Name: "sdsc", Slots: 6}, {Name: "ncsa", Slots: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	tb := smallTestbed(t, 8, func(c *Config) { c.Compute.Fabric = f })
	report, err := RunCampaign(tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Clusters) != 1 || report.TotalGalaxies != 8 {
		t.Fatalf("campaign ran %d clusters, %d galaxies; want 1 and 8", len(report.Clusters), report.TotalGalaxies)
	}
	if want := []string{"sdsc", "ncsa"}; !slices.Equal(report.Pools, want) {
		t.Errorf("CampaignReport.Pools = %v, want the fabric's %v", report.Pools, want)
	}
	sites := []string{"ncsa", "sdsc"}
	for _, tr := range []string{"galMorph", "concatVOT"} {
		if got := tb.TC.Sites(tr); !slices.Equal(got, sites) {
			t.Errorf("TC sites of %s = %v, want %v", tr, got, sites)
		}
	}
}

// TestOverlayOwnedFieldsRefused: every overlay field the testbed fills, and
// every overlay field a Config shorthand also sets, is refused by name
// rather than silently overwritten.
func TestOverlayOwnedFieldsRefused(t *testing.T) {
	for _, c := range []struct {
		field string
		mut   func(*Config)
	}{
		{"Compute.RLS", func(c *Config) { c.Compute.RLS = rls.New() }},
		{"Compute.TC", func(c *Config) { c.Compute.TC = tcat.New() }},
		{"Compute.GridFTP", func(c *Config) { c.Compute.GridFTP = gridftp.NewService(gridftp.Network{}) }},
		{"Compute.HTTPClient", func(c *Config) { c.Compute.HTTPClient = &http.Client{} }},
		{"Compute.Seed", func(c *Config) { c.Compute.Seed = 3 }},
		{"Compute.Breakers", func(c *Config) { c.Compute.Breakers = resilience.NewRegistry(resilience.BreakerConfig{}) }},
		{"Compute.Proxy", func(c *Config) { c.Compute.Proxy = func() (myproxy.Proxy, error) { return myproxy.Proxy{}, nil } }},
		{"Portal.Clusters", func(c *Config) { c.Portal.Clusters = []portal.ClusterEntry{{Name: "X"}} }},
		{"Portal.ConeServices", func(c *Config) { c.Portal.ConeServices = []string{"http://x/cone"} }},
		{"Portal.SIAServices", func(c *Config) { c.Portal.SIAServices = []string{"http://x/sia"} }},
		{"Portal.CutoutService", func(c *Config) { c.Portal.CutoutService = "http://x/cut" }},
		{"Portal.ComputeService", func(c *Config) { c.Portal.ComputeService = "http://x" }},
		{"Portal.HTTPClient", func(c *Config) { c.Portal.HTTPClient = &http.Client{} }},
		{"Portal.Retry", func(c *Config) {
			c.Resilience = true
			c.Portal.Retry = resilience.Policy{MaxAttempts: 1}
		}},
		{"Portal.Breakers", func(c *Config) {
			c.Resilience = true
			c.Portal.Breakers = resilience.NewRegistry(resilience.BreakerConfig{})
		}},
		{"Compute.Workers", func(c *Config) { c.Workers, c.Compute.Workers = 2, 2 }},
		{"Compute.WaveSize", func(c *Config) { c.WaveSize, c.Compute.WaveSize = 2, 2 }},
		{"Compute.JournalDir", func(c *Config) { c.JournalDir, c.Compute.JournalDir = "a", "b" }},
		{"Portal.PageSize", func(c *Config) { c.PageSize, c.Portal.PageSize = 5, 5 }},
	} {
		cfg := Config{ClusterSpecs: smallSpec(3), Seed: 9}
		c.mut(&cfg)
		_, err := NewTestbed(cfg)
		if err == nil || !strings.Contains(err.Error(), "Config."+c.field+" ") {
			t.Errorf("%s set on the overlay: NewTestbed err = %v, want one naming it", c.field, err)
		}
	}

	// Without Resilience the portal's retry policy is the overlay's own.
	tb := smallTestbed(t, 3, func(c *Config) { c.Portal.Retry = resilience.Policy{MaxAttempts: 1} })
	if _, err := tb.Portal.Analyze("COMA"); err != nil {
		t.Fatal(err)
	}
}

// TestOverlaysReachTheServices: a knob set on an overlay takes effect in the
// service that owns it.
func TestOverlaysReachTheServices(t *testing.T) {
	tb := smallTestbed(t, 12, func(c *Config) {
		c.Compute.ClusterSize = 3
		c.Portal.Priority = 2
	})
	if _, err := tb.Portal.Analyze("COMA"); err != nil {
		t.Fatal(err)
	}
	st, err := tb.Compute.Status("req-000001")
	if err != nil {
		t.Fatal(err)
	}
	if st.Priority != 2 {
		t.Errorf("Portal.Priority 2 submitted at priority %d", st.Priority)
	}
	if st.Stats.ClusteredTasks == 0 {
		t.Errorf("Compute.ClusterSize 3 clustered no tasks: %+v", st.Stats)
	}
}

// TestOverlayCrashSinkResumes is the kill-and-resume contract through the
// testbed: a Compute.WrapJournal crash sink kills the journaled run, and a
// reopened service resumes it to the uninterrupted output bytes.
func TestOverlayCrashSinkResumes(t *testing.T) {
	run := func(wrap func(tenant, cluster string, sink journal.Sink) journal.Sink) (*Testbed, error) {
		tb := smallTestbed(t, 8, func(c *Config) {
			c.Compute.JournalDir = t.TempDir()
			c.Compute.WrapJournal = wrap
		})
		cat, err := tb.Portal.BuildCatalog("COMA")
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = tb.Compute.ComputeFor(context.Background(), cat, "COMA", webservice.RequestOptions{}, nil)
		return tb, err
	}
	output := func(tb *Testbed) string {
		t.Helper()
		b, err := tb.FTP.Store("isi").Get("COMA.vot")
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	ref, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := run(func(_, _ string, sink journal.Sink) journal.Sink {
		return &journal.CrashSink{Sink: sink, After: 12}
	})
	if !errors.Is(err, journal.ErrCrash) {
		t.Fatalf("crash-armed run: err = %v, want ErrCrash", err)
	}
	svc, err := tb.Compute.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := svc.ResumeFor(context.Background(), "COMA", webservice.RequestOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RestoredNodes == 0 {
		t.Error("resume restored no nodes")
	}
	if output(tb) != output(ref) {
		t.Error("resumed output differs from the uninterrupted run")
	}
}

// TestTestbedZeroRetriesRunsOnce: a testbed takes Compute.MaxRetries as
// given, so with it unset a galMorph node that fails once is submitted once
// and fails the request; no retry budget is filled in behind the caller.
func TestTestbedZeroRetriesRunsOnce(t *testing.T) {
	const broken = "m-COMA-000002"
	dir := t.TempDir()
	tb := smallTestbed(t, 6, func(c *Config) {
		c.JournalDir = dir
		c.Faults = faults.New(5, faults.Rule{Name: condor.OpExec, Key: broken, Kind: faults.KindTransient, Until: 1})
	})
	cat, err := tb.Portal.BuildCatalog("COMA")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.Compute.Compute(cat, "COMA"); err == nil {
		t.Fatal("a node that fails once with no retries must fail the request")
	}
	recs, _, err := journal.Replay(filepath.Join(dir, "COMA.journal"))
	if err != nil {
		t.Fatal(err)
	}
	submitted := 0
	for _, r := range recs {
		if r.Kind == journal.KindSubmitted && r.Node == broken {
			submitted++
		}
	}
	if submitted != 1 {
		t.Errorf("%s submitted %d times, want once", broken, submitted)
	}
}
