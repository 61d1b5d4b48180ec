package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chimera"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/pegasus"
)

// TestLeastLoadedSiteOfGolden pins where least-loaded selection places A3's
// 300-galaxy workflow: the SHA-256 of its Plan.SiteOf ("job site" lines in
// job order) on A3's two unequal pools and on the testbed's default pools.
func TestLeastLoadedSiteOfGolden(t *testing.T) {
	const n = 300
	cat := galaxyVDL(t, n)
	wf, err := chimera.Compose(cat, chimera.Request{LFNs: []string{"out.vot"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		pools []condor.Pool
		want  string
	}{
		{"a3", []condor.Pool{{Name: "big", Slots: 48}, {Name: "small", Slots: 4}}, "84f9a57d686efc98c81ec1bbf90b4a2a17bbbe055d90a0027e37f9f41d4b140f"},
		{"default", core.DefaultPools(), "a61482dc23b3e390b569ff7e90c112836a22bc1b732f7f3f6eb9d6c6d83e4f78"},
	} {
		cfg := siteSelectionConfig(n, c.pools)
		cfg.Selection, cfg.Rand = pegasus.SelectLeastLoaded, rand.New(rand.NewSource(1))
		p, err := pegasus.Map(wf, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		jobs := make([]string, 0, len(p.SiteOf))
		for id := range p.SiteOf {
			jobs = append(jobs, id)
		}
		slices.Sort(jobs)
		h := sha256.New()
		for _, id := range jobs {
			h.Write([]byte(id + " " + p.SiteOf[id] + "\n"))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: least-loaded SiteOf sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
