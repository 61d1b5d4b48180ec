package webservice

import (
	"errors"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestLegsLeaveNoGoroutines runs 200 requests, four workers each, on one
// preemption-enabled fabric with a single workflow slot: every third leg is
// killed at its fifth journal record, every third is preempted at its fourth
// by a higher class and resumed, and the rest run clean. The side-effect
// worker set of every leg, aborted ones included, is joined when its
// simulator goes quiet, so the process ends with the goroutines it started
// with.
func TestLegsLeaveNoGoroutines(t *testing.T) {
	const requests = 200
	f := preemptFabric(t, 1, gridPools())
	var trig *sweepTrigger
	h := newHarness(t, 6, func(c *Config) {
		c.JournalDir = t.TempDir()
		c.Fabric = f
		c.Workers = 4
		c.WrapJournal = func(tenant, cluster string, sink journal.Sink) journal.Sink {
			return trig.wrap(tenant, cluster, sink)
		}
	})
	h.svc.cfg.HTTPClient = &http.Client{Transport: handlerTransport{h.archive.Handler()}}
	h.archSrv.URL = "http://archive.test"
	tab := h.inputTable(t)

	run := func(i int) {
		t.Helper()
		// Forget the derived products, or the request is served from the
		// RLS without running anything.
		for _, lfn := range h.r.LFNs() {
			if strings.HasSuffix(lfn, ".fit") {
				continue
			}
			for _, pfn := range h.r.Lookup(lfn) {
				if err := h.r.Unregister(lfn, pfn); err != nil {
					t.Fatal(err)
				}
			}
		}
		trig = &sweepTrigger{}
		var intruded chan struct{}
		switch i % 3 {
		case 1:
			trig.cuts = []*cut{{after: 5, fire: trig.kill}}
		case 2:
			var fire func()
			fire, intruded = intrude(t, f, 5)
			trig.cuts = []*cut{{after: 4, fire: fire}}
		}
		_, st, err := h.svc.Compute(tab, "COMA")
		switch {
		case i%3 == 1 && !errors.Is(err, journal.ErrCrash):
			t.Fatalf("request %d: err = %v, want the journal crash", i, err)
		case i%3 != 1 && err != nil:
			t.Fatalf("request %d: %v", i, err)
		case i%3 == 2 && st.Preemptions == 0:
			t.Fatalf("request %d was never preempted", i)
		}
		if intruded != nil {
			<-intruded
		}
	}
	run(0) // stages the images and starts whatever lives as long as the service
	before := runtime.NumGoroutine()
	for i := 1; i <= requests; i++ {
		run(i)
	}
	after := runtime.NumGoroutine()
	for i := 0; i < 1000 && after > before; i++ {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after != before {
		t.Errorf("%d goroutines after %d requests, %d before", after, requests, before)
	}
}
