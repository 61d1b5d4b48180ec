package webservice

import (
	"runtime"
	"strings"
	"testing"
)

// evictDerived forgets every derived product, the per-galaxy result files and
// the output table, from the RLS and the GridFTP stores, leaving the staged
// images: the state before a staged or warm-memo request.
func (h *harness) evictDerived(t testing.TB) {
	t.Helper()
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
	for _, site := range h.ftp.Sites() {
		store := h.ftp.Store(site)
		for _, path := range store.List() {
			if !strings.HasSuffix(path, ".fit") {
				if err := store.Delete(path); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// requestAllocs is the heap allocations of one request for the table on svc.
func requestAllocs(t testing.TB, svc *Service, h *harness) (uint64, RunStats) {
	t.Helper()
	tab := h.inputTable(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, st, err := svc.Compute(tab, "COMA")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, st
}

// TestRequestAllocBudget gates what one whole request allocates per galaxy
// over the 1,000-galaxy plan, past planning (TestPlanAllocBudget) and the
// executor (TestExecuteAllocBudget): the node bodies, the stage-in copies and
// registrations, the measurements and the collector. A warm-memo request
// bypasses measurement; a staged one, on a service reopened with an empty
// memo, measures every galaxy. Each figure is the fewer of two requests.
// Measured 3.95 (warm memo) and 5.99 (staged); under -race, where sync.Pool
// drops arenas and scratch on purpose, 4.72 and 8.48. Each budget is its
// figure plus 10%. While the replica catalog copied every new name apart
// from its URL, the same requests read 4.96 and 7.00 (5.80 and 9.50 under
// -race); while every node's body was a closure, the registry two layers
// of maps, and a memo hit converted its key to a string, 14.64 and 15.66.
func TestRequestAllocBudget(t *testing.T) {
	const galaxies = 1000
	h := newHarness(t, galaxies, nil)
	if n := h.inputTable(t).NumRows(); n != galaxies {
		t.Fatalf("input table has %d rows, want %d", n, galaxies)
	}
	if _, _, err := h.svc.Compute(h.inputTable(t), "COMA"); err != nil { // stage every image, fill the memo
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		// reopen runs each request on a service reopened with an empty memo.
		reopen             bool
		check              func(RunStats) bool
		budget, raceBudget float64
	}{
		{"warm memo", false, func(st RunStats) bool { return st.MemoHits == galaxies }, 4.35, 5.19},
		{"staged", true, func(st RunStats) bool { return st.MemoMisses == galaxies && st.ImagesCached == galaxies }, 6.59, 9.33},
	} {
		if raceEnabled {
			c.budget = c.raceBudget
		}
		best := ^uint64(0)
		for run := 0; run < 2; run++ {
			h.evictDerived(t)
			svc := h.svc
			if c.reopen {
				var err error
				if svc, err = h.svc.Reopen(); err != nil {
					t.Fatal(err)
				}
			}
			allocs, st := requestAllocs(t, svc, h)
			if !c.check(st) {
				t.Fatalf("%s request did not measure what it says: %+v", c.name, st)
			}
			best = min(best, allocs)
		}
		perGalaxy := float64(best) / galaxies
		t.Logf("%s request: %.2f allocs/galaxy", c.name, perGalaxy)
		if perGalaxy > c.budget {
			t.Errorf("a %s request allocates %.2f times per galaxy; budget is %.2f", c.name, perGalaxy, c.budget)
		}
	}
}
