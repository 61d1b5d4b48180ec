package rls

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestIndexAgreesWithCatalogsUnderRacingWrites: a Register racing an
// Unregister of the same replica leaves the index and the catalogs agreeing,
// Exists(lfn) exactly when Lookup(lfn) is non-empty. In each round one
// goroutine registers the replica, releases a second one to register it
// again, and withdraws it; once both are done it compares the two answers.
// Four such pairs, each on a file of its own at one site, contend for the
// service's locks, which is what stretches the two calls across each other.
// While the index and each catalog had locks of their own and a withdrawal
// decided "last copy gone" from a separate catalog read, about one round in
// 3,000 ended with the index naming a file no catalog held, or missing one a
// catalog held, and every run failed within milliseconds.
func TestIndexAgreesWithCatalogsUnderRacingWrites(t *testing.T) {
	const pairs = 4
	r := New()
	deadline := time.Now().Add(1500 * time.Millisecond)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		lfn := fmt.Sprintf("g%d.txt", p)
		pfn := PFN{Site: "isi", URL: "gridftp://isi/" + lfn}
		release, done := make(chan struct{}), make(chan struct{})
		wg.Add(2)
		go func() { // the racing registration
			defer wg.Done()
			for range release {
				_ = r.Register(lfn, pfn)
				done <- struct{}{}
			}
		}()
		go func() {
			defer wg.Done()
			defer close(release)
			for round := 1; !failed.Load() && time.Now().Before(deadline); round++ {
				if err := r.Register(lfn, pfn); err != nil {
					t.Error(err)
					return
				}
				release <- struct{}{}
				_ = r.Unregister(lfn, pfn) // fails if the racer's copy is not in yet
				<-done
				if exists, n := r.Exists(lfn), len(r.Lookup(lfn)); exists != (n > 0) {
					failed.Store(true)
					t.Errorf("%s round %d: Exists = %t but Lookup holds %d replicas", lfn, round, exists, n)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRegisterAllocBudget pins what registration costs: a replica of a name
// the service did not know is two allocations, the copies of the name and
// the URL (the entry is stored in the map by value, so map growth, amortised
// over the runs, is all else); one more replica of a known name is one, its
// URL; a replica already registered is none. Before the index and the
// catalogs were one map, a new name cost seven: a set of sites in the index
// and a set of URLs in the site's catalog, each a map, besides three copies.
func TestRegisterAllocBudget(t *testing.T) {
	const runs = 1000
	names := make([]string, runs+1)
	for i := range names {
		names[i] = fmt.Sprintf("g%05d.txt", i)
	}
	url := "gridftp://isi/g.txt"
	for _, c := range []struct {
		what   string
		budget float64
		pfn    func(i int) PFN
		name   func(i int) string
	}{
		{"new name", 2, func(int) PFN { return PFN{Site: "isi", URL: url} }, func(i int) string { return names[i] }},
		{"new replica of a known name", 1, func(i int) PFN { return PFN{Site: "isi", URL: names[i]} }, func(int) string { return "known.fit" }},
		{"repeat", 0, func(int) PFN { return PFN{Site: "isi", URL: url} }, func(int) string { return "known.fit" }},
	} {
		r := New()
		if err := r.Register("known.fit", PFN{Site: "isi", URL: url}); err != nil {
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if err := r.Register(c.name(i), c.pfn(i)); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: %.0f allocs", c.what, allocs)
		if allocs > c.budget {
			t.Errorf("registering a %s allocates %.0f times; budget is %.0f", c.what, allocs, c.budget)
		}
	}
}
