package rls

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
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
// over the runs, is all else), and one, the URL's copy, when the URL ends in
// "/" + the name; one more replica of a known name is one, its URL; a
// replica already registered is none. Before the index and the
// catalogs were one map, a new name cost seven: a set of sites in the index
// and a set of URLs in the site's catalog, each a map, besides three copies.
func TestRegisterAllocBudget(t *testing.T) {
	const runs = 1000
	names, urls := make([]string, runs+1), make([]string, runs+1)
	for i := range names {
		names[i] = fmt.Sprintf("g%05d.txt", i)
		urls[i] = "gridftp://isi/" + names[i]
	}
	url := "gridftp://isi/g.txt"
	for _, c := range []struct {
		what   string
		budget float64
		pfn    func(i int) PFN
		name   func(i int) string
	}{
		{"new name", 2, func(int) PFN { return PFN{Site: "isi", URL: url} }, func(i int) string { return names[i] }},
		{"new name at its URL's tail", 1, func(i int) PFN { return PFN{Site: "isi", URL: urls[i]} }, func(i int) string { return names[i] }},
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

// TestNameKeptAsURLTail: a new name whose URL ends in "/" + the name is kept
// as the tail of the service's copy of that URL, and any other name is
// copied on its own; neither keeps the caller's string. Either way Exists,
// Lookup, LFNs, the site's LRC and Unregister give the same answers, also
// after the replica whose URL holds the name is withdrawn and another
// replica keeps the name.
func TestNameKeptAsURLTail(t *testing.T) {
	for _, c := range []struct {
		lfn, url string
		tail     bool
	}{
		{"g.fit", "gridftp://isi/g.fit", true},
		{"dir/g.fit", "gridftp://isi/dir/g.fit", true},
		{"g.fit", "/g.fit", true},
		{"g.fit", "gridftp://isi/xg.fit", false},
		{"g.fit", "gridftp://isi/g.fit.bak", false},
		{"g.fit", "g.fit", false},
		{"g.fit", "gridftp://isi/G.FIT", false},
	} {
		// The caller's strings are fresh copies, so that a name or URL the
		// service kept would show up as sharing their bytes.
		lfn, url := strings.Clone(c.lfn), strings.Clone(c.url)
		r := New()
		if err := r.Register(lfn, PFN{Site: "isi", URL: url}); err != nil {
			t.Fatal(err)
		}
		e := r.files[c.lfn]
		kept, keptURL := unsafe.StringData(e.lfn), unsafe.StringData(e.list()[0].URL)
		inURL := uintptr(unsafe.Pointer(kept)) >= uintptr(unsafe.Pointer(keptURL)) &&
			uintptr(unsafe.Pointer(kept)) < uintptr(unsafe.Pointer(keptURL))+uintptr(len(c.url))
		if inURL != c.tail || kept == unsafe.StringData(lfn) || keptURL == unsafe.StringData(url) {
			t.Errorf("%q at %q: name kept in the URL's copy %t, want %t (the caller's own: name %t, URL %t)",
				c.lfn, c.url, inURL, c.tail, kept == unsafe.StringData(lfn), keptURL == unsafe.StringData(url))
		}
		mirror := PFN{Site: "mirror", URL: "gridftp://mirror/" + c.lfn}
		if err := r.Register(c.lfn, mirror); err != nil {
			t.Fatal(err)
		}
		want := []PFN{{Site: "isi", URL: c.url}, mirror}
		if got := r.Lookup(c.lfn); !slices.Equal(got, want) {
			t.Errorf("%q at %q: Lookup %v, want %v", c.lfn, c.url, got, want)
		}
		if got := r.LFNs(); !slices.Equal(got, []string{c.lfn}) {
			t.Errorf("%q at %q: LFNs %q", c.lfn, c.url, got)
		}
		if got := r.Site("isi").LFNs(); !slices.Equal(got, []string{c.lfn}) {
			t.Errorf("%q at %q: isi's LRC holds %q", c.lfn, c.url, got)
		}
		if err := r.Unregister(c.lfn, PFN{Site: "isi", URL: c.url}); err != nil {
			t.Fatal(err)
		}
		if got := r.Lookup(c.lfn); !r.Exists(c.lfn) || !slices.Equal(got, want[1:]) {
			t.Errorf("%q at %q: after the first replica's withdrawal Lookup %v", c.lfn, c.url, got)
		}
		if got := r.LFNs(); !slices.Equal(got, []string{c.lfn}) || r.Site("isi").Len() != 0 {
			t.Errorf("%q at %q: after the first replica's withdrawal LFNs %q, isi holds %d", c.lfn, c.url, got, r.Site("isi").Len())
		}
		if err := r.Unregister(c.lfn, mirror); err != nil {
			t.Fatal(err)
		}
		if r.Exists(c.lfn) || r.Lookup(c.lfn) != nil || len(r.LFNs()) != 0 {
			t.Errorf("%q at %q: still indexed after its last replica's withdrawal", c.lfn, c.url)
		}
	}
}
