// Package rls implements the Globus Replica Location Service the paper's
// Pegasus configuration depends on (Chervenak et al. 2002, "Giggle"): the
// catalog mapping logical file names (LFNs) to the physical file names
// (PFNs) of their replicas across Grid sites.
//
// Following Giggle's architecture, each site runs a Local Replica Catalog
// (LRC) holding its own LFN→PFN mappings, and a Replica Location Index (RLI)
// aggregates which LRCs know each LFN. The RLS facade gives Pegasus the
// queries it needs: existence checks for workflow reduction and feasibility,
// replica lists for source selection, and registration for newly materialized
// data products. Both layers are one map here, from each LFN to its
// replicas, under one lock (see RLS). An HTTP front-end (see http.go)
// exposes the same operations as a service.
package rls

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
)

// PFN is one physical replica of a logical file.
type PFN struct {
	Site string // site identifier, e.g. "isi", "fnal"
	URL  string // physical location, e.g. "gridftp://isi.edu/data/x.fit"
}

// Errors returned by the service.
var (
	ErrNotFound = errors.New("rls: logical file not found")
	ErrBadInput = errors.New("rls: bad input")
)

// LRC is one site's Local Replica Catalog: the LFN→PFN mappings the service
// holds for that site, read through the service's one lock.
type LRC struct {
	r    *RLS
	site string
}

// Site returns the owning site.
func (l *LRC) Site() string { return l.site }

// LFNs returns every logical name the site holds a replica of, sorted.
func (l *LRC) LFNs() []string {
	l.r.mu.RLock()
	defer l.r.mu.RUnlock()
	var out []string
	for lfn, e := range l.r.files {
		if e.holds(l.site) {
			out = append(out, lfn)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of logical names the site holds a replica of.
func (l *LRC) Len() int {
	l.r.mu.RLock()
	defer l.r.mu.RUnlock()
	n := 0
	for _, e := range l.r.files {
		if e.holds(l.site) {
			n++
		}
	}
	return n
}

// replicas is one logical file's entry in the service: its name and its
// replicas sorted by site, then URL. The index's site set for the file is
// the runs of equal sites in that list, and each run is that site's catalog
// entry, so the two cannot disagree. Up to two replicas (a staged image at
// the cache and the mirror) sit in the entry itself, which the map holds by
// value; a third moves them all to a slice of their own.
type replicas struct {
	// lfn is the service's own copy of the name, the map key it is stored
	// under: an entry is written back by it, never by the caller's string,
	// which a map assignment would install as the key. It may be the tail
	// of the first replica's URL (nameIn), which it then keeps alive.
	lfn    string
	n      int // replicas in inline, while spill is nil
	inline [2]PFN
	spill  []PFN
}

func (e *replicas) list() []PFN {
	if e.spill != nil {
		return e.spill
	}
	return e.inline[:e.n]
}

// find returns where (site, url) is in the list, or where it would go.
func (e *replicas) find(site, url string) (int, bool) {
	return slices.BinarySearchFunc(e.list(), PFN{Site: site, URL: url}, comparePFN)
}

func comparePFN(a, b PFN) int {
	if c := strings.Compare(a.Site, b.Site); c != 0 {
		return c
	}
	return strings.Compare(a.URL, b.URL)
}

// holds reports whether site has a replica of the file.
func (e *replicas) holds(site string) bool {
	i, _ := e.find(site, "")
	list := e.list()
	return i < len(list) && list[i].Site == site
}

// insert puts p at position i of the list.
func (e *replicas) insert(i int, p PFN) {
	if e.spill == nil && e.n < len(e.inline) {
		copy(e.inline[i+1:e.n+1], e.inline[i:e.n])
		e.inline[i] = p
		e.n++
		return
	}
	if e.spill == nil {
		e.spill = append(make([]PFN, 0, 2*len(e.inline)), e.inline[:e.n]...)
		e.inline, e.n = [2]PFN{}, 0
	}
	e.spill = slices.Insert(e.spill, i, p)
}

// remove deletes position i of the list and returns how many replicas are
// left.
func (e *replicas) remove(i int) int {
	if e.spill != nil {
		e.spill = slices.Delete(e.spill, i, i+1)
		return len(e.spill)
	}
	copy(e.inline[i:e.n], e.inline[i+1:e.n])
	e.n--
	e.inline[e.n] = PFN{}
	return e.n
}

// Fault-point names. OpLookup is checked once per (LFN, site) pair during
// Lookup — a faulted LRC's replicas drop out of the answer, the degraded
// view Giggle's RLI gives when a Local Replica Catalog is unreachable.
// OpRegister is checked on Register and fails the registration.
const (
	OpLookup   = "rls.lookup"
	OpRegister = "rls.register"
)

// RLS is the full replica location service: an RLI over per-site LRCs,
// held as one map from each logical name to its replicas under one lock, so
// a registration, a withdrawal and every query see the index and the
// catalogs change together.
type RLS struct {
	mu sync.RWMutex
	// files maps each indexed lfn to its replicas; a name with none left is
	// deleted, so a name in the map is a name the index knows.
	files map[string]replicas
	// sites is every site an LRC was opened for, sorted. Replicas hold these
	// strings, so a caller's site name is copied once per site.
	sites []string
	// sums holds the per-LFN content checksum attribute (Giggle's RLS
	// attaches user-defined attributes to mappings; all replicas of an LFN
	// share content, so the attribute lives at the logical level).
	sums map[string]string
	// quarantined holds replicas pulled from circulation after failing
	// checksum verification, kept for audit rather than deleted.
	quarantined map[string][]PFN
	inj         *faults.Injector
	// roundTrips counts client-visible read-query round trips: Lookup and
	// Exists cost one each, BulkLookup costs one regardless of batch size.
	// In the real deployment each is one network exchange with the RLS
	// server, so this is the number the planner's batching optimizes.
	roundTrips atomic.Int64
}

// New returns an empty service.
func New() *RLS {
	return &RLS{
		files:       map[string]replicas{},
		sums:        map[string]string{},
		quarantined: map[string][]PFN{},
	}
}

// SetInjector installs (or removes, with nil) the fault injector. Exists
// and the RLI index stay faithful — Giggle's index layer is soft state the
// planner can always read; only LRC contact (Lookup) and registration are
// fault points.
func (r *RLS) SetInjector(in *faults.Injector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inj = in
}

// Site returns (opening on demand) the LRC for a site.
func (r *RLS) Site(site string) *LRC {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &LRC{r: r, site: r.openSite(site)}
}

// openSite returns the service's copy of a site name, opening the site's
// LRC if it is new. The caller holds r.mu.
func (r *RLS) openSite(site string) string {
	i, ok := slices.BinarySearch(r.sites, site)
	if !ok {
		r.sites = slices.Insert(r.sites, i, strings.Clone(site))
	}
	return r.sites[i]
}

// Sites returns the registered site names, sorted.
func (r *RLS) Sites() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append(make([]string, 0, len(r.sites)), r.sites...)
}

// Register records a replica and updates the index. A new replica's URL is
// copied once, and a name the service did not know is copied with it when
// the URL ends in "/" + lfn (the name is kept as the copy's tail), or else
// on its own: a planner's names are slices of a per-plan buffer, and an
// entry outlives the plan. A replica already registered costs nothing.
//
//nvo:hotpath
func (r *RLS) Register(lfn string, pfn PFN) error {
	if pfn.Site == "" {
		return fmt.Errorf("%w: empty site", ErrBadInput)
	}
	r.mu.RLock()
	inj := r.inj
	r.mu.RUnlock()
	if err := inj.Check(faults.Op{Name: OpRegister, Site: pfn.Site, Key: lfn}); err != nil {
		return fmt.Errorf("rls: register %s @ %s: %w", lfn, pfn.Site, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	site := r.openSite(pfn.Site)
	if lfn == "" || pfn.URL == "" {
		return fmt.Errorf("%w: empty lfn or url", ErrBadInput)
	}
	e, known := r.files[lfn]
	i, found := e.find(site, pfn.URL)
	if found {
		return nil
	}
	url := strings.Clone(pfn.URL)
	if !known {
		e.lfn = nameIn(url, lfn)
	}
	e.insert(i, PFN{Site: site, URL: url})
	r.files[e.lfn] = e
	return nil
}

// nameIn is the service's copy of lfn: the tail of url, the service's copy
// of a replica's URL, when url ends in "/" + lfn, and a copy of its own
// otherwise.
func nameIn(url, lfn string) string {
	if tail := len(url) - len(lfn); tail > 0 && url[tail-1] == '/' && url[tail:] == lfn {
		return url[tail:]
	}
	return strings.Clone(lfn)
}

// Unregister removes a replica; the index forgets a site with its last
// copy, and the name with its last replica.
func (r *RLS) Unregister(lfn string, pfn PFN) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, _, err := r.unregister(lfn, pfn)
	return err
}

// unregister is Unregister under r.mu; it returns the service's own copy of
// the name and of the withdrawn replica.
func (r *RLS) unregister(lfn string, pfn PFN) (string, PFN, error) {
	if _, ok := slices.BinarySearch(r.sites, pfn.Site); !ok {
		return "", PFN{}, fmt.Errorf("%w: site %q", ErrNotFound, pfn.Site)
	}
	e := r.files[lfn]
	i, found := e.find(pfn.Site, pfn.URL)
	if !found {
		return "", PFN{}, fmt.Errorf("%w: %s @ %s", ErrNotFound, lfn, pfn.URL)
	}
	gone := e.list()[i]
	if e.remove(i) == 0 {
		delete(r.files, e.lfn)
	} else {
		r.files[e.lfn] = e
	}
	return e.lfn, gone, nil
}

// UnregisterAt removes every replica of lfn at site, whatever its URL:
// Unregister for a caller that knows where a file's replicas are but does
// not hold their URLs. The name goes with its last replica; a site without
// a replica of lfn is a no-op.
func (r *RLS) UnregisterAt(lfn, site string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.files[lfn]
	if !ok {
		return
	}
	for i, _ := e.find(site, ""); i < len(e.list()) && e.list()[i].Site == site; {
		if e.remove(i) == 0 {
			delete(r.files, e.lfn)
			return
		}
	}
	r.files[e.lfn] = e
}

// Lookup returns every replica of lfn across all sites, sorted by site then
// URL. A missing LFN yields an empty slice, not an error, matching how
// Pegasus probes for reusable data products. Sites whose LRC is faulted by
// the injector are silently omitted — the degraded answer a live RLI gives
// while one of its catalogs is down.
func (r *RLS) Lookup(lfn string) []PFN {
	r.roundTrips.Add(1)
	if pfns := r.appendLookup(nil, lfn); len(pfns) > 0 {
		return pfns
	}
	return nil
}

// appendLookup appends every replica of lfn to dst, sorted by site then URL,
// and returns the extended slice. It is the per-file body of Lookup and
// BulkLookup. The replicas are copied under the lock; each site's run is
// then checked against the injector outside it, in site order (the
// deterministic fault-point order), and a faulted site's run is dropped.
//
//nvo:hotpath
func (r *RLS) appendLookup(dst []PFN, lfn string) []PFN {
	start := len(dst)
	r.mu.RLock()
	inj := r.inj
	e := r.files[lfn]
	dst = append(dst, e.list()...)
	r.mu.RUnlock()

	kept := start
	for i := start; i < len(dst); {
		j := i + 1
		for j < len(dst) && dst[j].Site == dst[i].Site {
			j++
		}
		if inj.Check(faults.Op{Name: OpLookup, Site: dst[i].Site, Key: lfn}) == nil {
			kept += copy(dst[kept:], dst[i:j])
		}
		i = j
	}
	clear(dst[kept:])
	return dst[:kept]
}

// SetChecksum records the content checksum attribute of a logical file —
// written once when the file is created, carried so every consumer can
// verify what it fetches.
func (r *RLS) SetChecksum(lfn, sum string) error {
	if lfn == "" || sum == "" {
		return fmt.Errorf("%w: empty lfn or checksum", ErrBadInput)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sums[lfn] = sum
	return nil
}

// Checksum returns the recorded content checksum of a logical file.
func (r *RLS) Checksum(lfn string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sum, ok := r.sums[lfn]
	return sum, ok
}

// Quarantine pulls a replica out of circulation after it failed integrity
// verification: the mapping leaves the catalog (so Lookup stops offering it)
// but is retained on a quarantine list for audit. The LFN itself survives if
// other replicas remain — and even with none, re-derivation re-registers it.
func (r *RLS) Quarantine(lfn string, pfn PFN) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	name, gone, err := r.unregister(lfn, pfn)
	if err != nil {
		return err
	}
	r.quarantined[name] = append(r.quarantined[name], gone)
	return nil
}

// Quarantined returns the quarantined replicas of lfn (nil if none).
func (r *RLS) Quarantined(lfn string) []PFN {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]PFN, len(r.quarantined[lfn]))
	copy(out, r.quarantined[lfn])
	return out
}

// QuarantinedCount returns the total number of quarantined replicas.
func (r *RLS) QuarantinedCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, pfns := range r.quarantined {
		n += len(pfns)
	}
	return n
}

// Exists reports whether any replica of lfn is registered.
func (r *RLS) Exists(lfn string) bool {
	r.roundTrips.Add(1)
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.files[lfn]
	return ok
}

// BulkLookup resolves many LFNs at once (Pegasus queries the whole abstract
// workflow's file set in one pass; Figure 2 steps 3–4). It costs a single
// round trip no matter how many LFNs it carries — the point of Giggle's bulk
// interface, and what lets the planner run in O(1) RLS exchanges per plan.
//
// Every file's replicas are a window of one backing slice shared by the
// answer, capped at its length so an append to one never writes into the
// next, and the map is sized for the files found: the answer costs a fixed
// number of allocations, not some per file.
func (r *RLS) BulkLookup(lfns []string) map[string][]PFN {
	r.roundTrips.Add(1)
	all := make([]PFN, 0, len(lfns))
	ends := make([]int32, len(lfns)) // all[ends[i-1]:ends[i]] are lfns[i]'s
	found := 0
	for i, lfn := range lfns {
		start := len(all)
		if all = r.appendLookup(all, lfn); len(all) > start {
			found++
		}
		ends[i] = int32(len(all))
	}
	out := make(map[string][]PFN, found)
	start := int32(0)
	for i, lfn := range lfns {
		if end := ends[i]; end > start {
			out[lfn] = all[start:end:end]
			start = end
		}
	}
	return out
}

// RoundTrips returns the cumulative read-query round trips served (Lookup
// and Exists count one each; BulkLookup counts one per call).
func (r *RLS) RoundTrips() int64 { return r.roundTrips.Load() }

// ResetRoundTrips zeroes the round-trip counter and returns the prior value;
// callers bracket a planning pass with it to measure that pass alone.
func (r *RLS) ResetRoundTrips() int64 { return r.roundTrips.Swap(0) }

// LFNs returns every indexed logical name, sorted.
func (r *RLS) LFNs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.files))
	for lfn := range r.files {
		out = append(out, lfn)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of indexed logical names.
func (r *RLS) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.files)
}
