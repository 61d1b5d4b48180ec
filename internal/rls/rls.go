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
// data products. An HTTP front-end (see http.go) exposes the same operations
// as a service.
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

// LRC is a Local Replica Catalog: one site's LFN→PFN mappings. It is safe
// for concurrent use.
type LRC struct {
	site string
	mu   sync.RWMutex
	m    map[string]map[string]bool // lfn -> set of URLs
}

// NewLRC returns an empty catalog for a site.
func NewLRC(site string) *LRC {
	return &LRC{site: site, m: map[string]map[string]bool{}}
}

// Site returns the owning site.
func (l *LRC) Site() string { return l.site }

// Add records a replica of lfn at url. The catalog keeps its own copy of a
// name it did not know: a planner's names are slices of a per-plan buffer,
// and a catalog entry outlives the plan.
func (l *LRC) Add(lfn, url string) error {
	if lfn == "" || url == "" {
		return fmt.Errorf("%w: empty lfn or url", ErrBadInput)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	urls := l.m[lfn]
	if urls == nil {
		urls = map[string]bool{}
		l.m[strings.Clone(lfn)] = urls
	}
	if !urls[url] {
		urls[strings.Clone(url)] = true
	}
	return nil
}

// Remove deletes a replica mapping; removing the last replica forgets the LFN.
func (l *LRC) Remove(lfn, url string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	urls, ok := l.m[lfn]
	if !ok || !urls[url] {
		return fmt.Errorf("%w: %s @ %s", ErrNotFound, lfn, url)
	}
	delete(urls, url)
	if len(urls) == 0 {
		delete(l.m, lfn)
	}
	return nil
}

// Lookup returns the site's replicas of lfn, sorted by URL.
func (l *LRC) Lookup(lfn string) []PFN { return l.appendTo([]PFN{}, lfn) }

// appendTo appends the site's replicas of lfn to dst, sorted by URL. They are
// collected as a run in dst's spare capacity, grown first to fit them, and
// sorted there, so the copy onto dst moves nothing.
func (l *LRC) appendTo(dst []PFN, lfn string) []PFN {
	l.mu.RLock()
	urls := l.m[lfn]
	dst = slices.Grow(dst, len(urls))
	run := dst[len(dst):]
	for u := range urls {
		run = append(run, PFN{Site: l.site, URL: u})
	}
	l.mu.RUnlock()
	slices.SortFunc(run, byURL)
	return append(dst, run...)
}

func byURL(a, b PFN) int { return strings.Compare(a.URL, b.URL) }

// LFNs returns every logical name the site knows, sorted.
func (l *LRC) LFNs() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.m))
	for lfn := range l.m {
		out = append(out, lfn)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of logical names known to the site.
func (l *LRC) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.m)
}

// Fault-point names. OpLookup is checked once per (LFN, site) pair during
// Lookup — a faulted LRC's replicas drop out of the answer, the degraded
// view Giggle's RLI gives when a Local Replica Catalog is unreachable.
// OpRegister is checked on Register and fails the registration.
const (
	OpLookup   = "rls.lookup"
	OpRegister = "rls.register"
)

// RLS is the full replica location service: an RLI over per-site LRCs.
type RLS struct {
	mu   sync.RWMutex
	lrcs map[string]*LRC
	// rli maps lfn -> set of sites whose LRC holds it (the index layer).
	rli map[string]map[string]bool
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
		lrcs:        map[string]*LRC{},
		rli:         map[string]map[string]bool{},
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

// Site returns (creating on demand) the LRC for a site.
func (r *RLS) Site(site string) *LRC {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l, ok := r.lrcs[site]; ok {
		return l
	}
	l := NewLRC(site)
	r.lrcs[site] = l
	return l
}

// Sites returns the registered site names, sorted.
func (r *RLS) Sites() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.lrcs))
	for s := range r.lrcs {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Register records a replica and updates the index.
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
	if err := r.Site(pfn.Site).Add(lfn, pfn.URL); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sites := r.rli[lfn]
	if sites == nil {
		sites = map[string]bool{}
		r.rli[strings.Clone(lfn)] = sites // the index outlives the caller's buffer
	}
	sites[pfn.Site] = true
	return nil
}

// Unregister removes a replica, updating the index when a site's last copy
// disappears.
func (r *RLS) Unregister(lfn string, pfn PFN) error {
	r.mu.RLock()
	lrc, ok := r.lrcs[pfn.Site]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: site %q", ErrNotFound, pfn.Site)
	}
	if err := lrc.Remove(lfn, pfn.URL); err != nil {
		return err
	}
	if len(lrc.Lookup(lfn)) == 0 {
		r.mu.Lock()
		if sites := r.rli[lfn]; sites != nil {
			delete(sites, pfn.Site)
			if len(sites) == 0 {
				delete(r.rli, lfn)
			}
		}
		r.mu.Unlock()
	}
	return nil
}

// Lookup returns every replica of lfn across all sites, sorted by site then
// URL. A missing LFN yields an empty slice, not an error, matching how
// Pegasus probes for reusable data products. Sites whose LRC is faulted by
// the injector are silently omitted — the degraded answer a live RLI gives
// while one of its catalogs is down.
func (r *RLS) Lookup(lfn string) []PFN {
	r.roundTrips.Add(1)
	var sc lookupScratch
	return r.appendLookup(nil, lfn, &sc)
}

// lookupScratch is the site and catalog lists of one lookup, reused by every
// lookup of a bulk query.
type lookupScratch struct {
	sites []string
	lrcs  []*LRC
}

// appendLookup appends every replica of lfn to dst, sorted by site then URL,
// and returns the extended slice. It is the per-file body of Lookup and
// BulkLookup: the sites are visited in sorted order (the deterministic
// fault-point order) and each catalog appends its own replicas sorted by URL,
// so the appended run comes out sorted with no sort of its own.
//
//nvo:hotpath
func (r *RLS) appendLookup(dst []PFN, lfn string, sc *lookupScratch) []PFN {
	r.mu.RLock()
	inj := r.inj
	sites := sc.sites[:0]
	for s := range r.rli[lfn] {
		sites = append(sites, s)
	}
	slices.Sort(sites)
	lrcs := sc.lrcs[:0]
	for _, s := range sites {
		if l, ok := r.lrcs[s]; ok {
			lrcs = append(lrcs, l)
		}
	}
	r.mu.RUnlock()
	sc.sites, sc.lrcs = sites, lrcs

	for _, l := range lrcs {
		if inj.Check(faults.Op{Name: OpLookup, Site: l.Site(), Key: lfn}) != nil {
			continue
		}
		dst = l.appendTo(dst, lfn)
	}
	return dst
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
	if err := r.Unregister(lfn, pfn); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.quarantined[lfn] = append(r.quarantined[lfn], pfn)
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
	return len(r.rli[lfn]) > 0
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
	var sc lookupScratch
	for i, lfn := range lfns {
		start := len(all)
		if all = r.appendLookup(all, lfn, &sc); len(all) > start {
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
	out := make([]string, 0, len(r.rli))
	for lfn := range r.rli {
		out = append(out, lfn)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of indexed logical names.
func (r *RLS) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.rli)
}
