package rls

import (
	"strings"
	"sync"
)

// Cache is a small read-through cache in front of an RLS. The planner and
// runner resolve the same LFNs many times per request (reduction, source
// selection, retry failover); the cache answers repeats locally so each
// distinct LFN costs at most one RLS round trip between invalidations.
//
// Correctness rule: any path that removes a replica from circulation — in
// this system, quarantine after a checksum failure — must call Invalidate
// for that LFN, otherwise a stale cached entry could resurrect the bad
// replica. webservice wires Invalidate into its quarantine hook, and
// TestCacheNeverResurrectsQuarantinedReplica pins the contract.
type Cache struct {
	rls *RLS

	mu      sync.RWMutex
	entries map[string][]PFN
	hits    int64
	misses  int64
}

// NewCache returns an empty cache over the given RLS.
func NewCache(r *RLS) *Cache {
	return &Cache{rls: r, entries: map[string][]PFN{}}
}

// Lookup returns the replicas of lfn, from cache when possible. Negative
// results are cached too (an LFN with no replicas stays empty until
// Invalidate), matching planner semantics where absence means "must derive".
func (c *Cache) Lookup(lfn string) []PFN {
	c.mu.RLock()
	pfns, ok := c.entries[lfn]
	c.mu.RUnlock()
	if ok {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return append([]PFN(nil), pfns...)
	}
	fresh := c.rls.Lookup(lfn)
	c.mu.Lock()
	c.misses++
	c.entries[c.key(lfn)] = append([]PFN(nil), fresh...)
	c.mu.Unlock()
	return fresh
}

// Prime installs a replica mapping without touching the RLS — used to seed
// the cache from a BulkLookup snapshot so subsequent Lookups are free. It
// adopts the snapshot's replica lists rather than copying them: the caller
// must not change them afterwards (Lookup hands out copies, so the cache
// never does). An adopted list is a window of the snapshot's one backing
// slice, and that backing stays live while any entry still points into it;
// every plan of a request re-primes the request's whole file set, so in
// steady state that is the latest plan's backing per request, not one per
// plan ever primed.
func (c *Cache) Prime(snapshot map[string][]PFN) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for lfn, pfns := range snapshot {
		c.entries[c.key(lfn)] = pfns
	}
}

// key returns lfn as the cache may keep it: a name new to the cache is
// copied, because a map keeps the key it was first given and a planner's
// names are slices of a per-plan buffer the cache would otherwise pin. The
// caller holds c.mu.
func (c *Cache) key(lfn string) string {
	if _, ok := c.entries[lfn]; ok {
		return lfn
	}
	return strings.Clone(lfn)
}

// Invalidate drops the cached entry for lfn so the next Lookup re-reads the
// authoritative catalog. Called whenever a replica of lfn is quarantined or
// re-registered.
func (c *Cache) Invalidate(lfn string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, lfn)
}

// Reset clears every entry (a new request plans against fresh state).
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string][]PFN{}
}

// Stats returns cumulative (hits, misses).
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits, c.misses
}
