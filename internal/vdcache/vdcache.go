// Package vdcache is a content-keyed derived-data cache: Chimera's virtual
// data idea ("any such data product can be transparently regenerated, or
// fetched if it already exists") applied at the granularity of one
// derivation's result. A derived product is keyed by what actually determines
// it — the content of its input data and the transformation's parameters —
// so a repeat derivation over identical bytes is served from memory no matter
// which request, cluster, or output LFN asked for it. The compute service
// memoizes per-galaxy morphology measurements this way: a warm request skips
// fits decoding and the Measure hot path entirely, and the cached product is
// still published through the normal register nodes as replicas of the
// derivation's output LFN.
//
// The cache is safe for concurrent use: parallel leaf jobs running galMorph
// side effects on the worker pool share one instance per service.
package vdcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// Key derives a cache key from the parts that determine a derived product:
// typically the raw input bytes and a rendering of the transformation's
// parameters. Parts are length-framed before hashing, so ("ab", "c") and
// ("a", "bc") never collide. The key is KeyLen lowercase hex digits.
func Key(parts ...[]byte) string {
	var key [KeyLen]byte
	return string(AppendKey(key[:0], parts...))
}

// KeyLen is the length of a key.
const KeyLen = 2 * sha256.Size

// AppendKey appends Key(parts...) to dst. The framed parts go through a
// stack buffer (the heap only past framedOnStack bytes) and a one-shot
// digest, so with a dst of room KeyLen it allocates nothing.
func AppendKey(dst []byte, parts ...[]byte) []byte {
	var stack [framedOnStack]byte
	framed := stack[:0]
	for _, p := range parts {
		framed = binary.BigEndian.AppendUint64(framed, uint64(len(p)))
		framed = append(framed, p...)
	}
	sum := sha256.Sum256(framed)
	return hex.AppendEncode(dst, sum[:])
}

// framedOnStack bounds the framed parts AppendKey hashes without a heap
// buffer: a hex image digest and a parameter fingerprint take about 200.
const framedOnStack = 512

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// Cache maps content keys to derived values of type V. The zero value is not
// usable; create with New. All methods are nil-safe: a nil *Cache behaves as
// an always-miss cache that drops writes, so callers can leave memoization
// unconfigured at zero cost.
type Cache[V any] struct {
	mu      sync.Mutex
	entries map[string]V
	hits    int64
	misses  int64
}

// New builds an empty cache.
func New[V any]() *Cache[V] {
	return &Cache[V]{entries: map[string]V{}}
}

// Get returns the value cached under key, counting a hit or miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	c.count(ok)
	return v, ok
}

// GetBytes is Get for a key held in bytes, such as one AppendKey built in a
// stack buffer: the map is searched with the bytes in place, so a hit
// allocates nothing, and only a miss's Put needs the key as a string.
func (c *Cache[V]) GetBytes(key []byte) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[string(key)]
	c.count(ok)
	return v, ok
}

// count records a lookup's outcome. The caller holds c.mu.
func (c *Cache[V]) count(hit bool) {
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// Put stores v under key, replacing any previous entry.
func (c *Cache[V]) Put(key string, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = v
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the cumulative hit/miss counters and current size.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}
