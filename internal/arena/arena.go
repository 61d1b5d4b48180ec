// Package arena provides request-lifetime bump allocation over pooled
// slabs for the webservice's per-galaxy hot path.
//
// PR 2's morphology scratch pool recycles a handful of fixed-shape buffers;
// the arena generalizes that to every transient buffer a request touches —
// decoded pixel arrays, background border samples, result encodings, spool
// row copies. A job body takes one Arena (Get), bump-allocates from it as
// it works, and returns it at the end (Put), which resets the offsets and
// recycles the slabs. Allocation cost per buffer is a slice header and an
// offset bump; the per-request garbage is the Arena bookkeeping, not the
// buffers.
//
// Arenas are typed — separate float64, byte and string slabs — and use no
// unsafe: pointer-containing values (the string slab) stay visible to the
// garbage collector and are cleared on reset so an arena never pins a
// previous request's data.
//
// An Arena is not safe for concurrent use. Each concurrent job body must
// take its own (the pool makes that cheap); the webservice runner does
// exactly that, so worker-pool parallelism never shares one.
package arena

import "sync"

// Slab sizing: big enough that a typical galaxy measurement (64×64 cutout
// = 4096 pixels plus border samples) fits in the first float slab, small
// enough that a pooled idle arena costs well under a megabyte.
const (
	minFloatSlab  = 8192 // 64 KiB
	minByteSlab   = 4096
	minStringSlab = 256
)

// span is one typed bump allocator: a list of slabs, a cursor slab and an
// offset within it. Allocation never moves existing data; reset just
// rewinds the cursor, keeping every slab for the next request.
type span[T any] struct {
	slabs   [][]T
	cur     int // slab being filled
	used    int // elements used in slabs[cur]
	minSlab int
}

// alloc returns an uninitialized length-n slice with private capacity
// (three-index sliced, so appends past n never clobber a neighbor).
func (s *span[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	for s.cur < len(s.slabs) {
		if slab := s.slabs[s.cur]; s.used+n <= len(slab) {
			out := slab[s.used : s.used+n : s.used+n]
			s.used += n
			return out
		}
		s.cur++
		s.used = 0
	}
	size := s.minSlab
	if n > size {
		size = n
	}
	s.slabs = append(s.slabs, make([]T, size))
	out := s.slabs[s.cur][:n:n]
	s.used = n
	return out
}

// reset rewinds the span. When clearValues is set the used prefix of every
// slab is zeroed first — required for pointer-containing element types so
// the retained slabs do not pin the previous request's data.
func (s *span[T]) reset(clearValues bool) {
	if clearValues {
		for i := 0; i <= s.cur && i < len(s.slabs); i++ {
			n := len(s.slabs[i])
			if i == s.cur {
				n = s.used
			}
			clear(s.slabs[i][:n])
		}
	}
	s.cur = 0
	s.used = 0
}

// Arena is a request-lifetime allocator. The zero value is ready to use;
// prefer Get/Put so slabs recycle across requests.
type Arena struct {
	floats  span[float64]
	bytes   span[byte]
	strings span[string]
}

var pool = sync.Pool{New: func() any {
	return &Arena{
		floats:  span[float64]{minSlab: minFloatSlab},
		bytes:   span[byte]{minSlab: minByteSlab},
		strings: span[string]{minSlab: minStringSlab},
	}
}}

// Get takes an arena from the pool. Pair with Put at the end of the
// request (or job body) that owns it.
func Get() *Arena { return pool.Get().(*Arena) }

// Put resets a and returns it to the pool. The caller must not retain any
// slice obtained from a afterwards.
func Put(a *Arena) {
	a.Reset()
	pool.Put(a)
}

// Reset rewinds every span, keeping the slabs. String slots are cleared so
// the arena does not pin freed backing arrays.
func (a *Arena) Reset() {
	a.floats.reset(false)
	a.bytes.reset(false)
	a.strings.reset(true)
}

// Floats returns an uninitialized length-n float64 slice. Contents are
// arbitrary (possibly stale values from an earlier request on this arena);
// the caller must write every element it reads, or slice to [:0] and
// append. Appending beyond n falls back to the ordinary heap.
func (a *Arena) Floats(n int) []float64 { return a.floats.alloc(n) }

// Bytes returns an uninitialized length-n byte slice with the same
// contract as Floats.
func (a *Arena) Bytes(n int) []byte { return a.bytes.alloc(n) }

// Strings returns a zeroed length-n string slice (string slots are cleared
// on reset, so unlike Floats/Bytes the contents are always empty strings).
func (a *Arena) Strings(n int) []string { return a.strings.alloc(n) }
