//go:build race

package webservice

// raceEnabled reports whether the race detector is compiled in; the alloc
// gates relax their byte-level assertions under race instrumentation, whose
// shadow bookkeeping inflates measured allocation sizes.
const raceEnabled = true

// racePoolRefills is the allocations per galaxy that sync.Pool's deliberate
// drops under -race add to the hot path: a dropped arena or measurement
// scratch is rebuilt on the next Get. It reads 2.0.
const racePoolRefills = 2
