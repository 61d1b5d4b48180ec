//go:build race

package webservice

// raceEnabled reports whether the race detector is compiled in; the alloc
// gates relax their byte-level assertions under race instrumentation, whose
// shadow bookkeeping inflates measured allocation sizes.
const raceEnabled = true
