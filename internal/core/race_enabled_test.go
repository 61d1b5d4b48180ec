//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// allocation tests do not hold bytes to a bound under it, whose pools drop
// puts on purpose.
const raceEnabled = true
