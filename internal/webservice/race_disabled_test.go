//go:build !race

package webservice

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
