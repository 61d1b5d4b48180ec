//go:build !race

package services

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
