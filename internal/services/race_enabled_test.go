//go:build race

package services

// raceEnabled reports whether the race detector is compiled in: its
// sync.Pool drops a quarter of the puts on purpose, so the allocation
// budgets gain the rebuilds.
const raceEnabled = true
