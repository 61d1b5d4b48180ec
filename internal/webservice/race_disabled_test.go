//go:build !race

package webservice

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

// racePoolRefills is zero: sync.Pool keeps what is put back.
const racePoolRefills = 0
