// Package seededrand forbids the process-global math/rand source in
// non-test code. Every stochastic decision in the stack — site
// selection, fault schedules, retry jitter — must draw from a
// *rand.Rand built over an explicitly threaded seed (the request seed,
// the fault-campaign seed), because the byte-identity guarantees are
// proved by replaying those seeds. The top-level math/rand functions
// (and all of math/rand/v2, whose global source cannot be seeded at
// all) draw from shared process state that a resumed or re-sharded run
// cannot reproduce.
package seededrand

import (
	"repro/internal/analyze/forbid"
)

// Analyzer is the seededrand check. New, NewSource and NewZipf build seeded
// sources rather than drawing from the global one.
var Analyzer = forbid.New("seededrand",
	"forbid the global math/rand source (top-level rand.Intn, rand.Float64, rand.Shuffle, ..., and all "+
		"of math/rand/v2) in non-test code; randomness must flow from rand.New(rand.NewSource(seed)) with the "+
		"seed threaded from the request or campaign, or replays cannot reproduce the original bytes",
	"", "",
	forbid.Rule{Kind: forbid.Call, Pkg: "math/rand", Except: []string{"New", "NewSource", "NewZipf"},
		Msg: "rand.%s draws from the process-global math/rand source; thread the run seed through rand.New(rand.NewSource(seed)) instead"},
	forbid.Rule{Kind: forbid.Call, Pkg: "math/rand/v2",
		Msg: "math/rand/v2 %s uses a global source that cannot be seeded; use math/rand with an explicit rand.NewSource(seed)"},
)
