// Package noclock forbids wall-clock reads in library and simulation
// code. The workflow stack executes on a model clock (the Condor
// simulator's virtual time), and the crash-recovery guarantee — a
// resumed run reproduces the original bytes — only holds if no code
// path observes how much real time has passed. A time.Now() buried in a
// validity check is exactly the bug class that let a resumed run
// diverge because a proxy credential expired between kill and resume.
// Wall-clock access must come through an injected `now func()
// time.Time` (see internal/myproxy.NewWithClock, webservice.Config.Now,
// portal.Config.Now), so tests and replays can pin it.
package noclock

import (
	"repro/internal/analyze/forbid"
)

// remedy closes every noclock diagnostic.
const remedy = "; simulated and resumable paths must use the model clock or an injected now func() time.Time"

// Analyzer is the noclock check. It bans the time-package functions that
// read or depend on the process wall clock, called or merely referenced:
// the injection-boundary defaults that legitimately hold a reference carry
// //nvolint:ignore reasons. Constructors like time.Date or time.Unix are
// pure and stay legal, and so do methods (t.After, t.Sub, ...): they
// compute on an already-obtained instant.
var Analyzer = forbid.New("noclock",
	"forbid wall-clock reads (time.Now, time.Since, time.Sleep, ...) in library and simulation code; "+
		"the model clock and injected now-functions are the only legal time sources, so kill/resume replays "+
		"and worker-width sweeps stay byte-identical",
	"", "comma-separated import paths exempt from the wall-clock ban",
	forbid.Rule{Kind: forbid.Ref, Pkg: "time", Names: []string{"Now", "Since", "Until"},
		Msg: "time.%s reads the wall clock" + remedy},
	forbid.Rule{Kind: forbid.Ref, Pkg: "time", Names: []string{"Sleep"},
		Msg: "time.%s blocks on the wall clock" + remedy},
	forbid.Rule{Kind: forbid.Ref, Pkg: "time", Names: []string{"After", "Tick", "NewTimer", "NewTicker"},
		Msg: "time.%s fires on the wall clock" + remedy},
)
