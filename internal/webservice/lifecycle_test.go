package webservice

import (
	"strings"
	"testing"
)

// TestLifecycleTable enumerates every state × event pair. The legal pairs
// are listed here with the (State, Message) they publish — the strings the
// status URL has always carried; every other pair must be refused as a bug,
// leaving the status untouched.
func TestLifecycleTable(t *testing.T) {
	const failure = "webservice: workflow failed: 1 failed, 2 unrun"
	const before = "message before the event"
	type pair struct {
		from State
		ev   event
	}
	type outcome struct {
		to  State
		msg string
	}
	legal := map[pair]outcome{
		{"", evQueued}:  {StateQueued, "queued for fair-share scheduling"},
		{"", evGranted}: {StateRunning, "accepted"},

		{StateQueued, evGranted}: {StateRunning, "running"},
		{StateQueued, evResumed}: {StateRunning, "requeued: resuming from journal"},
		{StateQueued, evFailed}:  {StateFailed, failure},

		{StateRunning, evGranted}:   {StateRunning, before},
		{StateRunning, evResumed}:   {StateRunning, before},
		{StateRunning, evPreempted}: {StatePreempted, "preempted: checkpoint-stopped, requeued for fair-share scheduling"},
		{StateRunning, evCompleted}: {StateCompleted, "job completed"},
		{StateRunning, evFailed}:    {StateFailed, failure},

		{StatePreempted, evResumed}: {StateRunning, "resumed after preemption"},
		{StatePreempted, evFailed}:  {StateFailed, failure},

		{StateFailed, evRequeued}: {StateQueued, "requeued for fair-share scheduling"},
	}
	seen := 0
	for _, from := range []State{"", StateQueued, StateRunning, StatePreempted, StateCompleted, StateFailed} {
		for _, ev := range []event{evQueued, evGranted, evResumed, evPreempted, evCompleted, evFailed, evRequeued} {
			st := Status{ID: "req-000001", State: from, Message: before}
			var bug any
			func() {
				defer func() { bug = recover() }()
				st.apply(ev, failure)
			}()
			want, ok := legal[pair{from, ev}]
			if !ok {
				if bug == nil || !strings.Contains(bug.(string), "BUG") {
					t.Errorf("%q × %s: illegal pair was applied (now %q, %q), want it reported as a bug", from, ev, st.State, st.Message)
				}
				if st.State != from || st.Message != before {
					t.Errorf("%q × %s: refused pair still wrote the status: %q, %q", from, ev, st.State, st.Message)
				}
				continue
			}
			seen++
			if bug != nil {
				t.Errorf("%q × %s: legal pair refused: %v", from, ev, bug)
				continue
			}
			if st.State != want.to || st.Message != want.msg {
				t.Errorf("%q × %s = (%q, %q), want (%q, %q)", from, ev, st.State, st.Message, want.to, want.msg)
			}
		}
	}
	if seen != len(legal) {
		t.Errorf("enumerated %d legal pairs, the test lists %d", seen, len(legal))
	}
}
