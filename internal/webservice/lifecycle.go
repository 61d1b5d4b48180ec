package webservice

import "fmt"

// State is a request's lifecycle state.
type State string

// Request states published on the status URL.
const (
	// StateQueued means the request was admitted but is waiting for the
	// fabric's fair-share scheduler to grant it a workflow slot.
	StateQueued State = "queued"
	// StatePreempted means the fabric revoked the workflow's slot for a
	// higher-priority class: the run checkpoint-stopped at a journal event
	// boundary and is back in the queue, resuming from its journal when a
	// slot is granted again.
	StatePreempted State = "preempted"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
)

// event is what moves a request through its lifecycle.
type event string

const (
	// evQueued: admitted, waiting for a fair-share slot.
	evQueued event = "queued"
	// evGranted: the fabric granted a slot to a fresh leg.
	evGranted event = "granted"
	// evResumed: the fabric granted a slot to a leg that resumes the
	// request's journal, after a preemption or an operator requeue. It is an
	// event of its own because the status message of a request leaving the
	// queue says which kind of leg it starts.
	evResumed event = "resumed"
	// evPreempted: the fabric revoked the slot; the leg checkpoint-stopped
	// and the request is back in the queue.
	evPreempted event = "preempted"
	// evCompleted: the last leg finished and the output is registered.
	evCompleted event = "completed"
	// evFailed: a leg failed for a real reason, or the request was canceled
	// while running or waiting. Its message is the error text.
	evFailed event = "failed"
	// evRequeued: an operator put a failed request back in the queue.
	evRequeued event = "requeued"
)

// lifecycle is the request lifecycle table: in state from, event ev leads to
// state to and publishes msg ("" keeps the current message; evFailed
// publishes its error text). The zero State is a record being created. A
// pair without a row cannot happen. A slot that admission granted
// synchronously is observed twice — by the entry point, then by run — so
// a grant in StateRunning is legal and changes nothing.
var lifecycle = []struct {
	from State
	ev   event
	to   State
	msg  string
}{
	{"", evQueued, StateQueued, "queued for fair-share scheduling"},
	{"", evGranted, StateRunning, "accepted"},
	{StateQueued, evGranted, StateRunning, "running"},
	{StateQueued, evResumed, StateRunning, "requeued: resuming from journal"},
	{StateQueued, evFailed, StateFailed, ""}, // canceled while queued
	{StateRunning, evGranted, StateRunning, ""},
	{StateRunning, evResumed, StateRunning, ""},
	{StateRunning, evPreempted, StatePreempted, "preempted: checkpoint-stopped, requeued for fair-share scheduling"},
	{StateRunning, evCompleted, StateCompleted, "job completed"},
	{StateRunning, evFailed, StateFailed, ""},
	{StatePreempted, evResumed, StateRunning, "resumed after preemption"},
	{StatePreempted, evFailed, StateFailed, ""}, // canceled while requeued
	{StateFailed, evRequeued, StateQueued, "requeued for fair-share scheduling"},
}

// apply moves the request through the lifecycle table; it is the only code
// that writes State and Message. errText is evFailed's message. An event the
// table has no row for in the current state is a bug and panics. The caller
// holds the request record's lock.
func (st *Status) apply(ev event, errText string) {
	for _, row := range lifecycle {
		if row.from != st.State || row.ev != ev {
			continue
		}
		st.State = row.to
		switch {
		case ev == evFailed:
			st.Message = errText
		case row.msg != "":
			st.Message = row.msg
		}
		return
	}
	panic(fmt.Sprintf("webservice: BUG: request %s: event %q is illegal in state %q", st.ID, ev, st.State))
}
