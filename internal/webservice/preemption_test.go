package webservice

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/fabric"
	"repro/internal/journal"
)

// preemptFabric builds a preemption-enabled fabric over pools with slots
// workflow slots (0 = unlimited): a higher-class admission while every slot
// runs a lower class forces a checkpoint-preempt.
func preemptFabric(t testing.TB, slots int, pools []condor.Pool) *fabric.Fabric {
	t.Helper()
	f, err := fabric.New(fabric.Config{
		Pools:               pools,
		MaxRunningWorkflows: slots,
		Preemption:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// intrude admits a high-priority one-shot workflow on f and releases its
// slot the moment it is granted, then signals done. The victim's requeued
// ticket wins the slot back immediately after.
func intrude(t *testing.T, f *fabric.Fabric, priority int) (fire func(), done chan struct{}) {
	t.Helper()
	done = make(chan struct{})
	fire = func() {
		tkt, err := f.Admit("urgent", priority)
		if err != nil {
			t.Errorf("intruder shed: %v", err)
			close(done)
			return
		}
		go func() {
			defer close(done)
			lease, err := tkt.Wait(context.Background())
			if err != nil {
				t.Errorf("intruder wait: %v", err)
				return
			}
			lease.Done(time.Second, false)
		}()
	}
	return fire, done
}

// TestPreemptedStateAndJournalMarker submits through the public API and
// checks the visible preemption surface: the status passes through
// StatePreempted, /stats counts the preemption, and the victim's journal
// carries the checkpoint marker.
func TestPreemptedStateAndJournalMarker(t *testing.T) {
	const n, idx = 2, 0
	dir := t.TempDir()
	f := preemptFabric(t, 1, gridPools())
	// The intruder holds its granted slot until the test has observed the
	// victim in StatePreempted, so the checkpoint-stopped state is visible
	// for as long as the higher class actually runs — no polling race.
	granted := make(chan *fabric.Lease, 1)
	fire := func() {
		tkt, err := f.Admit("urgent", 5)
		if err != nil {
			t.Errorf("intruder shed: %v", err)
			return
		}
		go func() {
			lease, err := tkt.Wait(context.Background())
			if err != nil {
				t.Errorf("intruder wait: %v", err)
				return
			}
			granted <- lease
		}()
	}
	saw := map[State]bool{}
	trig := &sweepTrigger{cuts: []*cut{{after: 4, fire: fire}}}
	h := newGrid(t, multiSpecs(n), func(c *Config) {
		c.JournalDir = dir
		c.Fabric = f
		c.WrapJournal = trig.wrap
	})
	name := h.clusters[idx].Name
	id, err := h.svc.SubmitFor(h.inputTableFor(t, idx), name, RequestOptions{Tenant: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	// Record every state the request passes through while it runs, releasing
	// the intruder once the preempted state has been seen.
	var intruder *fabric.Lease
	for {
		st, err := h.svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		saw[st.State] = true
		if intruder == nil {
			select {
			case intruder = <-granted:
			default:
			}
		}
		if intruder != nil && st.State == StatePreempted {
			intruder.Done(time.Second, false)
			intruder = nil
		}
		if st.State != StateRunning && st.State != StateQueued && st.State != StatePreempted {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// If the workflow finished before the intruder was ever granted (or the
	// grant arrived after the loop), release the slot now.
	if intruder == nil {
		select {
		case intruder = <-granted:
		case <-time.After(time.Second):
		}
	}
	if intruder != nil {
		intruder.Done(time.Second, false)
	}
	st, err := h.svc.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCompleted {
		t.Fatalf("victim ended %s (%s), want completed", st.State, st.Message)
	}
	if st.Stats.Preemptions == 0 {
		t.Fatal("completed victim reports zero preemptions")
	}
	if !saw[StatePreempted] {
		t.Error("status never showed StatePreempted while checkpoint-stopped")
	}
	recs, _, err := journal.Replay(filepath.Join(dir, "victim__"+name+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	marker := false
	for _, r := range recs {
		if r.Kind == journal.KindPreempted {
			marker = true
		}
	}
	if !marker {
		t.Error("journal carries no preempted checkpoint marker")
	}
	if _, ended := journal.Ended(recs); !ended {
		t.Error("journal of the completed victim has no end record")
	}
	fleet := h.svc.Fabric().Snapshot()
	if fleet.Preempted == 0 || fleet.Requeued == 0 {
		t.Errorf("fleet counters missed the preemption: %+v", fleet)
	}
}
