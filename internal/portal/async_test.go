package portal

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// holdFirst is a transport that parks the first request it sees until
// release is closed, so the job that sent it stays running.
type holdFirst struct {
	rt      http.RoundTripper
	once    sync.Once
	held    chan struct{} // closed once the first request is parked
	release chan struct{}
}

func (h *holdFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	first := false
	h.once.Do(func() { first = true })
	if first {
		close(h.held)
		<-h.release
	}
	return h.rt.RoundTrip(req)
}

// waitJob polls a job until it leaves JobRunning; every poll must succeed.
func waitJob(t *testing.T, p *Portal, id string) JobSnapshot {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		snap, err := p.JobStatus(id)
		if err != nil {
			t.Fatalf("polling %s: %v", id, err)
		}
		if snap.State != JobRunning {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", id)
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *Portal) jobCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.jobs)
}

// TestFinishedJobsAreBounded starts more jobs than maxFinishedJobs while one
// job is held running: the running job stays pollable throughout, the
// table keeps only the newest maxFinishedJobs finished jobs, and an evicted
// id answers JobStatus's unknown-job error.
func TestFinishedJobsAreBounded(t *testing.T) {
	hold := &holdFirst{held: make(chan struct{}), release: make(chan struct{})}
	f := newFixture(t, 2, func(c *Config) {
		hold.rt = c.HTTPClient.Transport
		c.HTTPClient = &http.Client{Transport: hold}
	})
	released := false
	defer func() {
		if !released {
			close(hold.release)
		}
	}()
	running, err := f.portal.StartAnalysis("COMA")
	if err != nil {
		t.Fatal(err)
	}
	<-hold.held

	const extra = 6
	var ids []string
	for i := 0; i < maxFinishedJobs+extra; i++ {
		id, err := f.portal.StartAnalysis("COMA")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if snap := waitJob(t, f.portal, id); snap.State != JobCompleted {
			t.Fatalf("job %s: %+v", id, snap)
		}
		if snap, err := f.portal.JobStatus(running); err != nil || snap.State != JobRunning {
			t.Fatalf("held job %s after %d finished: %+v, %v", running, i+1, snap, err)
		}
	}
	if n := f.portal.jobCount(); n != maxFinishedJobs+1 {
		t.Fatalf("%d job records, want %d finished + 1 running", n, maxFinishedJobs)
	}
	for i, id := range ids {
		_, err := f.portal.JobStatus(id)
		if evicted := i < extra; evicted != (err != nil) {
			t.Fatalf("job %d (%s): evicted %v, JobStatus error %v", i, id, evicted, err)
		}
		if err != nil && !strings.Contains(err.Error(), "unknown job") {
			t.Fatalf("evicted job %s: %v", id, err)
		}
	}

	close(hold.release)
	released = true
	if snap := waitJob(t, f.portal, running); snap.State != JobCompleted {
		t.Fatalf("held job: %+v", snap)
	}
	if n := f.portal.jobCount(); n != maxFinishedJobs {
		t.Fatalf("%d job records after the held job finished, want %d", n, maxFinishedJobs)
	}
	if _, err := f.portal.JobStatus(ids[extra]); err == nil {
		t.Fatalf("job %s finished longest ago and must have been evicted", ids[extra])
	}
}
