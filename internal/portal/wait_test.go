package portal

import (
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/webservice"
)

// statusGETs is a RoundTripper that counts the /status GETs through it and
// tells each start on starts, whose buffer holds more starts than a request
// of these tests makes (a dozen), so a start the test does not wait for
// never blocks the portal.
type statusGETs struct {
	next   http.RoundTripper
	n      atomic.Int32
	starts chan struct{}
}

func (c *statusGETs) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/status" {
		c.n.Add(1)
		c.starts <- struct{}{}
	}
	return c.next.RoundTrip(req)
}

// countStatusGETs routes the portal's requests through a statusGETs.
func countStatusGETs(c *Config) *statusGETs {
	ct := &statusGETs{next: c.HTTPClient.Transport, starts: make(chan struct{}, 1024)}
	hc := *c.HTTPClient
	hc.Transport = ct
	c.HTTPClient = &hc
	return ct
}

// analyzeAsync runs Analyze("COMA") in the background; the channel carries
// its error.
func analyzeAsync(p *Portal) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := p.Analyze("COMA")
		done <- err
	}()
	return done
}

// holdLast is a journal sink that holds the request's last job: the
// completion record that brings the journal's count to JobsTotal waits,
// before it reaches the writer, until release is closed. n is the number of
// /status GETs started when it began to hold.
type holdLast struct {
	journal.Sink
	svc            *webservice.Service
	gets           *statusGETs
	done, n        int
	held, released chan struct{}
}

func (h *holdLast) Append(rec journal.Record) error {
	if rec.Kind == journal.KindCompleted {
		h.done++
		if st, err := h.svc.Status("req-000001"); err == nil && h.done == st.JobsTotal {
			h.n = int(h.gets.n.Load())
			close(h.held)
			<-h.released
		}
	}
	return h.Sink.Append(rec)
}

// TestPortalLearnsCompletionFromTheWaitingPoll: a request held at its last
// job, through a channel, is released while a /status GET that started
// during the hold waits; that GET carries the completion, so the portal
// returns without starting another poll. The plan's last job is not a
// progress step of its own (at least 16 jobs, so a step of 1/8 is two or more), so
// only the end of the request can answer the waiting GET.
func TestPortalLearnsCompletionFromTheWaitingPoll(t *testing.T) {
	var gets *statusGETs
	hold := &holdLast{held: make(chan struct{}), released: make(chan struct{})}
	f := newFixture(t, 12, func(c *Config) { gets = countStatusGETs(c) }, func(c *webservice.Config) {
		c.JournalDir = t.TempDir()
		c.WrapJournal = func(_, _ string, sink journal.Sink) journal.Sink {
			hold.Sink = sink
			return hold
		}
	})
	hold.svc, hold.gets = f.svc, gets
	done := analyzeAsync(f.portal)
	select {
	case <-hold.held:
	case err := <-done:
		t.Fatalf("Analyze returned %v before the last job was held", err)
	}
	if st, err := f.svc.Status("req-000001"); err != nil || st.JobsTotal < 16 {
		close(hold.released)
		t.Fatalf("held request %+v, %v: want a plan of at least 16 jobs, whose last job is not a progress step of its own", st, err)
	}
	for int(gets.n.Load()) <= hold.n {
		<-gets.starts
	}
	atRelease := gets.n.Load()
	close(hold.released)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := gets.n.Load(); n != atRelease {
		t.Errorf("the portal started %d /status GETs after the release; want the waiting one to carry the completion", n-atRelease)
	}
}

// TestPortalPollsDoNotGrowWithWallTime: a request queued on a held fabric,
// then released, costs the portal a bounded number of /status GETs: none
// starts while the fabric holds the request, and the whole request takes
// no more than its state changes and progress steps (8) and the first
// answer.
func TestPortalPollsDoNotGrowWithWallTime(t *testing.T) {
	var gets *statusGETs
	f := newFixture(t, 12, func(c *Config) { gets = countStatusGETs(c) })
	f.svc.Fabric().Hold()
	done := analyzeAsync(f.portal)
	// The first GET answers at once (queued); the second waits on it.
	for gets.n.Load() < 2 {
		<-gets.starts
	}
	select {
	case <-gets.starts:
		t.Errorf("a /status GET started while the request was held in the queue")
	case <-time.After(300 * time.Millisecond):
	}
	f.svc.Fabric().Unhold()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	const bound = 8 + 4 // progress steps; queued, running and completed; the first answer
	if n := gets.n.Load(); n > bound {
		t.Errorf("a held request cost the portal %d /status GETs; want at most %d", n, bound)
	}
	t.Logf("/status GETs of a request held 300 ms in the queue: %d", gets.n.Load())
}

// paced is a journal sink that holds each job's completion record for a
// millisecond, so a request's jobs finish no faster than the portal's
// /status GETs answer and every progress step is a GET of its own.
type paced struct{ journal.Sink }

func (p paced) Append(rec journal.Record) error {
	if rec.Kind == journal.KindCompleted {
		time.Sleep(time.Millisecond)
	}
	return p.Sink.Append(rec)
}

// TestWavePollsMatchMonolithic: the same request in wave mode costs the
// portal at most two /status GETs more than without waves. A waiting GET
// steps by the jobs the first wave implies for the whole request, not by
// JobsTotal, which grows as each wave is planned and would shrink the
// step with it.
func TestWavePollsMatchMonolithic(t *testing.T) {
	count := func(waveSize int) int32 {
		var gets *statusGETs
		f := newFixture(t, 48, func(c *Config) { gets = countStatusGETs(c) }, func(c *webservice.Config) {
			c.WaveSize = waveSize
			c.JournalDir = t.TempDir()
			c.WrapJournal = func(_, _ string, sink journal.Sink) journal.Sink { return paced{sink} }
		})
		if _, err := f.portal.Analyze("COMA"); err != nil {
			t.Fatal(err)
		}
		st, err := f.svc.Status("req-000001")
		if err != nil {
			t.Fatal(err)
		}
		if waveSize > 0 && st.Stats.Waves < 3 {
			t.Fatalf("wave request ran %d waves; want at least 3", st.Stats.Waves)
		}
		return gets.n.Load()
	}
	mono, waves := count(0), count(6)
	if waves > mono+2 {
		t.Errorf("/status GETs: %d in wave mode, %d without waves; want at most 2 more", waves, mono)
	}
	t.Logf("/status GETs: %d without waves, %d in waves of 6", mono, waves)
}
