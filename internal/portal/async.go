package portal

import (
	"fmt"
	"sort"
)

// The paper's portal "operates in real-time with the multiple NVO services,
// waiting until all processing is done ... This synchronous behavior
// demonstrates a limitation of the portal as this processing can take up to
// a few hours; clearly an asynchronous response would be helpful." This file
// implements that asynchronous response: StartAnalysis returns a job ticket
// immediately; JobStatus reports progress (streamed from the compute
// service's DAGMan monitoring) until the result is ready.

// JobState is an asynchronous analysis job's lifecycle state.
type JobState string

// Job states.
const (
	JobRunning   JobState = "running"
	JobCompleted JobState = "completed"
	JobFailed    JobState = "failed"
)

// JobSnapshot is a point-in-time view of an asynchronous analysis.
type JobSnapshot struct {
	ID        string
	Cluster   string
	State     JobState
	Message   string
	JobsDone  int // Grid workflow progress, from the compute service
	JobsTotal int
	// Result is set once State == JobCompleted.
	Result *AnalysisResult
}

type jobRecord struct {
	snap JobSnapshot
	// done is closed when the background analysis goroutine exits: the
	// completion signal a portal teardown joins on (goleak requires one of
	// every goroutine).
	done chan struct{}
}

// StartAnalysis launches the Figure 5 flow in the background and returns a
// job ID the caller polls with JobStatus. The submission carries
// Config.Priority as its fabric scheduling class.
func (p *Portal) StartAnalysis(cluster string) (string, error) {
	return p.StartAnalysisAt(cluster, p.cfg.Priority)
}

// StartAnalysisAt is StartAnalysis with an explicit fabric scheduling class.
func (p *Portal) StartAnalysisAt(cluster string, priority int) (string, error) {
	if _, err := p.Cluster(cluster); err != nil {
		return "", err
	}
	p.mu.Lock()
	p.nextJob++
	id := fmt.Sprintf("job-%06d", p.nextJob)
	if p.jobs == nil {
		p.jobs = map[string]*jobRecord{}
	}
	rec := &jobRecord{
		snap: JobSnapshot{ID: id, Cluster: cluster, State: JobRunning, Message: "accepted"},
		done: make(chan struct{}),
	}
	p.jobs[id] = rec
	p.mu.Unlock()

	go func() {
		defer close(rec.done)
		res, err := p.analyzeWithProgress(cluster, priority, func(done, total int) {
			p.mu.Lock()
			rec.snap.JobsDone = done
			rec.snap.JobsTotal = total
			p.mu.Unlock()
		})
		p.mu.Lock()
		defer p.mu.Unlock()
		if err != nil {
			rec.snap.State = JobFailed
			rec.snap.Message = err.Error()
			return
		}
		rec.snap.State = JobCompleted
		rec.snap.Message = "analysis complete"
		rec.snap.Result = res
	}()
	return id, nil
}

// JobStatus returns a snapshot of an asynchronous analysis.
func (p *Portal) JobStatus(id string) (JobSnapshot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.jobs[id]
	if !ok {
		return JobSnapshot{}, fmt.Errorf("portal: unknown job %q", id)
	}
	return rec.snap, nil
}

// Jobs lists all known job IDs, newest first.
func (p *Portal) Jobs() []JobSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]JobSnapshot, 0, len(p.jobs))
	for _, rec := range p.jobs {
		out = append(out, rec.snap)
	}
	// Newest first by ID (ids are zero-padded and monotone).
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}
