package portal

import "fmt"

// The paper's portal "operates in real-time with the multiple NVO services,
// waiting until all processing is done ... This synchronous behavior
// demonstrates a limitation of the portal as this processing can take up to
// a few hours; clearly an asynchronous response would be helpful." This file
// implements that asynchronous response: StartAnalysis returns a job ticket
// immediately; JobStatus reports progress (streamed from the compute
// service's DAGMan monitoring) until the result is ready, and the result
// for as long as the job is among the last maxFinishedJobs to finish.

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

// maxFinishedJobs bounds the finished jobs the portal keeps for JobStatus.
// Each holds its whole merged result table, so a long-running portal keeps
// only the most recent ones: when a job finishes past the bound, the job
// that finished longest ago is dropped and its id becomes unknown. A
// running job is never dropped.
const maxFinishedJobs = 64

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
	return p.startAnalysis(cluster, p.cfg.Priority)
}

// startAnalysis is StartAnalysis with an explicit fabric scheduling class.
func (p *Portal) startAnalysis(cluster string, priority int) (string, error) {
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
		p.finishJob(rec, res, err)
	}()
	return id, nil
}

// finishJob records a job's outcome and drops the oldest finished jobs past
// maxFinishedJobs.
func (p *Portal) finishJob(rec *jobRecord, res *AnalysisResult, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		rec.snap.State = JobFailed
		rec.snap.Message = err.Error()
	} else {
		rec.snap.State = JobCompleted
		rec.snap.Message = "analysis complete"
		rec.snap.Result = res
	}
	p.finished = append(p.finished, rec.snap.ID)
	if over := len(p.finished) - maxFinishedJobs; over > 0 {
		for _, id := range p.finished[:over] {
			delete(p.jobs, id)
		}
		p.finished = append(p.finished[:0], p.finished[over:]...)
	}
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
