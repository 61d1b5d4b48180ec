package webservice

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/fabric"
	"repro/internal/votable"
)

// ServiceStats is the observability snapshot /stats returns: cumulative
// request-level accounting (for requests made through Submit) plus the live
// catalog and cache counters the throughput work optimizes, plus the
// fabric's fleet-wide admission/fair-share counters.
type ServiceStats struct {
	Requests  int
	Completed int
	Failed    int

	// Fleet is the fabric's admission-control and fair-share snapshot:
	// admitted/shed/queued/running fleet-wide and per tenant, with each
	// tenant's charged model time and fair-share debt.
	Fleet fabric.FleetSnapshot

	RLSRoundTrips      int64 // catalog read round trips since process start
	ReplicaCacheHits   int64
	ReplicaCacheMisses int64

	BytesStaged       int64
	PlannedBytesMoved int64
	ScheduleEvents    int
	ClusteredTasks    int
	ClusteredNodes    int
	MemoHits          int
	MemoMisses        int
}

// Stats aggregates the service-level counters across all requests.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out ServiceStats
	for _, st := range s.requests {
		out.Requests++
		switch st.State {
		case StateCompleted:
			out.Completed++
		case StateFailed:
			out.Failed++
		}
		out.BytesStaged += st.Stats.BytesStaged
		out.PlannedBytesMoved += st.Stats.PlannedBytesMoved
		out.ScheduleEvents += st.Stats.ScheduleEvents
		out.ClusteredTasks += st.Stats.ClusteredTasks
		out.ClusteredNodes += st.Stats.ClusteredNodes
		out.MemoHits += st.Stats.MemoHits
		out.MemoMisses += st.Stats.MemoMisses
	}
	out.RLSRoundTrips = s.cfg.RLS.RoundTrips()
	out.ReplicaCacheHits, out.ReplicaCacheMisses = s.replicas.Stats()
	out.Fleet = s.cfg.Fabric.Snapshot()
	return out
}

// maxRequestBody caps a /galmorph upload. The largest table the tests submit
// is the 1,000-galaxy survey catalog (survey_test.go): 524,786 bytes as a
// VOTable, about 525 a galaxy. 8 MiB is sixteen of those; a larger upload is
// answered 413 before anything is admitted.
const maxRequestBody = 8 << 20

// writeShed answers an admission the fabric shed. Overload shedding is
// deterministic and typed: the response tells the client whether its own
// quota (429) or the fleet (503) refused it, and when to come back. It
// reports false, writing nothing, for any other error.
func writeShed(w http.ResponseWriter, err error) bool {
	shed, ok := fabric.AsShed(err)
	if !ok {
		return false
	}
	secs := max(1, int((shed.RetryAfter+time.Second-1)/time.Second))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, err.Error(), shed.HTTPStatus)
	return true
}

// Handler exposes the compute service over HTTP, following the asynchronous
// protocol of §4.3: the submission response carries the status URL; the
// client polls it until a "job completed" message appears together with the
// result URL.
//
//	POST /galmorph?cluster=NAME[&tenant=T&priority=N]  -> text: status URL path
//	                              body: VOTable
//	       202 Accepted: admitted (running or queued under fair share)
//	       413: body larger than maxRequestBody
//	       429 + Retry-After: tenant over its workflow-queue quota
//	       503 + Retry-After: fabric queue full or shutting down
//	GET  /status?id=req-000001                        -> JSON Status
//	GET  /result?lfn=NAME.vot                          -> VOTable
//	POST /cancel?id=req-000001                         -> 202 Accepted
//	POST /requeue?id=req-000001                        -> 202 Accepted
//	       re-admits a failed journaled request under its original tenant
//	       and priority and resumes it from its journal; shed like a fresh
//	       submission (429/503 + Retry-After) when over quota
//	GET  /stats                                        -> JSON ServiceStats
//	       includes the fabric's preemption counters (Preempted/Requeued)
//
// With Config.EnablePprof set, the standard net/http/pprof profiling
// endpoints are also mounted under /debug/pprof/.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/stats", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Stats())
	})

	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	mux.HandleFunc("/galmorph", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		cluster := req.URL.Query().Get("cluster")
		if cluster == "" {
			http.Error(w, "missing cluster", http.StatusBadRequest)
			return
		}
		tab, err := votable.ReadTable(http.MaxBytesReader(w, req.Body, maxRequestBody))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				http.Error(w, fmt.Sprintf("VOTable exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "bad VOTable: "+err.Error(), http.StatusBadRequest)
			return
		}
		priority, _ := strconv.Atoi(req.URL.Query().Get("priority"))
		id, err := s.SubmitFor(tab, cluster, RequestOptions{
			Tenant:   req.URL.Query().Get("tenant"),
			Priority: priority,
		})
		if err != nil {
			if !writeShed(w, err) {
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "/status?id=%s", id)
	})

	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
		st, err := s.Status(req.URL.Query().Get("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		resp := struct {
			Status
			ResultURL string `json:",omitempty"`
		}{Status: st}
		if st.State == StateCompleted {
			resp.ResultURL = "/result?lfn=" + st.ResultLFN
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})

	mux.HandleFunc("/cancel", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if err := s.Cancel(req.URL.Query().Get("id")); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})

	mux.HandleFunc("/requeue", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if err := s.Requeue(req.URL.Query().Get("id")); err != nil {
			switch {
			case writeShed(w, err):
			case errors.Is(err, ErrNotFound):
				http.Error(w, err.Error(), http.StatusNotFound)
			default:
				http.Error(w, err.Error(), http.StatusConflict)
			}
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})

	mux.HandleFunc("/result", func(w http.ResponseWriter, req *http.Request) {
		lfn := req.URL.Query().Get("lfn")
		if lfn == "" {
			http.Error(w, "missing lfn", http.StatusBadRequest)
			return
		}
		tab, err := s.ResultTable(lfn)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/xml")
		_ = votable.WriteTable(w, tab)
	})

	return mux
}
