package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"dyndiam/internal/obs"
)

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	Kind   Kind   `json:"kind"`
	Params Params `json:"params"`
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// Handler builds the service's HTTP API:
//
//	POST /jobs             submit a job; 202 new, 200 duplicate,
//	                       400 invalid, 413 body over 64 KiB,
//	                       429 (+Retry-After) queue full
//	GET  /jobs             list all entries in submission order
//	GET  /jobs/{id}        one entry's status
//	GET  /jobs/{id}/result the stored result body (202 while pending,
//	                       500 for failed jobs)
//	GET  /metrics          Prometheus text exposition
//	GET  /healthz          liveness probe (200 while the process lives)
//	GET  /readyz           readiness probe (503 once draining begins)
//	GET  /debug/jobs       flight-recorder index (key, status, event counts)
//	GET  /debug/jobs/{id}  one job's flight recording: lifecycle events,
//	                       drop count, terminal metric snapshot
//	GET  /debug/jobs/{id}/trace  the same recording as Chrome trace-event
//	                       JSON (load in ui.perfetto.dev)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	mux.HandleFunc("GET /debug/jobs/{id}", s.handleDebugJob)
	mux.HandleFunc("GET /debug/jobs/{id}/trace", s.handleDebugJobTrace)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encoding a value we just built cannot fail, and the status line is
	// already out — nothing useful to do with an error here.
	_ = enc.Encode(v)
}

// maxSubmitBytes caps a POST /jobs body. The largest valid request (every
// list at its validation bound) is a few kilobytes.
const maxSubmitBytes = 64 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body over %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid request body: " + err.Error()})
		return
	}
	view, outcome, err := s.Submit(req.Kind, req.Params)
	if errors.Is(err, ErrDraining) {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	switch outcome {
	case SubmitNew:
		writeJSON(w, http.StatusAccepted, view)
	case SubmitDup:
		writeJSON(w, http.StatusOK, view)
	default: // SubmitRejected: queue full
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSec))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "job queue full; retry later"})
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{Jobs: s.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job key"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	body, view, ok := s.ResultBody(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job key"})
		return
	}
	switch view.Status {
	case StatusDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		// Stored bytes are served verbatim: byte-identical across fetches
		// and across deduplicated submissions.
		_, _ = w.Write(body)
	case StatusFailed:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: view.Err})
	default:
		writeJSON(w, http.StatusAccepted, view)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteMetricsText(w, s.MetricsRegistry())
}

// flightEventJSON is the wire form of one recorded event: the obs JSONL
// field layout with the interned name resolved.
type flightEventJSON struct {
	Kind  string `json:"kind"`
	T     int32  `json:"t"` // ms since server start (job lane) or cell index (sweep lane)
	Node  int32  `json:"node,omitempty"`
	Track int32  `json:"track"`
	A     int64  `json:"a"`
	B     int64  `json:"b,omitempty"`
	Name  string `json:"name,omitempty"`
}

func flightEventsJSON(events []obs.Event) []flightEventJSON {
	out := make([]flightEventJSON, len(events))
	for i, ev := range events {
		out[i] = flightEventJSON{
			Kind: ev.Kind.String(), T: ev.Round, Node: ev.Node,
			Track: ev.Track, A: ev.A, B: ev.B, Name: ev.Name.String(),
		}
	}
	return out
}

// debugJobSummary is one row of the flight-recorder index.
type debugJobSummary struct {
	Key     string `json:"key"`
	Kind    Kind   `json:"kind"`
	Status  Status `json:"status"`
	Events  int    `json:"events"`
	Dropped int    `json:"dropped"`
}

func (s *Server) handleDebugJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.order))
	rows := make([]debugJobSummary, 0, len(s.order))
	for _, key := range s.order {
		e := s.cache[key]
		entries = append(entries, e)
		rows = append(rows, debugJobSummary{Key: e.key, Kind: e.kind, Status: e.status})
	}
	s.mu.Unlock()
	for i, e := range entries {
		if e.flight != nil {
			events, dropped, _ := e.flight.snapshot()
			rows[i].Events, rows[i].Dropped = len(events), dropped
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []debugJobSummary `json:"jobs"`
	}{Jobs: rows})
}

// debugEntry resolves one flight-recorder entry, writing the error
// response itself when the key is unknown or recording is off.
func (s *Server) debugEntry(w http.ResponseWriter, r *http.Request) (*entry, JobView, bool) {
	s.mu.Lock()
	e, ok := s.cache[r.PathValue("id")]
	var view JobView
	if ok {
		view = e.view()
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job key"})
		return nil, JobView{}, false
	}
	if e.flight == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "flight recording disabled (FlightRecorderCap < 0)"})
		return nil, JobView{}, false
	}
	return e, view, true
}

func (s *Server) handleDebugJob(w http.ResponseWriter, r *http.Request) {
	e, view, ok := s.debugEntry(w, r)
	if !ok {
		return
	}
	events, dropped, metrics := e.flight.snapshot()
	writeJSON(w, http.StatusOK, struct {
		Job     JobView           `json:"job"`
		Events  []flightEventJSON `json:"events"`
		Dropped int               `json:"dropped"`
		Metrics []obs.MetricPoint `json:"metrics,omitempty"`
	}{Job: view, Events: flightEventsJSON(events), Dropped: dropped, Metrics: metrics})
}

func (s *Server) handleDebugJobTrace(w http.ResponseWriter, r *http.Request) {
	e, _, ok := s.debugEntry(w, r)
	if !ok {
		return
	}
	events, _, _ := e.flight.snapshot()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteChromeTrace(w, events)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is the readiness probe: 200 while the service accepts new
// jobs, 503 once a drain has begun. Liveness (/healthz) stays 200
// through the drain so an orchestrator unroutes the instance without
// killing it mid-run-down.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}
