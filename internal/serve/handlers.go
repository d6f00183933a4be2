package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
)

// admissionError is a client-visible rejection with its HTTP status.
type admissionError struct {
	status int
	msg    string
}

func (e *admissionError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &admissionError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

var errDraining = &admissionError{status: http.StatusServiceUnavailable, msg: "server is draining"}

// errQueueFullFor is the per-tenant 429: only the flooding tenant's
// requests see it, and the message says whose quota is exhausted.
func errQueueFullFor(tenant string) error {
	label := tenant
	if label == "" {
		label = "default"
	}
	return &admissionError{
		status: http.StatusTooManyRequests,
		msg:    fmt.Sprintf("job queue full for tenant %q, retry later", label),
	}
}

// maxRequestBytes bounds a POST body; model text has no business being
// larger.
const maxRequestBytes = 8 << 20

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs              submit a job (?wait=1 blocks until it settles)
//	POST   /v1/discover          submit a guide-discovery job (same job lifecycle)
//	GET    /v1/jobs/{id}         job record, with report once settled
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/jobs/{id}/events  SSE stream: progress events, then `done`
//	GET    /v1/status            queue/worker/cache health
//	GET    /v1/healthz           liveness ("ok", or "draining" during drain)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/discover", s.handleDiscover)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// StatusVar returns the live status as an expvar.Var, for callers that
// want it on their debug mux: expvar.Publish("mcserve", srv.StatusVar()).
// (The server does not publish globally itself — expvar registration is
// process-wide and would collide across servers, e.g. in tests.)
func (s *Server) StatusVar() expvar.Var {
	return expvar.Func(func() any { return s.Status() })
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	body := io.LimitReader(r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, badRequestf("bad request body: %v", err))
		return
	}
	req.tenant = r.Header.Get("X-Tenant")
	job, err := s.submit(&req)
	if err != nil {
		httpError(w, err)
		return
	}
	s.respondSubmitted(w, r, job)
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	var req DiscoverRequest
	body := io.LimitReader(r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, badRequestf("bad request body: %v", err))
		return
	}
	req.tenant = r.Header.Get("X-Tenant")
	job, err := s.submitDiscover(&req)
	if err != nil {
		httpError(w, err)
		return
	}
	s.respondSubmitted(w, r, job)
}

// respondSubmitted finishes a submission response: optional ?wait=1
// blocking, the Location of the job record, and the job body with 202
// (queued/running) or 200 (settled).
func (s *Server) respondSubmitted(w http.ResponseWriter, r *http.Request, job *Job) {
	status := http.StatusAccepted
	if r.URL.Query().Get("wait") != "" {
		job.wait(r.Context())
		status = http.StatusOK
	} else if st, _ := job.snapshot(); st == JobDone {
		status = http.StatusOK // cache hit: settled at admission
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, status, jobJSON(job))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, &admissionError{http.StatusNotFound, "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, jobJSON(job))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, &admissionError{http.StatusNotFound, "no such job"})
		return
	}
	job.cancel()
	s.logf("job %s: canceled by client", job.ID)
	writeJSON(w, http.StatusOK, jobJSON(job))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func httpError(w http.ResponseWriter, err error) {
	var ae *admissionError
	status := http.StatusInternalServerError
	if errors.As(err, &ae) {
		status = ae.status
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(w, `{"error": %q}`, err.Error())
		return
	}
	w.Write(append(data, '\n'))
}
