package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"github.com/atomic-dataflow/atomicflow"
	"github.com/atomic-dataflow/atomicflow/internal/obs"
	"github.com/atomic-dataflow/atomicflow/internal/obs/dash"
)

// StatusClientClosedRequest reports a waiter whose client went away
// before the solve finished (nginx's 499 convention; net/http has no
// name for it).
const StatusClientClosedRequest = 499

// Handler mounts the service endpoints:
//
//	POST /solve     orchestrate a workload, returning the solution JSON
//	GET  /healthz   liveness + queue/worker/cache occupancy
//	GET  /metrics   Prometheus text exposition of the serving metrics
//	GET  /metrics.json  JSON snapshot of the same registry
//	GET  /debug/dash    the live fleet dashboard (embedded web UI)
//	GET  /debug/dash/state.json     active solves + fleet gauges
//	GET  /debug/dash/sessions.json  recent session history
//	GET  /debug/dash/events         server-sent-event stream
//	     /debug/pprof/  the standard Go profiling endpoints
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/healthz", s.handleHealthz)
	obsH := obs.Handler(s.reg)
	// Uptime is refreshed at scrape time rather than by a ticker: the
	// gauge is exact whenever anyone reads it and costs nothing between
	// scrapes.
	metricsH := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.uptime.Set(time.Since(s.started).Seconds())
		obsH.ServeHTTP(w, r)
	})
	mux.Handle("/metrics", metricsH)
	mux.Handle("/metrics.json", metricsH)
	mux.Handle("/debug/pprof/", obsH)
	dashH := dash.Handler(s.dash, s.reg)
	dashW := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.uptime.Set(time.Since(s.started).Seconds())
		dashH.ServeHTTP(w, r)
	})
	mux.Handle("/debug/dash", dashW)
	mux.Handle("/debug/dash/", dashW)
	return mux
}

// maxBodyBytes bounds the /solve request body.
const maxBodyBytes = 8 << 20

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	span := obs.StartSpan(s.m.reqLatency)
	defer span.End()
	s.m.requests.Inc()
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST a solve request")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}
	req, err := ParseRequest(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	res, src, fl, err := s.lookup(req)
	switch {
	case err == nil && res != nil:
		s.writeResult(w, res, src)
		return
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, "admission queue full")
		return
	case errors.Is(err, errDraining):
		s.writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}

	// Wait for the flight under this request's deadline: the server
	// default, tightened by a request-supplied timeout_ms. Compare in
	// milliseconds first: a huge timeout_ms would overflow Duration.
	ctx := r.Context()
	timeout := s.cfg.requestTimeout()
	if req.TimeoutMS > 0 && req.TimeoutMS <= timeout.Milliseconds() {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	var cancel context.CancelFunc
	ctx, cancel = context.WithTimeout(ctx, timeout)
	defer cancel()

	select {
	case <-fl.done:
		if fl.err != nil {
			s.writeSolveError(w, fl.err)
			return
		}
		s.writeResult(w, fl.res, "miss")
	case <-ctx.Done():
		s.abandon(req.Key(), fl)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded before the solve finished")
		} else {
			s.writeError(w, StatusClientClosedRequest, "client closed request")
		}
	}
}

// writeSolveError maps an orchestration failure onto an HTTP status: a
// cancelled or expired search is the server's fault (504 during drain
// timeout / abandoned flights), a well-formed graph with nothing to
// execute is the client's (422), and anything else is a plain 500.
func (s *Server) writeSolveError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, atomicflow.ErrNothingToExecute):
		code = http.StatusUnprocessableEntity
	}
	s.writeError(w, code, err.Error())
}

func (s *Server) writeResult(w http.ResponseWriter, res *solveResult, status string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Adserve-Cache", status)
	w.Header().Set("X-Adserve-Digest", res.digest)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res.body)
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	inflight := len(s.flights)
	s.mu.Unlock()
	status, code := "ok", http.StatusOK
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"workers":        s.cfg.workers(),
		"workers_busy":   s.busyCount.Load(),
		"queue_depth":    len(s.queue),
		"queue_capacity": s.cfg.queueDepth(),
		"flights":        inflight,
		"cache_entries":  s.cache.len(),
		"uptime_ms":      time.Since(s.started).Milliseconds(),
	})
}
