package service

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"yap/internal/jobs"
	"yap/internal/replica"
	"yap/internal/resilience"
	"yap/internal/sim"
)

// This file is the service's error contract. Every failure a handler does
// not answer at its own call site (input validation keeps its literal
// writeError answers) goes through writeFailure, which looks the error up
// in one ordered table. An error the table names is a classified
// condition: a shed, a deadline, a cancellation, a cluster transition or a
// request the engine refused. An error it does not name is the server's
// own fault, answered 500 "internal", and it is exactly such an error that
// counts against the simulate circuit breaker.

// failure is one entry of the contract: the sentinels it matches (with
// errors.Is), the HTTP status and the wire detail. An empty Message takes
// the error's own text, so a handler names the job by wrapping the error.
type failure struct {
	errs   []error
	status int
	detail ErrorDetail
}

// failures is matched in order; the first entry with a matching sentinel
// answers. Every "overloaded" answer also carries the back-off hint and
// counts as a shed, and "not_leader" names the leader when one is known
// (see writeFailure).
var failures = []failure{
	{[]error{jobs.ErrNotLeader}, http.StatusConflict, ErrorDetail{Code: "not_leader",
		Message: "this node is a follower; submit mutations to the leader"}},
	{[]error{resilience.ErrBreakerOpen}, http.StatusServiceUnavailable, ErrorDetail{Code: "overloaded",
		Message: "simulation circuit breaker open; retry later"}},
	{[]error{resilience.ErrOverloaded, jobs.ErrQueueFull}, http.StatusServiceUnavailable, ErrorDetail{Code: "overloaded",
		Message: "queue full; retry later"}},
	{[]error{resilience.ErrShutdown, jobs.ErrClosed, replica.ErrClosed}, http.StatusServiceUnavailable, ErrorDetail{Code: "overloaded",
		Message: "server is shutting down"}},
	{[]error{replica.ErrNoQuorum}, http.StatusServiceUnavailable, ErrorDetail{Code: "no_quorum",
		Message: "the submit was not acknowledged by a quorum of replicas and was annulled; retry later"}},
	// Leadership moved while the submit awaited quorum: a transient cluster
	// condition, so the client retries against the new leader.
	{[]error{replica.ErrDeposed}, http.StatusServiceUnavailable, ErrorDetail{Code: "leadership_lost",
		Message: "leadership changed while the submit awaited quorum acknowledgement; the submission was annulled — retry"}},
	{[]error{context.DeadlineExceeded}, http.StatusServiceUnavailable, ErrorDetail{Code: "deadline_exceeded",
		Message: "the request exceeded the server's deadline; reduce samples or raise the server timeout"}},
	{[]error{context.Canceled}, statusClientClosedRequest, ErrorDetail{Code: "canceled",
		Message: "client canceled the request"}},
	{[]error{jobs.ErrNotFound}, http.StatusNotFound, ErrorDetail{Code: "not_found"}},
	{[]error{jobs.ErrTerminal}, http.StatusConflict, ErrorDetail{Code: "job_terminal"}},
	{[]error{jobs.ErrInvalidSpec, sim.ErrNoDies}, http.StatusBadRequest, ErrorDetail{Code: "invalid_params"}},
}

// internalFailure answers every error the table does not name.
var internalFailure = failure{status: http.StatusInternalServerError, detail: ErrorDetail{Code: "internal"}}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away and the run was aborted. Nothing useful reaches the client; the
// code exists for the request metrics.
const statusClientClosedRequest = 499

// classify returns err's entry in the contract, or nil when err is the
// server's own fault.
func classify(err error) *failure {
	for i := range failures {
		for _, target := range failures[i].errs {
			if errors.Is(err, target) {
				return &failures[i]
			}
		}
	}
	return nil
}

// writeFailure answers err by the contract.
func (s *Server) writeFailure(w http.ResponseWriter, err error) {
	f := classify(err)
	if f == nil {
		f = &internalFailure
	}
	d := f.detail
	if d.Message == "" {
		d.Message = err.Error()
	}
	switch d.Code {
	case "not_leader":
		// The URL is empty mid-election; the client backs off and retries.
		if n := s.cfg.Replica; n != nil {
			if leader := n.LeaderURL(); leader != "" {
				d.LeaderURL = leader
				d.Message += " at " + leader
			}
		}
	case "overloaded":
		// The hint goes out as a Retry-After header (whole seconds, rounded
		// up, per RFC 9110) and as retry_after_ms for sub-second precision.
		retryAfter := s.cfg.RetryAfter
		var open *resilience.BreakerOpenError
		if errors.As(err, &open) && open.RetryAfter > 0 {
			retryAfter = open.RetryAfter
		}
		s.metrics.shedTotal.Add(1)
		secs := max(int64((retryAfter+time.Second-1)/time.Second), 1)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		d.RetryAfterMs = retryAfter.Milliseconds()
	}
	writeJSON(w, f.status, ErrorResponse{Error: d})
}
