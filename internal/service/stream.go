package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"yap/internal/jobs"
)

// This file is GET /v1/jobs/{id}/stream: a job's convergence stream as
// Server-Sent Events. Each frame carries a cumulative JobStreamEvent (the
// job snapshot plus the running Wilson yield estimate over its durable
// tallies), so a client needs no history — the newest frame supersedes
// everything before it. The SSE id field is the event's Seq; a client
// that reconnects echoes it back as Last-Event-ID and is answered with a
// fresh snapshot only if anything changed — always, once the job is
// terminal, since a terminal job never publishes again (and one recovered
// after a daemon restart restarts its sequence) — which is what makes
// resume after a dropped connection cheap and duplicate-tolerant. The stream
// ends after the first terminal event (done/failed/canceled), whose
// payload for a done job carries the final result bit-identical to
// GET /v1/jobs/{id}. Idle periods are bridged by SSE comment heartbeats
// (Config.StreamHeartbeat) so proxies don't reap the connection.

// handleJobStream is GET /v1/jobs/{id}/stream.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	jm, ok := s.jobsManager(w)
	if !ok {
		return
	}
	afterSeq := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid_params",
				fmt.Sprintf("Last-Event-ID %q must be a non-negative integer", v))
			return
		}
		afterSeq = n
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal",
			"connection does not support streaming")
		return
	}
	id := r.PathValue("id")
	events, cancel, err := jm.Subscribe(id, afterSeq)
	if err != nil {
		s.writeFailure(w, fmt.Errorf("job %q: %w", id, err))
		return
	}
	defer cancel()
	s.metrics.streamSubscribers.Add(1)
	defer s.metrics.streamSubscribers.Add(-1)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // nginx: don't buffer the stream
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	var heartbeat <-chan time.Time
	if s.cfg.StreamHeartbeat > 0 {
		t := time.NewTicker(s.cfg.StreamHeartbeat)
		defer t.Stop()
		heartbeat = t.C
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-heartbeat:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case ev := <-events:
			if !s.writeStreamEvent(w, flusher, ev) {
				return
			}
			if ev.Job.State.Terminal() {
				return
			}
		}
	}
}

// writeStreamEvent renders one SSE frame; false means the client is gone.
func (s *Server) writeStreamEvent(w http.ResponseWriter, flusher http.Flusher, ev jobs.Event) bool {
	payload, err := json.Marshal(s.streamEvent(ev))
	if err != nil {
		return false
	}
	// data is a single JSON object with no embedded newlines, so one
	// data: line per frame is exact.
	if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n",
		ev.Seq, ev.Job.State, payload); err != nil {
		return false
	}
	flusher.Flush()
	return true
}

// streamEvent maps a jobs.Event onto the wire shape.
func (s *Server) streamEvent(ev jobs.Event) JobStreamEvent {
	j := ev.Job
	out := JobStreamEvent{
		ID:          j.ID,
		Seq:         ev.Seq,
		State:       string(j.State),
		Completed:   j.Completed,
		Samples:     j.Spec.Samples,
		Counts:      shardCountsFrom(j.Counts),
		Yield:       ev.Estimate.Yield,
		YieldLo:     ev.Estimate.Lo,
		YieldHi:     ev.Estimate.Hi,
		CIHalfWidth: ev.Estimate.HalfWidth,
		Error:       j.Error,
	}
	if j.Result != nil {
		out.StoppedEarly = j.Result.StoppedEarly
		workers := j.Spec.Workers
		if workers <= 0 {
			workers = s.cfg.SimWorkers
		}
		res := simulateResponseFrom(*j.Result, j.ParamsHash, j.Spec.Seed, workers)
		out.Result = &res
	}
	return out
}
