package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"yap/internal/core"
	"yap/internal/fleetcache"
)

// This file is the batch-evaluate path — POST /v1/evaluate/batch, also
// served as /v1/sweep — and the GET/PUT /v1/cache endpoints that serve the
// fleet's peer exchange.

// batchTally partitions per-point-per-mode evaluations by fleet-cache
// outcome, concurrently with the points still running. A nil tally counts
// nothing.
type batchTally struct {
	cacheHits, peerHits, coalesced, computed atomic.Int64
}

func (t *batchTally) count(out fleetcache.Outcome) {
	if t == nil {
		return
	}
	switch out {
	case fleetcache.OutcomeLocalHit:
		t.cacheHits.Add(1)
	case fleetcache.OutcomePeerHit:
		t.peerHits.Add(1)
	case fleetcache.OutcomeCoalesced:
		t.coalesced.Add(1)
	default:
		t.computed.Add(1)
	}
}

// handleEvaluateBatch is POST /v1/evaluate/batch and POST /v1/sweep:
// shared base + N point overrides, evaluated through the fleet cache on
// the bounded pool, with the response streamed back per point in index
// order. Once the first point is written the 200 is committed: later
// failures (an expired deadline mid-batch, an invalid point) surface as
// per-point errors, not as an HTTP error.
func (s *Server) handleEvaluateBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchEvaluateRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	modes, err := evalModes(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_mode", err.Error())
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "invalid_params", "a batch needs at least one point")
		return
	}
	if len(req.Points) > s.cfg.MaxSweepPoints {
		writeError(w, http.StatusBadRequest, "too_many_points",
			fmt.Sprintf("%d points exceed the %d-point limit", len(req.Points), s.cfg.MaxSweepPoints))
		return
	}
	base, _, err := resolve(*s.cfg.Defaults, req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_params", err.Error())
		return
	}

	ctx, cancel := s.withDeadline(r.Context())
	defer cancel()
	tally := &batchTally{}
	results := make([]SweepPoint, len(req.Points))
	done := make([]chan struct{}, len(req.Points))
	for i, raw := range req.Points {
		done[i] = make(chan struct{})
		go s.runPoint(ctx, &results[i], i, &base, raw, modes, tally, done[i])
	}

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	io.WriteString(w, `{"points":[`) //nolint:errcheck // client gone; nothing to do
	failed := 0
	for i := range results {
		<-done[i]
		if results[i].Error != "" {
			failed++
		}
		if i > 0 {
			io.WriteString(w, ",") //nolint:errcheck
		}
		buf, err := json.Marshal(results[i])
		if err != nil {
			buf = []byte(`{"error":"internal: point encoding failed"}`)
		}
		w.Write(buf) //nolint:errcheck
		if flusher != nil {
			flusher.Flush()
		}
	}
	fmt.Fprintf(w, `],"failed":%d,"cache_hits":%d,"peer_hits":%d,"coalesced":%d,"computed":%d}`+"\n",
		failed, tally.cacheHits.Load(), tally.peerHits.Load(), tally.coalesced.Load(), tally.computed.Load())
}

// runPoint fills *pt with point i: raw resolved over base, then evaluated
// through the fleet cache, with any failure folded into pt.Error (partial
// failure, never a torn batch), and closes done once *pt is final. Points
// wait for a pool slot without the queue bound: the batch was admitted as
// one request and is bounded by MaxSweepPoints, so shedding individual
// points would tear it.
func (s *Server) runPoint(ctx context.Context, pt *SweepPoint, i int, base *core.Params, raw json.RawMessage, modes []string, tally *batchTally, done chan<- struct{}) {
	defer close(done)
	// The instrument middleware's recover sits on the request goroutine;
	// a panic here (e.g. an injected cache fault) must be folded into the
	// point's error instead.
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.panicsRecovered.Add(1)
			pt.Error = fmt.Sprintf("internal: %v", rec)
		}
	}()
	*pt = SweepPoint{Index: i}
	if err := s.pool.AcquireWait(ctx); err != nil {
		pt.Error = err.Error()
		return
	}
	defer s.pool.Release()
	p, hash, err := resolve(*base, raw)
	if err == nil {
		*pt, err = s.evaluatePoint(ctx, p, hash, modes, tally)
		pt.Index = i
	}
	if err != nil {
		pt.Error = err.Error()
	}
}

// cacheKeyFromPath parses the {mode}/{hash} segments of a /v1/cache
// path; on failure the 400 has been written.
func cacheKeyFromPath(w http.ResponseWriter, r *http.Request) (string, uint64, bool) {
	mode := r.PathValue("mode")
	if mode != "w2w" && mode != "d2w" {
		writeError(w, http.StatusBadRequest, "invalid_mode",
			fmt.Sprintf("unknown mode %q (want w2w or d2w)", mode))
		return "", 0, false
	}
	hash, err := strconv.ParseUint(r.PathValue("hash"), 16, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_params",
			"hash must be the canonical params hash as 64-bit hex")
		return "", 0, false
	}
	return mode, hash, true
}

// handleCacheGet is GET /v1/cache/{mode}/{hash}: this member's local
// store only — never a computation, never an onward peer fetch, so
// lookup storms cannot cascade across the fleet. A miss is 404
// "cache_miss" (a healthy answer the fetcher's breaker ignores).
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	mode, hash, ok := cacheKeyFromPath(w, r)
	if !ok {
		return
	}
	e, found := s.cache.Lookup(mode, hash)
	if !found {
		writeError(w, http.StatusNotFound, "cache_miss", "no entry for this key on this member")
		return
	}
	writeJSON(w, http.StatusOK, CacheEntryResponse{
		Mode:       mode,
		ParamsHash: fmt.Sprintf("%016x", hash),
		Params:     e.Params,
		Breakdown:  *breakdownFrom(e.Breakdown),
	})
}

// handleCachePut is PUT /v1/cache/{mode}/{hash}: accept an owner-warming
// offer from the fleet member that computed this key. The params are
// decoded and re-hashed here — an offer whose content does not hash to
// its key is rejected, so a corrupt push can waste a request but never
// poison the store.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	mode, hash, ok := cacheKeyFromPath(w, r)
	if !ok {
		return
	}
	var req CachePutRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if len(req.Params) == 0 {
		writeError(w, http.StatusBadRequest, "invalid_params", "params required")
		return
	}
	p, offered, err := resolve(*s.cfg.Defaults, req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_params", err.Error())
		return
	}
	if offered != hash {
		writeError(w, http.StatusBadRequest, "hash_mismatch",
			fmt.Sprintf("offered params hash to %016x, not the key in the path", offered))
		return
	}
	s.cache.Adopt(mode, hash, p, core.Breakdown{
		Overlay: req.Breakdown.Overlay,
		Recess:  req.Breakdown.Recess,
		Defect:  req.Breakdown.Defect,
		Total:   req.Breakdown.Total,
	})
	w.WriteHeader(http.StatusNoContent)
}
