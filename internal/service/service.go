// Package service exposes the YAP analytic yield model and Monte-Carlo
// simulator as a JSON-over-HTTP API — the resident, concurrent face of
// the repository (cmd/yapserve is the daemon wrapper):
//
//	POST /v1/evaluate  analytic W2W/D2W breakdown (Eq. 22 / Eq. 28)
//	POST /v1/simulate  Monte-Carlo run on a bounded worker pool
//	POST /v1/evaluate/batch  N points over a shared base, streamed per point
//	POST /v1/sweep     the batch endpoint under its own metrics label
//	GET  /v1/jobs/{id}/stream  live convergence events (SSE), resumable
//	POST /v1/replica   control-plane replication (peer append/vote RPCs)
//	GET  /healthz      liveness + uptime
//	GET  /metrics      Prometheus text-format instrumentation
//
// Design notes. Analytic evaluations are pure functions of the parameter
// set, so they are memoized in an LRU cache keyed on the canonical hash
// of core.Params — a repeated evaluate answers without touching the
// model. Simulations are admitted through a bounded pool with a bounded
// wait queue (so a traffic burst queues, and beyond the queue bound is
// shed with 503 "overloaded" plus a Retry-After hint, instead of
// oversubscribing the host) and run with the request's context threaded
// into the wafer loop: a disconnecting client aborts its wafers within
// one sample's latency, while an expired per-request deadline degrades
// gracefully into a 200 response carrying the partial tallies ("partial":
// true). Handler panics are recovered into 500s, repeated internal
// simulation failures trip a circuit breaker, and every failure path is
// reachable deterministically through internal/faultinject. Everything is
// stdlib-only.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"yap/internal/converge"
	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/fleetcache"
	"yap/internal/jobs"
	"yap/internal/replica"
	"yap/internal/resilience"
	"yap/internal/sim"
)

// Config tunes a Server. The zero value is usable: Table I defaults, a
// 1024-entry cache, one simulation slot per CPU, a 2-minute request
// deadline and a 1 MiB body limit.
type Config struct {
	// Defaults is the parameter set partial request params merge over;
	// zero means core.Baseline() (Table I).
	Defaults *core.Params
	// CacheSize is the LRU capacity in entries; 0 means 1024, negative
	// disables caching.
	CacheSize int
	// MaxConcurrentSims bounds simulations executing at once; 0 means
	// GOMAXPROCS.
	MaxConcurrentSims int
	// SimWorkers is the default per-run parallelism when a request leaves
	// Workers at 0; 0 means GOMAXPROCS.
	SimWorkers int
	// RequestTimeout is the per-request deadline for simulate, shard,
	// batch and sweep; 0 means 2 minutes, negative disables the deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; 0 means 1 MiB.
	MaxBodyBytes int64
	// MaxSweepPoints caps the points of one batch or sweep request; 0
	// means 10000.
	MaxSweepPoints int
	// MaxQueuedSims bounds how many simulate and shard requests may wait
	// for a pool slot before admission control sheds with 503
	// "overloaded"; 0 means 4×MaxConcurrentSims, negative means no waiting
	// (shed whenever every slot is busy).
	MaxQueuedSims int
	// RetryAfter is the back-off hint attached to "overloaded" responses
	// (Retry-After header and retry_after_ms body field); 0 means 1s.
	RetryAfter time.Duration
	// BreakerThreshold is the consecutive-internal-failure count that trips
	// the simulate circuit breaker; 0 means 8, negative disables the
	// breaker.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker sheds before probing;
	// 0 means 5s.
	BreakerCooldown time.Duration
	// Distributor, when non-nil, makes this daemon a coordinator: simulate
	// requests are sharded across its worker fleet and merged (internal/
	// dist.Coordinator is the implementation; cmd/yapserve wires it from
	// -workers). Requests carrying "local": true, and the /v1/shard
	// endpoint itself, always run on the local engine.
	Distributor Distributor
	// Jobs, when non-nil, mounts the durable asynchronous job API
	// (/v1/jobs: submit 202, get, list, cancel) backed by the given
	// manager (cmd/yapserve wires it from -jobs-dir). The Server does not
	// own the manager's lifecycle — whoever opened it closes it, after the
	// HTTP server has stopped.
	Jobs *jobs.Manager
	// Replica, when non-nil, makes this daemon a member of a replicated
	// job control plane (cmd/yapserve wires it from -peers): /v1/replica
	// accepts append/vote messages from peers, job mutations on a
	// follower answer 409 "not_leader" with the leader's URL, and the
	// node's election/replication counters join /metrics. Jobs should be
	// the node's own store (replica.Node.Jobs()). The Server does not own
	// the node's lifecycle.
	Replica *replica.Node
	// FleetCache, when non-nil, is the shared evaluation tier analytic
	// requests go through — typically fleet-configured by cmd/yapserve
	// (-cache-peers) so members coalesce, peer-fetch and deduplicate
	// computations fleet-wide. nil builds a private single-member cache
	// of CacheSize entries, the drop-in equivalent of the old per-daemon
	// resultCache. The Server does not own the cache's lifecycle (its
	// background pusher outlives requests); whoever built it closes it.
	FleetCache *fleetcache.Cache
	// StreamHeartbeat is the idle keep-alive interval of the SSE job
	// stream (comment frames that defeat proxy idle timeouts); 0 means
	// 15s, negative disables heartbeats.
	StreamHeartbeat time.Duration
	// Faults optionally arms deterministic fault injection in the cache,
	// pool-admission and simulation paths (see internal/faultinject); nil
	// — the production default — disables injection.
	Faults *faultinject.Injector
	// Logger receives one line per failed request; nil disables logging.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Defaults == nil {
		p := core.Baseline()
		c.Defaults = &p
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxConcurrentSims <= 0 {
		c.MaxConcurrentSims = runtime.GOMAXPROCS(0)
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 10000
	}
	if c.MaxQueuedSims == 0 {
		c.MaxQueuedSims = 4 * c.MaxConcurrentSims
	}
	if c.MaxQueuedSims < 0 {
		c.MaxQueuedSims = 0
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.StreamHeartbeat == 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	return c
}

// endpoints are the instrumented routes (the label set of the request
// metrics).
var endpoints = []string{"evaluate", "batch", "simulate", "shard", "sweep", "cache", "jobs", "stream", "replica", "healthz", "metrics"}

// Server is the yield-as-a-service HTTP handler. Create with New; safe
// for concurrent use; graceful shutdown is the embedding http.Server's
// job (Server holds no background goroutines of its own).
type Server struct {
	cfg   Config
	cache *fleetcache.Cache
	// pool bounds the simulations executing at once across all requests
	// (each still fans out internally over sim.Options.Workers), so a
	// burst queues up to MaxQueuedSims and is shed beyond that; batch
	// points wait in it without the queue bound (see handleEvaluateBatch).
	pool    *resilience.Shedder
	breaker *resilience.Breaker // nil when disabled
	metrics *metrics
	mux     *http.ServeMux
	started time.Time
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.FleetCache == nil {
		// Private single-member tier: same LRU semantics the old
		// resultCache had, plus singleflight. No peers, so no pusher
		// goroutine starts and no Close is owed.
		cfg.FleetCache = fleetcache.New(fleetcache.Config{
			CacheSize: cfg.CacheSize,
			Faults:    cfg.Faults,
		})
	}
	s := &Server{
		cfg:     cfg,
		cache:   cfg.FleetCache,
		pool:    resilience.NewShedder(cfg.MaxConcurrentSims, cfg.MaxQueuedSims),
		metrics: newMetrics(endpoints),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	if cfg.BreakerThreshold > 0 {
		s.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
		})
	}
	s.mux.HandleFunc("/v1/evaluate", s.instrument("evaluate", http.MethodPost, s.handleEvaluate))
	s.mux.HandleFunc("/v1/evaluate/batch", s.instrument("batch", http.MethodPost, s.handleEvaluateBatch))
	// The peer cache exchange of internal/fleetcache: GET serves this
	// member's local store (never computes), PUT accepts an owner-warming
	// offer from the member that computed the key.
	s.mux.HandleFunc("GET /v1/cache/{mode}/{hash}", s.instrument("cache", http.MethodGet, s.handleCacheGet))
	s.mux.HandleFunc("PUT /v1/cache/{mode}/{hash}", s.instrument("cache", http.MethodPut, s.handleCachePut))
	s.mux.HandleFunc("/v1/simulate", s.instrument("simulate", http.MethodPost, s.handleSimulate))
	s.mux.HandleFunc("/v1/shard", s.instrument("shard", http.MethodPost, s.handleShard))
	// /v1/sweep is the batch endpoint under its own metrics label.
	s.mux.HandleFunc("/v1/sweep", s.instrument("sweep", http.MethodPost, s.handleEvaluateBatch))
	// Method-qualified patterns (Go 1.22 mux): one path, four verbs. The
	// handlers answer 404 "jobs_disabled" when no manager is configured,
	// so the route set is identical either way.
	s.mux.HandleFunc("POST /v1/jobs", s.instrument("jobs", http.MethodPost, s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.instrument("jobs", http.MethodGet, s.handleJobList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", http.MethodGet, s.handleJobGet))
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.instrument("stream", http.MethodGet, s.handleJobStream))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("jobs", http.MethodDelete, s.handleJobCancel))
	s.mux.HandleFunc(replica.ReplicaPath, s.instrument("replica", http.MethodPost, s.handleReplica))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", http.MethodGet, s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", http.MethodGet, s.handleMetrics))
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusWriter captures the response code for instrumentation and whether
// anything was written yet (so the panic-recovery middleware knows if a
// 500 can still be sent).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so the SSE stream handler can
// flush through the instrumentation wrapper; a non-flushing underlying
// writer degrades to buffered writes.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with method enforcement, body limiting,
// panic recovery, in-flight/latency/request accounting and error logging.
// A panicking handler becomes a 500 "internal" response (when no bytes
// have been written yet) with the stack logged — one bad request must
// never take the daemon down.
func (s *Server) instrument(endpoint, method string, h http.HandlerFunc) http.HandlerFunc {
	limit := s.cfg.MaxBodyBytes
	if endpoint == "replica" {
		// A peer append carries a whole WAL record: its bound comes from the
		// record bound, not from the client request limit.
		limit = replica.MaxMessageBytes
	}
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panicsRecovered.Add(1)
				if s.cfg.Logger != nil {
					s.cfg.Logger.Printf("panic in %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				}
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal",
						fmt.Sprintf("internal error serving %s", r.URL.Path))
				}
			}
			s.metrics.observeRequest(endpoint, sw.code, time.Since(start))
			if sw.code >= 400 && s.cfg.Logger != nil {
				s.cfg.Logger.Printf("%s %s -> %d", r.Method, r.URL.Path, sw.code)
			}
		}()
		if r.Method != method {
			sw.Header().Set("Allow", method)
			writeError(sw, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("%s requires %s", r.URL.Path, method))
			return
		}
		r.Body = http.MaxBytesReader(sw, r.Body, limit)
		h(sw, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorDetail{Code: code, Message: msg}})
}

// decodeRequest strictly decodes the body into dst, mapping failure
// classes to structured 4xx responses. Returns false after writing the
// error response.
func decodeRequest(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var maxBytes *http.MaxBytesError
		if errors.As(err, &maxBytes) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", maxBytes.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid_json", "malformed request body: "+err.Error())
		return false
	}
	return true
}

// resolve merges a partial params override over base, validates, and
// reports the canonical hash; an absent or null override is base itself.
// It is the one params path: evaluate, simulate, shard, job submit, cache
// PUT and a batch's shared base resolve over the daemon defaults, and
// each batch point over its batch's base.
func resolve(base core.Params, raw json.RawMessage) (core.Params, uint64, error) {
	p := base
	if len(raw) > 0 && !bytes.Equal(raw, []byte("null")) {
		var err error
		if p, err = core.DecodeParams(base, bytes.NewReader(raw)); err != nil {
			return core.Params{}, 0, err
		}
	} else if err := p.Validate(); err != nil {
		return core.Params{}, 0, err
	}
	return p, p.CanonicalHash(), nil
}

// bothModes backs evalModes' answers.
var bothModes = []string{fleetcache.ModeW2W, fleetcache.ModeD2W}

// evalModes normalizes an evaluate/batch mode string into the fleet-cache
// modes to evaluate, in response order.
func evalModes(mode string) ([]string, error) {
	switch strings.ToLower(mode) {
	case "", "both":
		return bothModes, nil
	case "w2w":
		return bothModes[:1], nil
	case "d2w":
		return bothModes[1:], nil
	default:
		return nil, fmt.Errorf("unknown mode %q (want w2w, d2w or both)", mode)
	}
}

// evaluatePoint evaluates the given modes of one resolved parameter set
// through the fleet cache tier: local LRU, then singleflight coalescing,
// then owner-peer fetch, then compute. The cache tiers are pure
// optimization — injected faults and dead peers degrade toward local
// compute, never into a request error. Cached is the wire-level "cached":
// every mode came from a cache (local or peer) rather than an engine run.
// A failure returns only the params hash with the error, so a point
// carries exactly one of error or yields even when an earlier mode
// succeeded; tally may be nil.
func (s *Server) evaluatePoint(ctx context.Context, p core.Params, hash uint64, modes []string, tally *batchTally) (SweepPoint, error) {
	pt := SweepPoint{ParamsHash: fmt.Sprintf("%016x", hash), Cached: true}
	for _, mode := range modes {
		b, out, err := s.cache.Evaluate(ctx, mode, hash, p)
		if err != nil {
			return SweepPoint{ParamsHash: pt.ParamsHash}, err
		}
		tally.count(out)
		if mode == fleetcache.ModeW2W {
			pt.W2W = breakdownFrom(b)
		} else {
			pt.D2W = breakdownFrom(b)
		}
		pt.Cached = pt.Cached && out.Cached()
	}
	return pt, nil
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	modes, err := evalModes(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_mode", err.Error())
		return
	}
	p, hash, err := resolve(*s.cfg.Defaults, req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_params", err.Error())
		return
	}
	pt, err := s.evaluatePoint(r.Context(), p, hash, modes, nil)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	writeJSON(w, http.StatusOK, EvaluateResponse{ParamsHash: pt.ParamsHash, Cached: pt.Cached, W2W: pt.W2W, D2W: pt.D2W})
}

// withDeadline bounds ctx by the per-request deadline of the engine
// endpoints (simulate, shard, batch and sweep).
func (s *Server) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	return ctx, func() {}
}

// simWorkers resolves a request's per-run parallelism.
func (s *Server) simWorkers(requested int) int {
	if requested > 0 {
		return requested
	}
	return s.cfg.SimWorkers
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	mode := strings.ToLower(req.Mode)
	if mode == "" {
		mode = "w2w"
	}
	if mode != "w2w" && mode != "d2w" {
		writeError(w, http.StatusBadRequest, "invalid_mode",
			fmt.Sprintf("unknown mode %q (want w2w or d2w)", req.Mode))
		return
	}
	p, _, err := resolve(*s.cfg.Defaults, req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_params", err.Error())
		return
	}
	if req.Wafers < 0 || req.Dies < 0 || req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "invalid_params",
			"wafers, dies and workers must be non-negative")
		return
	}
	if req.Epsilon < 0 || req.MinSamples < 0 {
		writeError(w, http.StatusBadRequest, "invalid_params",
			"epsilon and min_samples must be non-negative")
		return
	}
	workers := s.simWorkers(req.Workers)
	opts := sim.Options{
		Params:    p,
		Seed:      req.Seed,
		Wafers:    req.Wafers,
		Dies:      req.Dies,
		Workers:   workers,
		Faults:    s.cfg.Faults,
		EarlyStop: converge.Rule{Epsilon: req.Epsilon, MinSamples: req.MinSamples},
	}
	// A coordinator fans every slice out across the fleet: the whole run
	// when fixed-N, each slice of the rule's checkpoint ladder when
	// epsilon is set, so the stop index is the local one either way.
	var info DistInfo
	run := sim.LocalRunner()
	distributed := s.cfg.Distributor != nil && !req.Local
	if distributed {
		run = func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
			res, slice, err := s.cfg.Distributor.Simulate(ctx, mode, opts)
			info.Shards += slice.Shards
			info.Reassigned += slice.Reassigned
			return res, err
		}
	}
	res, ok := s.runAdmitted(w, r, run, mode, opts)
	if !ok {
		return
	}
	resp := simulateResponseFrom(res, p.HashString(), req.Seed, workers)
	if distributed {
		resp.Distributed = true
		resp.Shards = info.Shards
		resp.Reassigned = info.Reassigned
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleShard executes one shard of a distributed Monte-Carlo run — the
// worker half of the internal/dist protocol. It is the simulate path with
// the sample range pinned: samples [Start, Start+Count) of the run rooted
// at Seed, executed on the local engine (never re-distributed, so a
// coordinator that is also listed as its own worker cannot recurse) and
// answered as raw integer tallies for the coordinator's exact merge.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	mode := strings.ToLower(req.Mode)
	if mode != "w2w" && mode != "d2w" {
		writeError(w, http.StatusBadRequest, "invalid_mode",
			fmt.Sprintf("unknown mode %q (want w2w or d2w)", req.Mode))
		return
	}
	p, _, err := resolve(*s.cfg.Defaults, req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_params", err.Error())
		return
	}
	if req.Start < 0 || req.Count <= 0 || req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "invalid_params",
			"shard start must be non-negative, count positive and workers non-negative")
		return
	}
	opts := sim.Options{
		Params:      p,
		Seed:        req.Seed,
		Workers:     s.simWorkers(req.Workers),
		FirstSample: req.Start,
		Faults:      s.cfg.Faults,
	}
	if mode == "w2w" {
		opts.Wafers = req.Count
	} else {
		opts.Dies = req.Count
	}
	res, ok := s.runAdmitted(w, r, sim.LocalRunner(), mode, opts)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, ShardResponse{
		ParamsHash: p.HashString(),
		Mode:       res.Mode,
		Start:      req.Start,
		Count:      req.Count,
		Counts:     shardCountsFrom(res.Counts),
		Partial:    res.Partial,
		Completed:  res.Completed,
		Requested:  res.Requested,
		ElapsedMs:  float64(res.Elapsed.Microseconds()) / 1e3,
	})
}

// runAdmitted is the one admission path of engine work (simulate and
// shard): the circuit breaker's gate, the request deadline, the
// service.pool.admit fault hook and a pool slot, then sim.Run, the
// breaker's record of the outcome and the sample accounting. A failure is
// answered here and reported as false, and so is a partial result whose
// client is gone; a deadline-limited partial result is the caller's to
// answer, as a 200.
func (s *Server) runAdmitted(w http.ResponseWriter, r *http.Request, run sim.SliceRunner, mode string, opts sim.Options) (sim.Result, bool) {
	// The breaker guards the simulation engine, so it is consulted only
	// after validation: malformed requests say nothing about its health.
	if err := s.breaker.Allow(); err != nil {
		s.writeFailure(w, err)
		return sim.Result{}, false
	}
	ctx, cancel := s.withDeadline(r.Context())
	defer cancel()
	err := s.cfg.Faults.Fire(ctx, faultinject.HookPoolAdmit)
	if err == nil {
		err = s.pool.Acquire(ctx)
	}
	var res sim.Result
	if err == nil {
		defer s.pool.Release()
		res, err = sim.Run(ctx, run, mode, opts)
	}
	if err != nil {
		// Only the server's own faults count against the breaker: an error
		// the contract classifies (a shed, a deadline, a cancellation, a
		// refused request) is neutral, and frees a half-open probe.
		if classify(err) == nil {
			s.breaker.Record(false)
		} else {
			s.breaker.Release()
		}
		s.writeFailure(w, err)
		return sim.Result{}, false
	}
	s.breaker.Record(true)
	if res.Partial {
		// The server-side deadline fired but samples completed: degrade
		// gracefully into a 200 carrying the partial tallies — unless the
		// CLIENT is gone, in which case nothing useful can be delivered.
		if err := r.Context().Err(); err != nil {
			s.writeFailure(w, err)
			return sim.Result{}, false
		}
		s.metrics.partialResults.Add(1)
	}
	if res.StoppedEarly {
		s.metrics.earlyStops.Add(1)
		s.metrics.samplesSaved.Add(uint64(res.Requested - res.Completed))
	}
	s.metrics.simSamples.get(mode).Add(uint64(res.Counts.Dies))
	return res, true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	cs := s.cache.Stats()
	gauges := map[string]int64{
		"yapserve_cache_entries":            int64(cs.Entries),
		"yapserve_fleetcache_members":       int64(cs.Members),
		"yapserve_fleetcache_breakers_open": int64(cs.BreakersOpen),
		"yapserve_pool_capacity":            int64(s.pool.Capacity()),
		"yapserve_pool_queue_capacity":      int64(s.pool.QueueCapacity()),
		"yapserve_pool_active":              s.pool.Active(),
		"yapserve_pool_queued":              s.pool.Queued(),
		"yapserve_breaker_state":            int64(s.breaker.State()),
		"yapserve_uptime_seconds":           int64(time.Since(s.started).Seconds()),
		"yapserve_stream_subscribers":       s.metrics.streamSubscribers.Load(),
	}
	// Early-stop accounting sums the synchronous simulate path (service
	// atomics) with the asynchronous job path (manager stats).
	earlyStops := s.metrics.earlyStops.Load()
	samplesSaved := s.metrics.samplesSaved.Load()
	counters := map[string]uint64{
		// The fleet-cache family. computes_total is the drill's load-bearing
		// counter: summed across members it proves fleet-wide deduplication.
		"yapserve_cache_hits_total":               uint64(cs.Hits),
		"yapserve_cache_misses_total":             uint64(cs.Misses),
		"yapserve_cache_evictions_total":          uint64(cs.Evictions),
		"yapserve_fleetcache_collisions_total":    uint64(cs.Collisions),
		"yapserve_fleetcache_computes_total":      uint64(cs.Computes),
		"yapserve_fleetcache_coalesced_total":     uint64(cs.Coalesced),
		"yapserve_fleetcache_flight_panics_total": uint64(cs.FlightPanics),
		"yapserve_fleetcache_peer_hits_total":     uint64(cs.PeerHits),
		"yapserve_fleetcache_peer_misses_total":   uint64(cs.PeerMisses),
		"yapserve_fleetcache_peer_errors_total":   uint64(cs.PeerErrors),
		"yapserve_fleetcache_peer_served_total":   uint64(cs.PeerServed),
		"yapserve_fleetcache_adopted_total":       uint64(cs.Adopted),
		"yapserve_fleetcache_pushes_total":        uint64(cs.Pushes),
		"yapserve_fleetcache_push_drops_total":    uint64(cs.PushDrops),
	}
	if d := s.cfg.Distributor; d != nil {
		st := d.Stats()
		gauges["yapserve_dist_workers_known"] = int64(st.WorkersKnown)
		gauges["yapserve_dist_workers_up"] = int64(st.WorkersUp)
		counters["yapserve_dist_shards_dispatched_total"] = st.ShardsDispatched
		counters["yapserve_dist_shards_reassigned_total"] = st.ShardsReassigned
		counters["yapserve_dist_runs_merged_total"] = st.RunsMerged
	}
	if jm := s.cfg.Jobs; jm != nil {
		st := jm.Stats()
		gauges["yapserve_jobs_pending"] = int64(st.Pending)
		gauges["yapserve_jobs_running"] = int64(st.Running)
		gauges["yapserve_jobs_terminal_cached"] = int64(st.Terminal)
		counters["yapserve_jobs_submitted_total"] = st.Submitted
		counters["yapserve_jobs_done_total"] = st.Done
		counters["yapserve_jobs_failed_total"] = st.Failed
		counters["yapserve_jobs_canceled_total"] = st.Canceled
		counters["yapserve_jobs_resumed_total"] = st.Resumed
		counters["yapserve_jobs_checkpoints_total"] = st.Checkpoints
		counters["yapserve_jobs_wal_records_total"] = st.WALRecords
		counters["yapserve_jobs_wal_truncations_total"] = st.WALTruncated
		counters["yapserve_jobs_gc_removed_total"] = st.GCRemoved
		earlyStops += st.EarlyStops
		samplesSaved += st.SamplesSaved
	}
	if n := s.cfg.Replica; n != nil {
		st := n.Stats()
		gauges["yapserve_replica_role"] = int64(st.Role)
		gauges["yapserve_replica_term"] = int64(st.Term)
		gauges["yapserve_replica_seq"] = int64(st.Seq)
		gauges["yapserve_replica_commit_seq"] = int64(st.CommitSeq)
		gauges["yapserve_replica_peers"] = int64(st.Peers)
		gauges["yapserve_replica_peers_stalled"] = int64(st.StalledPeers)
		counters["yapserve_replica_elections_total"] = st.Elections
		counters["yapserve_replica_ship_errors_total"] = st.ShipErrors
		counters["yapserve_replica_votes_granted_total"] = st.VotesGranted
		counters["yapserve_replica_quorum_timeouts_total"] = st.QuorumTimeouts
		counters["yapserve_replica_truncations_total"] = st.Truncations
	}
	counters["yapserve_early_stops_total"] = earlyStops
	counters["yapserve_samples_saved_total"] = samplesSaved
	s.metrics.writePrometheus(w, gauges, counters)
	version, goVersion := BuildInfo()
	fmt.Fprintln(w, "# HELP yapserve_build_info Build metadata; the value is always 1.")
	fmt.Fprintln(w, "# TYPE yapserve_build_info gauge")
	fmt.Fprintf(w, "yapserve_build_info{version=%q,goversion=%q} 1\n", version, goVersion)
}

// Shutdown stops admitting simulation work and waits for in-flight jobs
// to drain, or until ctx fires. New simulate/shard admissions fail with
// 503 "overloaded" while the drain runs (and new batch points with a
// per-point error); evaluate, healthz and metrics
// keep answering (they hold no pool slots), so load balancers can watch
// the drain. Call it after the embedding http.Server has stopped
// accepting connections (or concurrently — the pool refuses stragglers).
func (s *Server) Shutdown(ctx context.Context) error {
	s.pool.Close()
	return s.pool.Drain(ctx)
}

// ResilienceSummary renders the admission-control and fault-tolerance
// configuration in one line, for startup logs.
func (s *Server) ResilienceSummary() string {
	breaker := "off"
	if s.breaker != nil {
		breaker = fmt.Sprintf("threshold=%d cooldown=%v", s.cfg.BreakerThreshold, s.cfg.BreakerCooldown)
	}
	faults := "off"
	if s.cfg.Faults != nil {
		faults = s.cfg.Faults.String()
	}
	return fmt.Sprintf("pool=%d queue=%d retry-after=%v breaker[%s] faults[%s]",
		s.pool.Capacity(), s.pool.QueueCapacity(), s.cfg.RetryAfter, breaker, faults)
}
