package service

import (
	"encoding/json"

	"yap/internal/core"
	"yap/internal/sim"
)

// This file defines the wire format of the yapserve JSON API. The shapes
// are deliberately decoupled from the internal structs (core.Breakdown,
// sim.Result) so the internals can evolve without breaking clients.

// Breakdown is the per-mechanism analytic yield decomposition as it
// appears on the wire (Eq. 22 for W2W, Eq. 28 for D2W).
type Breakdown struct {
	Overlay float64 `json:"overlay"`
	Recess  float64 `json:"recess"`
	Defect  float64 `json:"defect"`
	Total   float64 `json:"total"`
}

func breakdownFrom(b core.Breakdown) *Breakdown {
	return &Breakdown{Overlay: b.Overlay, Recess: b.Recess, Defect: b.Defect, Total: b.Total}
}

// EvaluateRequest is the body of POST /v1/evaluate. Params is a partial
// override of the daemon's default process (unnamed fields keep their
// defaults, unknown fields are rejected); an absent Params evaluates the
// defaults themselves.
type EvaluateRequest struct {
	// Mode selects "w2w", "d2w" or "both" (the default).
	Mode   string          `json:"mode,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
}

// EvaluateResponse is the body of a successful POST /v1/evaluate.
type EvaluateResponse struct {
	// ParamsHash is the canonical digest of the effective parameter set —
	// the cache key, returned so clients can correlate and dedupe.
	ParamsHash string `json:"params_hash"`
	// Cached reports whether every requested mode was answered from the
	// result cache without evaluating the model.
	Cached bool       `json:"cached"`
	W2W    *Breakdown `json:"w2w,omitempty"`
	D2W    *Breakdown `json:"d2w,omitempty"`
}

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	// Mode selects "w2w" (the default) or "d2w".
	Mode   string          `json:"mode,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
	// Seed fixes the RNG; equal seeds reproduce exactly at any Workers.
	Seed uint64 `json:"seed,omitempty"`
	// Wafers (W2W) and Dies (D2W) are the sample counts; zero uses the
	// paper defaults (sim.Options.Samples).
	Wafers int `json:"wafers,omitempty"`
	Dies   int `json:"dies,omitempty"`
	// Workers bounds this run's parallelism; zero uses the daemon default.
	Workers int `json:"workers,omitempty"`
	// Local forces single-node execution on a coordinator daemon (one
	// that was started with -workers); ignored elsewhere. Results are
	// bit-identical either way — the flag exists for A/B verification and
	// for keeping tiny runs off the fleet.
	Local bool `json:"local,omitempty"`
	// Epsilon arms the sequential early-stop rule: the run finishes as
	// soon as the Wilson 95% half-width of the running yield estimate
	// falls to epsilon, making wafers/dies a hard cap instead of a fixed
	// count. Same seed + same epsilon ⇒ same stop index at any worker
	// count. 0 (the default) keeps fixed-N behavior bit-identical.
	Epsilon float64 `json:"epsilon,omitempty"`
	// MinSamples is the early-stop floor (never stop before this many
	// samples); 0 uses the engine default. Ignored when Epsilon is 0.
	MinSamples int `json:"min_samples,omitempty"`
}

// SimulateResponse is the body of a successful POST /v1/simulate.
type SimulateResponse struct {
	ParamsHash string `json:"params_hash"`
	Mode       string `json:"mode"`
	Seed       uint64 `json:"seed"`
	// Dies is the number of simulated dies (wafers × dies-per-wafer for
	// W2W, the sample count for D2W).
	Dies int `json:"dies"`
	// Survived counts dies passing all three checks.
	Survived     int     `json:"survived"`
	OverlayYield float64 `json:"overlay_yield"`
	DefectYield  float64 `json:"defect_yield"`
	RecessYield  float64 `json:"recess_yield"`
	Yield        float64 `json:"yield"`
	// YieldLo and YieldHi bound Yield with a Wilson 95% interval.
	YieldLo   float64 `json:"yield_lo"`
	YieldHi   float64 `json:"yield_hi"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Workers   int     `json:"workers"`
	// Partial reports graceful degradation: the request's deadline fired
	// before every sample completed, and the yields above cover the
	// Completed samples only (still an unbiased estimate, with a wider
	// CI). The HTTP status is 200 — a partial answer is an answer.
	Partial bool `json:"partial,omitempty"`
	// Completed and Requested count samples (bonded wafers for W2W,
	// bonded dies for D2W); both are set whenever Partial is.
	Completed int `json:"completed,omitempty"`
	Requested int `json:"requested,omitempty"`
	// Distributed reports that the run was sharded across the worker
	// fleet by a coordinator daemon; Shards is the partition size and
	// Reassigned counts shard dispatches that failed mid-run and were
	// recovered onto another worker. The yields are bit-identical to a
	// local run either way.
	Distributed bool   `json:"distributed,omitempty"`
	Shards      int    `json:"shards,omitempty"`
	Reassigned  uint64 `json:"reassigned,omitempty"`
	// StoppedEarly reports that the sequential early-stop rule fired: the
	// CI half-width reached the requested epsilon before the sample cap,
	// and SamplesUsed (== Completed) of the Requested cap were simulated.
	// Unlike Partial, an early-stopped result is a finished answer.
	StoppedEarly bool `json:"stopped_early,omitempty"`
	SamplesUsed  int  `json:"samples_used,omitempty"`
	// CIHalfWidth is (yield_hi − yield_lo)/2, always set — the quantity
	// the early-stop rule thresholds against epsilon.
	CIHalfWidth float64 `json:"ci_halfwidth"`
}

func simulateResponseFrom(r sim.Result, hash string, seed uint64, workers int) SimulateResponse {
	resp := SimulateResponse{
		ParamsHash:   hash,
		Mode:         r.Mode,
		Seed:         seed,
		Dies:         r.Counts.Dies,
		Survived:     r.Counts.Survived,
		OverlayYield: r.OverlayYield,
		DefectYield:  r.DefectYield,
		RecessYield:  r.RecessYield,
		Yield:        r.Yield,
		YieldLo:      r.YieldLo,
		YieldHi:      r.YieldHi,
		ElapsedMs:    float64(r.Elapsed.Microseconds()) / 1e3,
		Workers:      workers,
		CIHalfWidth:  (r.YieldHi - r.YieldLo) / 2,
	}
	if r.Partial {
		resp.Partial = true
		resp.Completed = r.Completed
		resp.Requested = r.Requested
	}
	if r.StoppedEarly {
		resp.StoppedEarly = true
		resp.SamplesUsed = r.Completed
		resp.Completed = r.Completed
		resp.Requested = r.Requested
	}
	return resp
}

// ShardRequest is the body of POST /v1/shard — the worker half of the
// internal/dist protocol. It names one contiguous slice of a Monte-Carlo
// run by its global sample range: the worker simulates samples
// [Start, Start+Count) of the run rooted at Seed, drawing each sample
// from its (Seed, global index) stream, so any partition of a run over
// any set of workers merges to the single-node tallies exactly.
type ShardRequest struct {
	// Mode selects "w2w" or "d2w".
	Mode string `json:"mode"`
	// Params is the FULL resolved parameter set (not a partial override):
	// the coordinator resolves defaults once so that coordinator/worker
	// config skew cannot change the physics. Workers echo the canonical
	// hash back and coordinators verify it.
	Params json.RawMessage `json:"params,omitempty"`
	// Seed is the run's master seed, shared by every shard.
	Seed uint64 `json:"seed"`
	// Start and Count bound the shard's global sample index range.
	Start int `json:"start"`
	Count int `json:"count"`
	// Workers bounds the shard's in-process parallelism; zero uses the
	// worker daemon's default.
	Workers int `json:"workers,omitempty"`
}

// ShardCounts is sim.Counts on the wire: raw integer tallies, which is
// what makes the coordinator's merge exact (yields are recomputed from
// the merged integers, never averaged from floats).
type ShardCounts struct {
	Dies        int `json:"dies"`
	OverlayPass int `json:"overlay_pass"`
	DefectPass  int `json:"defect_pass"`
	RecessPass  int `json:"recess_pass"`
	Survived    int `json:"survived"`
}

func shardCountsFrom(c sim.Counts) ShardCounts {
	return ShardCounts{
		Dies:        c.Dies,
		OverlayPass: c.OverlayPass,
		DefectPass:  c.DefectPass,
		RecessPass:  c.RecessPass,
		Survived:    c.Survived,
	}
}

// ShardResponse is the body of a successful POST /v1/shard.
type ShardResponse struct {
	// ParamsHash is the worker's canonical digest of the effective
	// parameter set; the coordinator rejects shards whose hash disagrees
	// with its own (config skew would silently corrupt the merge).
	ParamsHash string `json:"params_hash"`
	// Mode is the sim.Result mode ("W2W" or "D2W").
	Mode string `json:"mode"`
	// Start and Count echo the request's sample range.
	Start int `json:"start"`
	Count int `json:"count"`
	// Counts carries the shard's raw tallies.
	Counts ShardCounts `json:"counts"`
	// Partial, Completed and Requested report the deadline-expiry path:
	// a shard whose worker-side deadline fired returns the samples that
	// DID complete, and the coordinator folds them into a partial merge.
	Partial   bool    `json:"partial,omitempty"`
	Completed int     `json:"completed"`
	Requested int     `json:"requested"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// SweepPoint is one point's outcome. Exactly one of Error or the yield
// fields is populated: an invalid point reports its error in place
// without failing the batch.
type SweepPoint struct {
	Index      int        `json:"index"`
	ParamsHash string     `json:"params_hash,omitempty"`
	Cached     bool       `json:"cached,omitempty"`
	W2W        *Breakdown `json:"w2w,omitempty"`
	D2W        *Breakdown `json:"d2w,omitempty"`
	Error      string     `json:"error,omitempty"`
}

// BatchEvaluateRequest is the body of POST /v1/evaluate/batch and of
// POST /v1/sweep: N parameter points evaluated analytically through the
// fleet cache tier. Params is a shared base (a partial override of the
// daemon defaults — the sweep axes' common block, layout included); each
// point is a partial override of that base. An empty point (null or {})
// evaluates the base itself.
type BatchEvaluateRequest struct {
	// Mode selects "w2w", "d2w" or "both" (the default) for every point.
	Mode   string            `json:"mode,omitempty"`
	Params json.RawMessage   `json:"params,omitempty"`
	Points []json.RawMessage `json:"points"`
}

// BatchEvaluateResponse is the body of a successful POST
// /v1/evaluate/batch or /v1/sweep. Points stream back in index order as
// they complete, each with per-point error isolation (a bad point, or one
// the request deadline cut off, reports in place; the batch keeps going),
// and Failed counts the points that reported errors. The tail fields
// partition the per-point-per-mode evaluations by how the fleet cache
// answered them: local cache hit, owner-peer hit, coalesced onto a
// concurrent identical computation, or computed here. Breakdowns are
// bit-identical to N individual /v1/evaluate calls.
type BatchEvaluateResponse struct {
	Points    []SweepPoint `json:"points"`
	Failed    int          `json:"failed"`
	CacheHits int64        `json:"cache_hits"`
	PeerHits  int64        `json:"peer_hits"`
	Coalesced int64        `json:"coalesced"`
	Computed  int64        `json:"computed"`
}

// CacheEntryResponse is the body of GET /v1/cache/{mode}/{hash} — one
// fleet-cache entry served from this member's local store. Params is the
// FULL resolved parameter set (not a partial): the fetching peer decodes
// it and verifies the canonical hash independently, so a corrupt or
// colliding entry is rejected rather than trusted on its key.
type CacheEntryResponse struct {
	Mode       string          `json:"mode"`
	ParamsHash string          `json:"params_hash"`
	Params     json.RawMessage `json:"params"`
	Breakdown  Breakdown       `json:"breakdown"`
}

// CachePutRequest is the body of PUT /v1/cache/{mode}/{hash}: an
// owner-warming offer from the fleet member that computed the key. The
// receiver re-derives the canonical hash from Params and rejects a
// mismatch with 400 "hash_mismatch".
type CachePutRequest struct {
	Params    json.RawMessage `json:"params"`
	Breakdown Breakdown       `json:"breakdown"`
}

// JobSubmitRequest is the body of POST /v1/jobs: a simulate request that
// runs asynchronously and durably. The daemon answers 202 with the job's
// ID immediately; progress and the final result are polled via
// GET /v1/jobs/{id}. Unlike a synchronous simulate, the run survives
// daemon restarts: it resumes from its last durable checkpoint with a
// final result bit-identical to an uninterrupted run.
type JobSubmitRequest struct {
	// Mode selects "w2w" (the default) or "d2w". A parameter sweep is not
	// a job: POST its points to /v1/evaluate/batch.
	Mode   string          `json:"mode,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
	// Seed fixes the RNG; equal seeds reproduce exactly — across crashes.
	Seed uint64 `json:"seed,omitempty"`
	// Wafers (W2W) and Dies (D2W) are the sample counts; zero uses the
	// paper defaults (sim.Options.Samples).
	Wafers int `json:"wafers,omitempty"`
	Dies   int `json:"dies,omitempty"`
	// Workers bounds each slice's parallelism; zero uses the daemon
	// default.
	Workers int `json:"workers,omitempty"`
	// CheckpointEvery overrides the daemon's checkpoint interval in
	// samples; a crash re-runs at most this many samples.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Epsilon arms sequential early stop, evaluated at every durable
	// checkpoint: the job finishes done as soon as the Wilson 95%
	// half-width falls to epsilon, with wafers/dies as a hard cap. The
	// stop index is deterministic even across crash/resume. 0 disables.
	Epsilon float64 `json:"epsilon,omitempty"`
	// MinSamples is the early-stop floor; 0 uses the engine default.
	MinSamples int `json:"min_samples,omitempty"`
	// Priority orders the job queue: higher runs first, equal priorities
	// fall back to submission order, and waiting jobs age upward so a
	// low-priority job is delayed but never starved.
	Priority int `json:"priority,omitempty"`
}

// JobResponse describes one job: the body of GET /v1/jobs/{id}, the 202
// body of POST /v1/jobs, and the list element of GET /v1/jobs.
type JobResponse struct {
	ID string `json:"id"`
	// State is pending, running, done, failed or canceled.
	State      string `json:"state"`
	Mode       string `json:"mode"`
	ParamsHash string `json:"params_hash"`
	Seed       uint64 `json:"seed"`
	// Samples is the requested sample count; Completed counts durably
	// checkpointed samples (the resume point after a crash).
	Samples         int `json:"samples"`
	Completed       int `json:"completed"`
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Resumes counts how many times the job was recovered from its
	// checkpoint after a daemon restart.
	Resumes int `json:"resumes,omitempty"`
	// Priority echoes the submitted queue priority.
	Priority int `json:"priority,omitempty"`
	// Error is the failure detail of a failed job.
	Error string `json:"error,omitempty"`
	// SubmittedAt and FinishedAt are RFC 3339 telemetry timestamps.
	SubmittedAt string `json:"submitted_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// Result is the final merged result of a done job, in the same shape
	// as a synchronous simulate response.
	Result *SimulateResponse `json:"result,omitempty"`
}

// JobListResponse is the body of GET /v1/jobs, sorted by job ID.
type JobListResponse struct {
	Jobs []JobResponse `json:"jobs"`
}

// JobStreamEvent is the data payload of one Server-Sent Event on
// GET /v1/jobs/{id}/stream: a cumulative snapshot of the job plus the
// running yield estimate over its durable tallies. Each event supersedes
// all earlier ones, so a subscriber that reconnects (sending the last
// SSE id as Last-Event-ID) loses nothing once it sees a newer event.
type JobStreamEvent struct {
	ID string `json:"id"`
	// Seq is the per-job event ordinal within one daemon incarnation —
	// the SSE id field, echoed back as Last-Event-ID to resume.
	Seq int `json:"seq"`
	// State is pending, running, done, failed or canceled; the stream
	// ends after the first terminal event.
	State string `json:"state"`
	// Completed counts durably checkpointed samples of the Samples cap.
	Completed int `json:"completed"`
	Samples   int `json:"samples"`
	// Counts holds the raw integer tallies over the Completed samples.
	Counts ShardCounts `json:"counts"`
	// Yield with its Wilson 95% interval over the Completed samples;
	// CIHalfWidth is (yield_hi − yield_lo)/2, the early-stop quantity.
	Yield       float64 `json:"yield"`
	YieldLo     float64 `json:"yield_lo"`
	YieldHi     float64 `json:"yield_hi"`
	CIHalfWidth float64 `json:"ci_halfwidth"`
	// StoppedEarly is set on the terminal done event of a job whose
	// sequential early-stop rule fired before the sample cap.
	StoppedEarly bool `json:"stopped_early,omitempty"`
	// Error is the failure detail of a terminal failed event.
	Error string `json:"error,omitempty"`
	// Result is the final merged result, set only on the terminal done
	// event — bit-identical to the Result a GET /v1/jobs/{id} returns.
	Result *SimulateResponse `json:"result,omitempty"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// ErrorCodes lists every machine-readable code an ErrorDetail carries:
// each code a handler in this package writes, and no other.
var ErrorCodes = []string{
	"method_not_allowed", "invalid_json", "body_too_large",
	"invalid_params", "invalid_mode", "too_many_points",
	"deadline_exceeded", "canceled", "overloaded", "internal",
	"not_found", "jobs_disabled", "job_terminal",
	"not_leader", "replica_disabled", "no_quorum", "leadership_lost",
	"cache_miss", "hash_mismatch",
}

// ErrorDetail carries a machine-readable code alongside the human text.
type ErrorDetail struct {
	// Code is one of ErrorCodes.
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMs hints how long to back off before retrying, in
	// milliseconds. Set on "overloaded" responses alongside the
	// whole-second Retry-After header (which can't express sub-second
	// hints); clients should prefer this field when present.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// LeaderURL is the advertised URL of the replicated control plane's
	// current leader, set on "not_leader" responses (409) so clients can
	// re-aim the mutation without rediscovering the cluster. Empty while
	// an election is in flight — back off and retry.
	LeaderURL string `json:"leader_url,omitempty"`
}
