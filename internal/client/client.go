// Package client is the resilient Go client for the yapserve HTTP API:
// typed wrappers over /v1/evaluate, /v1/evaluate/batch, /v1/simulate,
// /v1/shard, /v1/jobs, /v1/cache and /healthz that retry transient
// failures with capped exponential backoff and deterministic jitter and
// honor the server's Retry-After hints (both the whole-second header and
// the sub-second retry_after_ms body field). Permanent failures (4xx)
// surface immediately as typed *APIError values carrying the
// machine-readable error code.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"yap/internal/resilience"
	"yap/internal/service"
)

// Config tunes a Client. Only BaseURL is required.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides http.DefaultClient (for timeouts, transports,
	// httptest servers).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call (first try included); 0 means 4.
	MaxAttempts int
	// Backoff paces retries; the zero value is usable (100ms base, 10s
	// cap, factor 2, ±10% jitter). Give concurrent clients distinct Seeds
	// so their retries decorrelate.
	Backoff resilience.Backoff
	// MaxBodyBytes caps response bodies read into memory; 0 means 8 MiB.
	MaxBodyBytes int64
}

// Client calls the yapserve API. Safe for concurrent use.
//
// Against a replicated control plane (yapserve -peers), the client
// follows the leader automatically: a 409 "not_leader" response carries
// the leader's advertised URL, the client re-aims subsequent requests at
// it within the normal retry schedule, and a transport failure against a
// learned leader falls back to the configured BaseURL (whichever member
// it names will name the new leader).
type Client struct {
	cfg Config

	mu     sync.Mutex
	leader string // learned leader base URL; "" means cfg.BaseURL
}

// New validates cfg and returns a ready Client.
func New(cfg Config) (*Client, error) {
	base := strings.TrimRight(cfg.BaseURL, "/")
	if base == "" {
		return nil, errors.New("client: BaseURL is required")
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return nil, fmt.Errorf("client: BaseURL %q is not an http(s) URL", cfg.BaseURL)
	}
	cfg.BaseURL = base
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	return &Client{cfg: cfg}, nil
}

// APIError is a non-2xx response decoded into the server's error shape.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code ("overloaded",
	// "invalid_params", ...); "unknown" when the body was not the
	// structured error shape.
	Code string
	// Message is the human-readable text.
	Message string
	// RetryAfter is the server's back-off hint (retry_after_ms body field
	// preferred, Retry-After header otherwise), zero when absent.
	RetryAfter time.Duration
	// LeaderURL is the replica leader's advertised URL from a 409
	// "not_leader" response; empty while an election is in flight.
	LeaderURL string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d %s: %s", e.Status, e.Code, e.Message)
}

// Temporary reports whether retrying the identical request can succeed:
// 429, every 5xx and "not_leader" (the retry lands on the leader the
// response named, or on a freshly elected one) qualify; other 4xx are
// permanent.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500 || e.Code == "not_leader"
}

// ErrAttemptsExhausted wraps the final failure after MaxAttempts tries.
var ErrAttemptsExhausted = errors.New("client: retry attempts exhausted")

// Evaluate calls POST /v1/evaluate.
func (c *Client) Evaluate(ctx context.Context, req service.EvaluateRequest) (*service.EvaluateResponse, error) {
	var resp service.EvaluateResponse
	if err := c.do(ctx, "/v1/evaluate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Simulate calls POST /v1/simulate. A deadline-limited run comes back
// with Partial set rather than an error — inspect it when completeness
// matters.
func (c *Client) Simulate(ctx context.Context, req service.SimulateRequest) (*service.SimulateResponse, error) {
	var resp service.SimulateResponse
	if err := c.do(ctx, "/v1/simulate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Shard calls POST /v1/shard — one slice of a distributed Monte-Carlo
// run (the dispatch edge of internal/dist). The shard protocol is exactly
// as retry-safe as simulate: a shard is a pure function of (params, seed,
// start, count), so re-dispatching after a transient failure reproduces
// the identical tallies.
func (c *Client) Shard(ctx context.Context, req service.ShardRequest) (*service.ShardResponse, error) {
	var resp service.ShardResponse
	if err := c.do(ctx, "/v1/shard", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health calls GET /healthz.
func (c *Client) Health(ctx context.Context) (*service.HealthResponse, error) {
	var resp service.HealthResponse
	if err := c.do(ctx, "/healthz", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitJob calls POST /v1/jobs, enqueueing a durable asynchronous
// Monte-Carlo run. The server answers 202 with the pending job; poll it
// with GetJob or WaitJob. Note that a retried submission (transient
// failure after the server durably accepted the job) enqueues a second
// job — the runs are deterministic, so the duplicate produces identical
// results and only costs compute, but callers that care should ListJobs
// and reconcile by params hash and seed.
func (c *Client) SubmitJob(ctx context.Context, req service.JobSubmitRequest) (*service.JobResponse, error) {
	var resp service.JobResponse
	if err := c.do(ctx, "/v1/jobs", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// GetJob calls GET /v1/jobs/{id}. A 404 carries code "not_found" for an
// unknown or expired job, or "jobs_disabled" when the daemon runs
// without a job store.
func (c *Client) GetJob(ctx context.Context, id string) (*service.JobResponse, error) {
	var resp service.JobResponse
	if err := c.doMethod(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ListJobs calls GET /v1/jobs.
func (c *Client) ListJobs(ctx context.Context) (*service.JobListResponse, error) {
	var resp service.JobListResponse
	if err := c.do(ctx, "/v1/jobs", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CancelJob calls DELETE /v1/jobs/{id}. Canceling an already-finished
// job surfaces an *APIError with code "job_terminal" (409).
func (c *Client) CancelJob(ctx context.Context, id string) (*service.JobResponse, error) {
	var resp service.JobResponse
	if err := c.doMethod(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// WaitJob polls GET /v1/jobs/{id} every interval (250ms when
// non-positive) until the job reaches a terminal state — done, failed or
// canceled — and returns it. Polling is resumable by construction: each
// poll is an independent idempotent GET with the client's full retry
// schedule behind it, so a daemon restart mid-wait (during which the job
// itself resumes from its last durable checkpoint) only costs a few
// retried polls. WaitJob does not turn failed or canceled states into
// errors; inspect State on the returned job.
func (c *Client) WaitJob(ctx context.Context, id string, interval time.Duration) (*service.JobResponse, error) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	for {
		job, err := c.GetJob(ctx, id)
		if err != nil {
			return nil, err
		}
		switch job.State {
		case "done", "failed", "canceled":
			return job, nil
		}
		if err := resilience.Sleep(ctx, interval); err != nil {
			return nil, fmt.Errorf("client: waiting for job %s: %w", id, err)
		}
	}
}

// do runs the retry loop around one logical call, inferring the verb
// from the payload: POST with a body, GET without.
func (c *Client) do(ctx context.Context, path string, body, out any) error {
	method := http.MethodGet
	if body != nil {
		method = http.MethodPost
	}
	return c.doMethod(ctx, method, path, body, out)
}

// doMethod runs the retry loop around one logical call: permanent
// failures and context expiry return immediately, transient ones
// (connection errors, 429, 5xx) back off —
// honoring the larger of the backoff schedule and the server's
// Retry-After hint — and try again.
func (c *Client) doMethod(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay := c.cfg.Backoff.Delay(attempt - 1)
			if hint := retryAfterOf(lastErr); hint > delay {
				delay = hint
			}
			if err := resilience.Sleep(ctx, delay); err != nil {
				return fmt.Errorf("client: giving up while backing off: %w", errors.Join(err, lastErr))
			}
		}
		err := c.once(ctx, method, path, payload, out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("client: request context done: %w", errors.Join(ctx.Err(), err))
		}
		if !temporary(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("client: %d attempts failed: %w", c.cfg.MaxAttempts, errors.Join(ErrAttemptsExhausted, lastErr))
}

// once performs a single HTTP exchange. A nil out discards a 2xx body.
func (c *Client) once(ctx context.Context, method, path string, payload []byte, out any) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	base := c.baseURL()
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		// A learned leader that stopped answering is stale (it may be the
		// member that just died); fall back to the configured base URL,
		// whose member will name the new leader.
		c.forgetLeader(base)
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close() //nolint:errcheck
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		return fmt.Errorf("client: reading %s response: %w", path, err)
	}
	if resp.StatusCode >= 300 {
		apiErr := decodeAPIError(resp, data)
		if apiErr.Code == "not_leader" {
			c.learnLeader(apiErr.LeaderURL)
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// baseURL is the current request target: the learned leader when one is
// known, the configured BaseURL otherwise.
func (c *Client) baseURL() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leader != "" {
		return c.leader
	}
	return c.cfg.BaseURL
}

// learnLeader records the leader URL a 409 "not_leader" response named,
// so the retry loop's next attempt goes straight there. An empty URL
// (election in flight) changes nothing — the retry's backoff gives the
// cluster time to elect.
func (c *Client) learnLeader(url string) {
	url = strings.TrimRight(url, "/")
	if url == "" || (!strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://")) {
		return
	}
	c.mu.Lock()
	if url == c.cfg.BaseURL {
		url = "" // the configured member IS the leader; no override needed
	}
	c.leader = url
	c.mu.Unlock()
}

// forgetLeader drops the learned leader, but only if it is the base the
// failed exchange actually used — a racing success against a newer
// leader must not be wiped out.
func (c *Client) forgetLeader(base string) {
	c.mu.Lock()
	if c.leader == base {
		c.leader = ""
	}
	c.mu.Unlock()
}

// decodeAPIError turns a non-2xx response into an *APIError, extracting
// the back-off hint from the body (millisecond precision) or the
// Retry-After header.
func decodeAPIError(resp *http.Response, data []byte) *APIError {
	apiErr := &APIError{Status: resp.StatusCode, Code: "unknown", Message: strings.TrimSpace(string(data))}
	var wire service.ErrorResponse
	if err := json.Unmarshal(data, &wire); err == nil && wire.Error.Code != "" {
		apiErr.Code = wire.Error.Code
		apiErr.Message = wire.Error.Message
		if wire.Error.RetryAfterMs > 0 {
			apiErr.RetryAfter = time.Duration(wire.Error.RetryAfterMs) * time.Millisecond
		}
		apiErr.LeaderURL = wire.Error.LeaderURL
	}
	if apiErr.RetryAfter == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// temporary reports whether err is worth retrying.
func temporary(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Temporary()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Transport-level errors (connection refused, reset) are transient.
	return true
}

// retryAfterOf extracts the server's back-off hint from err.
func retryAfterOf(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}
