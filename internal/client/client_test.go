package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"yap/internal/resilience"
	"yap/internal/service"
)

// fastBackoff keeps test retries in the microsecond range.
var fastBackoff = resilience.Backoff{Base: time.Microsecond, Max: 10 * time.Microsecond}

func newTestClient(t *testing.T, h http.Handler, mut func(*Config)) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	cfg := Config{BaseURL: ts.URL, HTTPClient: ts.Client(), Backoff: fastBackoff}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, ts
}

func TestNewValidatesBaseURL(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty BaseURL accepted")
	}
	if _, err := New(Config{BaseURL: "ftp://x"}); err == nil {
		t.Error("non-http BaseURL accepted")
	}
}

func TestRetriesOverloadedThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"busy","retry_after_ms":1}}`)) //nolint:errcheck
			return
		}
		w.Write([]byte(`{"status":"ok","uptime_seconds":1}`)) //nolint:errcheck
	}), nil)
	resp, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" {
		t.Errorf("status %q", resp.Status)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 3", n)
	}
}

func TestPermanentErrorDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"invalid_params","message":"nope"}}`)) //nolint:errcheck
	}), nil)
	_, err := c.Evaluate(context.Background(), service.EvaluateRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Code != "invalid_params" || apiErr.Status != http.StatusBadRequest || apiErr.Temporary() {
		t.Errorf("apiErr = %+v", apiErr)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("permanent error retried: %d calls", n)
	}
}

func TestAttemptsExhausted(t *testing.T) {
	var calls atomic.Int64
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":"internal","message":"boom"}}`)) //nolint:errcheck
	}), func(cfg *Config) { cfg.MaxAttempts = 3 })
	_, err := c.Health(context.Background())
	if !errors.Is(err, ErrAttemptsExhausted) {
		t.Fatalf("want ErrAttemptsExhausted, got %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "internal" {
		t.Errorf("exhaustion error lost the cause: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 3", n)
	}
}

func TestRetryAfterHintIsHonored(t *testing.T) {
	var calls atomic.Int64
	var firstRetryGap time.Duration
	var last time.Time
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		if calls.Add(1) == 2 {
			firstRetryGap = now.Sub(last)
		}
		last = now
		if calls.Load() == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"busy","retry_after_ms":50}}`)) //nolint:errcheck
			return
		}
		w.Write([]byte(`{"status":"ok","uptime_seconds":1}`)) //nolint:errcheck
	}), nil)
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The 50ms hint dominates the microsecond backoff schedule.
	if firstRetryGap < 45*time.Millisecond {
		t.Errorf("retry arrived after %v, want >= ~50ms per the server hint", firstRetryGap)
	}
}

func TestContextCancelsBackoff(t *testing.T) {
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"busy","retry_after_ms":60000}}`)) //nolint:errcheck
	}), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Health(ctx)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded in chain, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("client ignored the context for %v", d)
	}
}

func TestSimulatePartialSurfaced(t *testing.T) {
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"params_hash":"ab","mode":"W2W","seed":1,"dies":100,"survived":90,
			"yield":0.9,"yield_lo":0.82,"yield_hi":0.95,"workers":2,
			"partial":true,"completed":10,"requested":1000}`)) //nolint:errcheck
	}), nil)
	resp, err := c.Simulate(context.Background(), service.SimulateRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || resp.Completed != 10 || resp.Requested != 1000 {
		t.Errorf("partial fields lost on the wire: %+v", resp)
	}
}
