// Chaos tests: drive a real HTTP server through the retrying client with
// fault injection armed on every hook, and assert the resilience
// invariant — every request resolves (200, possibly partial; a typed
// error with a known code; or a retry chain that ends in success or a
// typed exhaustion error). No request may hang and no injected panic may
// escape a handler. The suite lives in package service_test because it
// exercises internal/client against internal/service end to end.
//
// Run targeted (this is what `make chaos` and the CI chaos job do):
//
//	go test -race -run 'Chaos|Fault' ./...
package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"yap/internal/client"
	"yap/internal/faultinject"
	"yap/internal/resilience"
	"yap/internal/service"
)

// chaosPlan is the default injection plan when YAP_FAULTS is unset: every
// wired hook misbehaves at a rate high enough to exercise each failure
// path in a few hundred requests but low enough that retries succeed.
const chaosPlan = "seed=1,service.cache.get=0.1:error," +
	"service.cache.put=0.1:error," +
	"service.pool.admit=0.05:error," +
	"sim.w2w.wafer=0.02:error,sim.w2w.wafer=0.02:delay:200us," +
	"sim.d2w.die=0.02:error,sim.d2w.die=0.01:panic"

func chaosInjector(t *testing.T) *faultinject.Injector {
	t.Helper()
	if inj, err := faultinject.FromEnv(); err != nil {
		t.Fatalf("bad %s: %v", faultinject.EnvVar, err)
	} else if inj != nil {
		t.Logf("fault plan from %s: %s", faultinject.EnvVar, inj)
		return inj
	}
	inj, err := faultinject.ParseSpec(chaosPlan)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// knownErrorCodes are the documented ErrorDetail codes a chaos request may
// legitimately end on.
var knownErrorCodes = map[string]bool{
	"method_not_allowed": true, "invalid_json": true, "invalid_params": true,
	"invalid_mode": true, "too_many_points": true, "body_too_large": true,
	"deadline_exceeded": true, "canceled": true, "overloaded": true,
	"internal": true,
}

func TestChaosEveryRequestResolves(t *testing.T) {
	srv := service.New(service.Config{
		MaxConcurrentSims: 2,
		MaxQueuedSims:     4,
		RequestTimeout:    2 * time.Second,
		BreakerThreshold:  50, // high enough that sporadic injected faults don't latch it open
		BreakerCooldown:   20 * time.Millisecond,
		RetryAfter:        5 * time.Millisecond,
		Faults:            chaosInjector(t),
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const workers, perWorker = 8, 25
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errCh := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.New(client.Config{
				BaseURL:     ts.URL,
				HTTPClient:  ts.Client(),
				MaxAttempts: 6,
				Backoff:     resilience.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond, Seed: uint64(w)},
			})
			if err != nil {
				errCh <- err
				return
			}
			for i := 0; i < perWorker; i++ {
				if err := chaosRequest(ctx, c, w*perWorker+i); err != nil {
					errCh <- fmt.Errorf("worker %d request %d: %w", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if ctx.Err() != nil {
		t.Fatal("chaos run overran its deadline — some request hung")
	}
}

// chaosRequest issues one request from the workload mix and applies the
// resolution invariant. Returns nil when the outcome is acceptable.
func chaosRequest(ctx context.Context, c *client.Client, n int) error {
	var err error
	switch n % 5 {
	case 0, 1:
		_, err = c.Evaluate(ctx, service.EvaluateRequest{})
	case 2:
		var resp *service.SimulateResponse
		resp, err = c.Simulate(ctx, service.SimulateRequest{Mode: "w2w", Seed: 42, Wafers: 6, Workers: 2})
		if err == nil && resp.Partial && resp.Completed >= resp.Requested {
			return fmt.Errorf("partial response with completed %d >= requested %d", resp.Completed, resp.Requested)
		}
	case 3:
		_, err = c.Simulate(ctx, service.SimulateRequest{Mode: "d2w", Seed: 42, Dies: 800, Workers: 2})
	case 4:
		_, err = c.EvaluateBatch(ctx, service.BatchEvaluateRequest{Mode: "w2w", Points: []json.RawMessage{
			json.RawMessage(`{}`), json.RawMessage(`{"Pitch": 3e-6}`),
		}})
	}
	return acceptableOutcome(err)
}

// acceptableOutcome enforces the invariant on one finished call.
func acceptableOutcome(err error) error {
	if err == nil {
		return nil
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		if !knownErrorCodes[apiErr.Code] {
			return fmt.Errorf("undocumented error code %q: %w", apiErr.Code, err)
		}
		return nil // typed failure with a documented code — resolved
	}
	if errors.Is(err, client.ErrAttemptsExhausted) {
		// Exhaustion is resolution too (bounded, not hung) — but the cause
		// chain must still be a typed/transport error, checked above when
		// typed; transport errors pass here.
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return fmt.Errorf("request consumed the whole chaos deadline: %w", err)
	}
	return fmt.Errorf("unclassifiable outcome: %w", err)
}

func TestFaultPanicRecoveredAndCounted(t *testing.T) {
	// A certain panic at the cache-get hook must become a 500 "internal",
	// never kill the server, and be visible in the metrics.
	inj := faultinject.New(1, faultinject.Rule{
		Hook: faultinject.HookCacheGet, Mode: faultinject.ModePanic, Probability: 1,
	})
	srv := service.New(service.Config{Faults: inj})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var wire service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Error.Code != "internal" {
		t.Errorf("code %q, want internal", wire.Error.Code)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close() //nolint:errcheck
	body, _ := io.ReadAll(metrics.Body)
	if !strings.Contains(string(body), "yapserve_panics_recovered_total 1") {
		t.Error("panic not counted in yapserve_panics_recovered_total")
	}
}

func TestFaultOverloadedCarriesRetryAfter(t *testing.T) {
	// One slot, no queue: a second simulate while the first is running
	// must shed with the documented "overloaded" code and both back-off
	// hints.
	srv := service.New(service.Config{
		MaxConcurrentSims: 1,
		MaxQueuedSims:     -1,
		RetryAfter:        1500 * time.Millisecond,
		// The occupying run degrades to a partial result at the timeout,
		// which is also this test's upper bound on waiting for it.
		RequestTimeout: 3 * time.Second,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	release := make(chan struct{})
	go func() {
		// Occupy the only slot with a simulate sized well past the
		// request timeout.
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
			strings.NewReader(`{"mode":"w2w","seed":1,"wafers":200000,"workers":1}`))
		if err == nil {
			resp.Body.Close() //nolint:errcheck
		}
		close(release)
	}()

	// Wait until the server reports the slot held — probing with a real
	// simulate instead could steal the slot and shed the occupier.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("occupying simulate never acquired the pool slot")
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		if strings.Contains(string(body), "yapserve_pool_active 1") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The slot is held for the 3 s request timeout; a simulate landing
	// now must shed immediately with both back-off hints.
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"mode":"w2w","seed":2,"wafers":1,"workers":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while the only slot is held", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After header %q, want %q (1.5s rounded up)", got, "2")
	}
	var wire service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Error.Code != "overloaded" {
		t.Errorf("code %q, want overloaded", wire.Error.Code)
	}
	if wire.Error.RetryAfterMs != 1500 {
		t.Errorf("retry_after_ms %d, want 1500", wire.Error.RetryAfterMs)
	}
	<-release
}

func TestFaultBreakerOpensOnInternalSimFailures(t *testing.T) {
	// Deterministic engine failures trip the server-side breaker after
	// the configured threshold; subsequent requests shed as "overloaded"
	// without entering the pool.
	inj := faultinject.New(1, faultinject.Rule{
		Hook: faultinject.HookSimW2WWafer, Mode: faultinject.ModeError, Probability: 1,
	})
	srv := service.New(service.Config{
		Faults:           inj,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	simulate := func() (int, string) {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
			strings.NewReader(`{"mode":"w2w","seed":1,"wafers":4,"workers":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck
		var wire service.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, wire.Error.Code
	}
	for i := 0; i < 2; i++ {
		if status, code := simulate(); status != http.StatusInternalServerError || code != "internal" {
			t.Fatalf("request %d: status %d code %q, want 500 internal", i, status, code)
		}
	}
	status, code := simulate()
	if status != http.StatusServiceUnavailable || code != "overloaded" {
		t.Fatalf("post-trip request: status %d code %q, want 503 overloaded", status, code)
	}
}

func TestFaultPoolAdmitCountsAgainstBreaker(t *testing.T) {
	// An injected service.pool.admit failure is an internal error of the
	// engine path, never a shed: simulate and shard answer 500 "internal",
	// the failure trips a threshold-1 breaker, and no pool slot is taken.
	for _, tc := range []struct{ path, body string }{
		{"/v1/simulate", `{"mode":"w2w","seed":1,"wafers":4,"workers":1}`},
		{"/v1/shard", `{"mode":"d2w","seed":1,"start":0,"count":50,"workers":1}`},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			inj := faultinject.New(1, faultinject.Rule{
				Hook: faultinject.HookPoolAdmit, Mode: faultinject.ModeError, Probability: 1,
			})
			srv := service.New(service.Config{Faults: inj, BreakerThreshold: 1, BreakerCooldown: time.Hour})
			ts := httptest.NewServer(srv)
			defer ts.Close()

			call := func() (int, string) {
				resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close() //nolint:errcheck
				var wire service.ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, wire.Error.Code
			}
			if status, code := call(); status != http.StatusInternalServerError || code != "internal" {
				t.Fatalf("armed admission: status %d code %q, want 500 internal", status, code)
			}
			if status, code := call(); status != http.StatusServiceUnavailable || code != "overloaded" {
				t.Fatalf("after one admission fault: status %d code %q, want 503 overloaded (breaker open)", status, code)
			}
			if rolls := inj.Stats()[faultinject.HookPoolAdmit].Rolls; rolls != 1 {
				t.Errorf("admit hook rolled %d times, want 1 (the open breaker sheds before admission)", rolls)
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close() //nolint:errcheck
			for _, line := range []string{"yapserve_pool_active 0", "yapserve_breaker_state 1"} {
				if !strings.Contains(string(body), line+"\n") {
					t.Errorf("/metrics lacks %q", line)
				}
			}
		})
	}
}

func TestFaultCanceledProbeReleasesBreaker(t *testing.T) {
	// A half-open probe that the client cancels is a neutral outcome: it
	// must free the probe slot, so the next simulate is admitted instead
	// of shed as "overloaded" until the daemon restarts. The admission
	// delay holds the probe long enough for the client to give up.
	inj := faultinject.New(1,
		faultinject.Rule{Hook: faultinject.HookSimW2WWafer, Mode: faultinject.ModeError, Probability: 1},
		faultinject.Rule{Hook: faultinject.HookPoolAdmit, Mode: faultinject.ModeDelay, Probability: 1, Delay: 300 * time.Millisecond},
	)
	srv := service.New(service.Config{Faults: inj, BreakerThreshold: 1, BreakerCooldown: 10 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const d2w = `{"mode":"d2w","seed":1,"dies":200,"workers":1}`
	simulate := func(ctx context.Context, body string) (int, string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close() //nolint:errcheck
		var wire service.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, wire.Error.Code, nil
	}
	if status, code, err := simulate(context.Background(), `{"mode":"w2w","seed":1,"wafers":4,"workers":1}`); err != nil ||
		status != http.StatusInternalServerError || code != "internal" {
		t.Fatalf("failing simulate: status %d code %q err %v, want 500 internal", status, code, err)
	}
	time.Sleep(20 * time.Millisecond) // past the cooldown: the next simulate is the probe
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, _, err := simulate(ctx, d2w)
	cancel()
	if err == nil {
		t.Fatal("the probe answered before the client gave up")
	}
	// The probe's handler ends once its admission delay sees the cancel.
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		if strings.Contains(string(body), `yapserve_requests_total{endpoint="simulate",code="499"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the canceled probe never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status, code, err := simulate(context.Background(), d2w); err != nil || status != http.StatusOK {
		t.Fatalf("after a canceled probe: status %d code %q err %v, want 200", status, code, err)
	}
}

func TestFaultShutdownShedsNewSimulations(t *testing.T) {
	srv := service.New(service.Config{MaxConcurrentSims: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown on idle server: %v", err)
	}

	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"mode":"w2w","seed":1,"wafers":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503 during shutdown", resp.StatusCode)
	}
	// Health stays up through the drain so balancers can watch it.
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close() //nolint:errcheck
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz %d during shutdown, want 200", health.StatusCode)
	}
}
