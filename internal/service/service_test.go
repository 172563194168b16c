package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"yap/internal/core"
	"yap/internal/sim"
)

// post sends a JSON body to path on the given handler and returns the
// recorded response.
func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func decodeBody[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode response %q: %v", w.Body.String(), err)
	}
	return v
}

func errorCode(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	return decodeBody[ErrorResponse](t, w).Error.Code
}

func TestEvaluateBaselineMatchesModel(t *testing.T) {
	s := New(Config{})
	w := post(t, s, "/v1/evaluate", `{}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[EvaluateResponse](t, w)
	if resp.W2W == nil || resp.D2W == nil {
		t.Fatal("default mode should return both breakdowns")
	}
	if resp.Cached {
		t.Error("first evaluation reported as cached")
	}
	wantW2W, err := core.Baseline().EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if resp.W2W.Total != wantW2W.Total {
		t.Errorf("W2W total %v != model %v", resp.W2W.Total, wantW2W.Total)
	}
	if len(resp.ParamsHash) != 16 {
		t.Errorf("params_hash %q is not a 16-hex digest", resp.ParamsHash)
	}
}

func TestEvaluateModesAndOverrides(t *testing.T) {
	s := New(Config{})
	w := post(t, s, "/v1/evaluate", `{"mode": "w2w", "params": {"Warpage": 30e-6}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[EvaluateResponse](t, w)
	if resp.W2W == nil || resp.D2W != nil {
		t.Fatalf("mode w2w returned %+v", resp)
	}
	p := core.Baseline()
	p.Warpage = 30e-6
	want, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if resp.W2W.Total != want.Total {
		t.Errorf("override ignored: total %v != %v", resp.W2W.Total, want.Total)
	}
	if resp.ParamsHash != p.HashString() {
		t.Errorf("hash %q != %q", resp.ParamsHash, p.HashString())
	}
}

func TestEvaluateCacheHit(t *testing.T) {
	s := New(Config{})
	body := `{"params": {"Pitch": 4e-6, "TopPadDiameter": 1.4e-6, "BottomPadDiameter": 2e-6}}`
	first := post(t, s, "/v1/evaluate", body)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	if decodeBody[EvaluateResponse](t, first).Cached {
		t.Error("first request was a cache hit")
	}
	second := post(t, s, "/v1/evaluate", body)
	resp := decodeBody[EvaluateResponse](t, second)
	if !resp.Cached {
		t.Error("repeated request missed the cache")
	}
	// Both modes of the repeat must be answered from cache: 2 hits, and
	// the /metrics counter must say so.
	if hits := s.cache.Stats().Hits; hits != 2 {
		t.Errorf("cache hits = %d, want 2", hits)
	}
	metrics := get(t, s, "/metrics").Body.String()
	if !strings.Contains(metrics, "yapserve_cache_hits_total 2") {
		t.Errorf("metrics do not report the hits:\n%s", metrics)
	}
	if !strings.Contains(metrics, "yapserve_cache_entries 2") {
		t.Errorf("metrics do not report 2 cached entries:\n%s", metrics)
	}
}

func TestEvaluateRejectsMalformedJSON(t *testing.T) {
	s := New(Config{})
	w := post(t, s, "/v1/evaluate", `{not json`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d", w.Code)
	}
	if code := errorCode(t, w); code != "invalid_json" {
		t.Errorf("error code %q", code)
	}
}

func TestEvaluateRejectsUnknownRequestField(t *testing.T) {
	s := New(Config{})
	if w := post(t, s, "/v1/evaluate", `{"modee": "w2w"}`); w.Code != http.StatusBadRequest {
		t.Errorf("typo'd request field: status %d", w.Code)
	}
}

func TestEvaluateRejectsUnknownParamField(t *testing.T) {
	s := New(Config{})
	w := post(t, s, "/v1/evaluate", `{"params": {"Pich": 3e-6}}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d", w.Code)
	}
	if code := errorCode(t, w); code != "invalid_params" {
		t.Errorf("error code %q", code)
	}
}

func TestEvaluateRejectsInvalidParams(t *testing.T) {
	s := New(Config{})
	// d2 > pitch fails core validation.
	w := post(t, s, "/v1/evaluate", `{"params": {"Pitch": 1e-6}}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if code := errorCode(t, w); code != "invalid_params" {
		t.Errorf("error code %q", code)
	}
}

func TestEvaluateRejectsInvalidMode(t *testing.T) {
	s := New(Config{})
	w := post(t, s, "/v1/evaluate", `{"mode": "w2d"}`)
	if w.Code != http.StatusBadRequest || errorCode(t, w) != "invalid_mode" {
		t.Errorf("status %d body %s", w.Code, w.Body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := New(Config{})
	w := get(t, s, "/v1/evaluate")
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", w.Code)
	}
	if allow := w.Header().Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q", allow)
	}
	if w := post(t, s, "/metrics", ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d", w.Code)
	}
}

func TestBodyTooLarge(t *testing.T) {
	s := New(Config{MaxBodyBytes: 64})
	// A long (valid) number forces the decoder past the byte limit before
	// any syntax error can fire.
	big := `{"params": {"EdgeExclusion": 0.` + strings.Repeat("0", 300) + `}}`
	w := post(t, s, "/v1/evaluate", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if code := errorCode(t, w); code != "body_too_large" {
		t.Errorf("error code %q", code)
	}
}

func TestSimulateDeterministicAcrossWorkerCounts(t *testing.T) {
	s := New(Config{})
	run := func(workers int) SimulateResponse {
		body := fmt.Sprintf(`{"mode": "w2w", "seed": 42, "wafers": 10, "workers": %d}`, workers)
		w := post(t, s, "/v1/simulate", body)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return decodeBody[SimulateResponse](t, w)
	}
	r1, r4 := run(1), run(4)
	if r1.Survived != r4.Survived || r1.Yield != r4.Yield || r1.Dies != r4.Dies {
		t.Errorf("worker count changed results:\n1: %+v\n4: %+v", r1, r4)
	}
	// The service must agree exactly with the library entry point.
	direct, err := sim.RunW2W(sim.Options{Params: core.Baseline(), Seed: 42, Wafers: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Survived != direct.Counts.Survived || r1.Yield != direct.Yield {
		t.Errorf("service %+v != direct %+v", r1, direct)
	}
	if r1.Mode != "W2W" || r1.Seed != 42 {
		t.Errorf("echo fields wrong: %+v", r1)
	}
}

func TestSimulateD2W(t *testing.T) {
	s := New(Config{})
	w := post(t, s, "/v1/simulate", `{"mode": "d2w", "seed": 7, "dies": 2000}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[SimulateResponse](t, w)
	if resp.Mode != "D2W" || resp.Dies != 2000 {
		t.Errorf("bad response %+v", resp)
	}
	if resp.Yield < 0 || resp.Yield > 1 || resp.YieldLo > resp.Yield || resp.YieldHi < resp.Yield {
		t.Errorf("yield/CI inconsistent: %+v", resp)
	}
	metrics := get(t, s, "/metrics").Body.String()
	if !strings.Contains(metrics, `yapserve_sim_samples_total{mode="d2w"} 2000`) {
		t.Errorf("sim samples not counted:\n%s", metrics)
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	s := New(Config{})
	if w := post(t, s, "/v1/simulate", `{"mode": "nope"}`); w.Code != http.StatusBadRequest {
		t.Errorf("bad mode: status %d", w.Code)
	}
	if w := post(t, s, "/v1/simulate", `{"wafers": -1}`); w.Code != http.StatusBadRequest {
		t.Errorf("negative wafers: status %d", w.Code)
	}
	if w := post(t, s, "/v1/simulate", `{"params": {"Pitch": 1e-6}}`); w.Code != http.StatusBadRequest {
		t.Errorf("invalid params: status %d", w.Code)
	}
}

func TestSimulateClientCancellationAbortsRun(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
		strings.NewReader(`{"mode": "w2w", "seed": 1, "wafers": 1048576, "workers": 2}`))
	req = req.WithContext(ctx)
	w := httptest.NewRecorder()

	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	s.ServeHTTP(w, req) // sized for minutes if not aborted
	if d := time.Since(start); d > 15*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	if w.Code != statusClientClosedRequest {
		t.Errorf("status %d: %s", w.Code, w.Body)
	}
	if code := errorCode(t, w); code != "canceled" {
		t.Errorf("error code %q", code)
	}
	if active := s.pool.Active(); active != 0 {
		t.Errorf("pool still has %d active jobs after abort", active)
	}
}

func TestSimulateDeadlineReturnsPartial(t *testing.T) {
	// A server-side deadline that fires mid-run no longer throws the
	// finished wafers away: the response is a 200 with "partial": true and
	// the completed/requested accounting.
	s := New(Config{RequestTimeout: 50 * time.Millisecond})
	w := post(t, s, "/v1/simulate", `{"mode": "w2w", "seed": 1, "wafers": 1048576, "workers": 2}`)
	if w.Code == http.StatusServiceUnavailable {
		// Legal only when zero wafers completed before the deadline.
		if code := errorCode(t, w); code != "deadline_exceeded" {
			t.Errorf("error code %q", code)
		}
		t.Skip("no wafer completed within the deadline on this machine")
	}
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[SimulateResponse](t, w)
	if !resp.Partial {
		t.Fatalf("deadline-limited run not marked partial: %+v", resp)
	}
	if resp.Completed <= 0 || resp.Completed >= resp.Requested {
		t.Errorf("completed %d of %d, want 0 < completed < requested", resp.Completed, resp.Requested)
	}
	if resp.Requested != 1048576 {
		t.Errorf("requested = %d, want 1048576", resp.Requested)
	}
	if resp.Yield < 0 || resp.Yield > 1 || resp.Dies == 0 {
		t.Errorf("partial response carries incoherent yields: %+v", resp)
	}
}

func TestSweepPartialFailure(t *testing.T) {
	s := New(Config{})
	body := `{"mode": "d2w", "points": [
		{"Pitch": 4e-6, "TopPadDiameter": 1.4e-6, "BottomPadDiameter": 2e-6},
		{"Pich": 3e-6},
		{},
		{"Pitch": 1e-6}
	]}`
	w := post(t, s, "/v1/sweep", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[BatchEvaluateResponse](t, w)
	if len(resp.Points) != 4 {
		t.Fatalf("got %d points", len(resp.Points))
	}
	if resp.Failed != 2 {
		t.Errorf("failed = %d, want 2", resp.Failed)
	}
	for i, pt := range resp.Points {
		if pt.Index != i {
			t.Errorf("point %d misordered: %+v", i, pt)
		}
	}
	if resp.Points[0].D2W == nil || resp.Points[0].W2W != nil {
		t.Errorf("point 0 wrong modes: %+v", resp.Points[0])
	}
	if resp.Points[1].Error == "" || resp.Points[3].Error == "" {
		t.Error("bad points did not report errors")
	}
	if resp.Points[2].D2W == nil {
		t.Error("baseline point failed")
	}

	// The same point re-submitted must hit the evaluate cache.
	again := decodeBody[BatchEvaluateResponse](t, post(t, s, "/v1/sweep",
		`{"mode": "d2w", "points": [{}]}`))
	if !again.Points[0].Cached {
		t.Error("repeated sweep point missed the cache")
	}
}

func TestSweepRejectsEmptyAndOversized(t *testing.T) {
	s := New(Config{MaxSweepPoints: 2})
	if w := post(t, s, "/v1/sweep", `{"points": []}`); w.Code != http.StatusBadRequest {
		t.Errorf("empty sweep: status %d", w.Code)
	}
	w := post(t, s, "/v1/sweep", `{"points": [{}, {}, {}]}`)
	if w.Code != http.StatusBadRequest || errorCode(t, w) != "too_many_points" {
		t.Errorf("oversized sweep: status %d body %s", w.Code, w.Body)
	}
}

func TestHealthz(t *testing.T) {
	s := New(Config{})
	w := get(t, s, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	resp := decodeBody[HealthResponse](t, w)
	if resp.Status != "ok" || resp.UptimeSeconds < 0 {
		t.Errorf("bad health %+v", resp)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := New(Config{})
	post(t, s, "/v1/evaluate", `{}`)
	w := get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		`yapserve_requests_total{endpoint="evaluate",code="200"} 1`,
		`yapserve_request_duration_seconds_bucket{endpoint="evaluate",le="+Inf"} 1`,
		"yapserve_request_duration_seconds_count",
		"yapserve_cache_misses_total 2",
		"yapserve_inflight_requests",
		"yapserve_pool_capacity",
		"# TYPE yapserve_requests_total counter",
		"# TYPE yapserve_request_duration_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestEndToEndOverRealHTTP exercises the full stack — TCP, routing,
// concurrent requests — the way the daemon serves it.
func TestEndToEndOverRealHTTP(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var firstHash string
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json",
				strings.NewReader(`{"mode": "both"}`))
			if err != nil {
				done <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				done <- fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var eval EvaluateResponse
	if err := json.NewDecoder(resp.Body).Decode(&eval); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	firstHash = eval.ParamsHash
	if !eval.Cached {
		t.Error("fifth identical evaluate not cached")
	}
	if firstHash != core.Baseline().HashString() {
		t.Errorf("hash %q != baseline %q", firstHash, core.Baseline().HashString())
	}
}
