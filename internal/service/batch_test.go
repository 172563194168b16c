package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/fleetcache"
)

// put sends a JSON body with PUT to path on the given handler.
func put(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPut, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestBatchMatchesIndividualEvaluates is the batch endpoint's core
// contract: every point's breakdown is bit-identical to the same params
// sent through /v1/evaluate — including a layout-bearing point.
func TestBatchMatchesIndividualEvaluates(t *testing.T) {
	points := []string{
		`{}`,
		`{"Pitch": 4e-6, "TopPadDiameter": 1.4e-6, "BottomPadDiameter": 2e-6}`,
		`{"Warpage": 30e-6}`,
		fmt.Sprintf(`{"layout": %s}`, multiRegionJSON),
	}
	batchSrv := New(Config{})
	body := fmt.Sprintf(`{"points": [%s]}`, strings.Join(points, ","))
	w := post(t, batchSrv, "/v1/evaluate/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[BatchEvaluateResponse](t, w)
	if len(resp.Points) != len(points) || resp.Failed != 0 {
		t.Fatalf("points=%d failed=%d: %s", len(resp.Points), resp.Failed, w.Body)
	}
	// Individual evaluates go to a FRESH server so nothing is shared but
	// the math.
	evalSrv := New(Config{})
	for i, raw := range points {
		pt := resp.Points[i]
		if pt.Index != i {
			t.Fatalf("point %d streamed out of order (index %d)", i, pt.Index)
		}
		ew := post(t, evalSrv, "/v1/evaluate", fmt.Sprintf(`{"params": %s}`, raw))
		if ew.Code != http.StatusOK {
			t.Fatalf("evaluate point %d: %d %s", i, ew.Code, ew.Body)
		}
		want := decodeBody[EvaluateResponse](t, ew)
		if pt.ParamsHash != want.ParamsHash {
			t.Errorf("point %d hash %q != evaluate %q", i, pt.ParamsHash, want.ParamsHash)
		}
		if *pt.W2W != *want.W2W || *pt.D2W != *want.D2W {
			t.Errorf("point %d breakdowns differ:\nbatch %+v %+v\neval  %+v %+v",
				i, pt.W2W, pt.D2W, want.W2W, want.D2W)
		}
	}
}

// TestBatchSharedBase verifies the shared-base merge order: point
// overrides apply over the request base, which applies over the daemon
// defaults.
func TestBatchSharedBase(t *testing.T) {
	s := New(Config{})
	body := `{"mode": "w2w", "params": {"Warpage": 30e-6},
		"points": [null, {"Pitch": 4e-6, "TopPadDiameter": 1.4e-6, "BottomPadDiameter": 2e-6}]}`
	w := post(t, s, "/v1/evaluate/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[BatchEvaluateResponse](t, w)

	base := core.Baseline()
	base.Warpage = 30e-6
	wantBase, err := base.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	merged := base
	merged.Pitch = 4e-6
	merged.TopPadDiameter = 1.4e-6
	merged.BottomPadDiameter = 2e-6
	wantMerged, err := merged.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Points[0].W2W.Total != wantBase.Total {
		t.Errorf("null point: %v != base %v", resp.Points[0].W2W.Total, wantBase.Total)
	}
	if resp.Points[0].ParamsHash != base.HashString() {
		t.Errorf("null point hash %q != %q", resp.Points[0].ParamsHash, base.HashString())
	}
	if resp.Points[1].W2W.Total != wantMerged.Total {
		t.Errorf("override point: %v != merged %v", resp.Points[1].W2W.Total, wantMerged.Total)
	}
	if resp.Points[1].D2W != nil {
		t.Error("mode w2w returned a d2w breakdown")
	}
}

// TestBatchPerPointErrorIsolation: a bad point reports its error in
// place; the rest of the batch answers normally with a 200.
func TestBatchPerPointErrorIsolation(t *testing.T) {
	s := New(Config{})
	w := post(t, s, "/v1/evaluate/batch",
		`{"points": [{}, {"NoSuchKnob": 1}, {"Pitch": -1}, {}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[BatchEvaluateResponse](t, w)
	if resp.Failed != 2 {
		t.Fatalf("failed = %d, want 2: %s", resp.Failed, w.Body)
	}
	for _, i := range []int{1, 2} {
		if resp.Points[i].Error == "" || resp.Points[i].W2W != nil {
			t.Errorf("bad point %d: %+v", i, resp.Points[i])
		}
	}
	for _, i := range []int{0, 3} {
		if resp.Points[i].Error != "" || resp.Points[i].W2W == nil {
			t.Errorf("good point %d: %+v", i, resp.Points[i])
		}
	}
}

// TestBatchTallyPartitionsOutcomes: repeated points within one batch are
// either local hits or coalesced flights — and the tail partition sums to
// every per-point-per-mode evaluation.
func TestBatchTallyPartitionsOutcomes(t *testing.T) {
	s := New(Config{})
	// Warm one key, then batch it 4× alongside 2 distinct cold keys.
	if w := post(t, s, "/v1/evaluate", `{"mode": "w2w"}`); w.Code != http.StatusOK {
		t.Fatalf("warm: %d", w.Code)
	}
	body := `{"mode": "w2w", "points": [null, null, null, null,
		{"Pitch": 4e-6, "TopPadDiameter": 1.4e-6, "BottomPadDiameter": 2e-6},
		{"Warpage": 30e-6}]}`
	w := post(t, s, "/v1/evaluate/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[BatchEvaluateResponse](t, w)
	total := resp.CacheHits + resp.PeerHits + resp.Coalesced + resp.Computed
	if total != 6 {
		t.Errorf("tally sums to %d, want 6: %+v", total, resp)
	}
	if resp.CacheHits < 4 {
		t.Errorf("warmed repeats were not local hits: %+v", resp)
	}
	if resp.Computed != 2 {
		t.Errorf("computed = %d, want 2 cold keys: %+v", resp.Computed, resp)
	}
	for _, i := range []int{0, 1, 2, 3} {
		if !resp.Points[i].Cached {
			t.Errorf("warmed point %d not cached", i)
		}
	}
}

// TestBatchStreamsValidJSON reads the raw streamed body and checks it is
// one well-formed JSON object with points in index order.
func TestBatchStreamsValidJSON(t *testing.T) {
	s := New(Config{})
	w := post(t, s, "/v1/evaluate/batch", `{"mode": "w2w", "points": [{}, {"Warpage": 30e-6}, {}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type %q", ct)
	}
	var raw struct {
		Points []json.RawMessage `json:"points"`
		Failed *int              `json:"failed"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatalf("stream is not one JSON object: %v\n%s", err, w.Body)
	}
	if len(raw.Points) != 3 || raw.Failed == nil {
		t.Fatalf("stream shape: %s", w.Body)
	}
}

func TestBatchValidation(t *testing.T) {
	s := New(Config{MaxSweepPoints: 2})
	for _, tc := range []struct {
		body, code string
		status     int
	}{
		{`{"points": []}`, "invalid_params", http.StatusBadRequest},
		{`{"mode": "sideways", "points": [{}]}`, "invalid_mode", http.StatusBadRequest},
		{`{"points": [{}, {}, {}]}`, "too_many_points", http.StatusBadRequest},
		{`{"params": {"NoSuchKnob": 1}, "points": [{}]}`, "invalid_params", http.StatusBadRequest},
	} {
		w := post(t, s, "/v1/evaluate/batch", tc.body)
		if w.Code != tc.status || errorCode(t, w) != tc.code {
			t.Errorf("%s: got %d %s, want %d %s", tc.body, w.Code, errorCode(t, w), tc.status, tc.code)
		}
	}
}

// TestFaultSecondModeFailureCarriesOnlyTheError: a "both" point whose W2W
// entry is already cached but whose D2W flight fails answers its params
// hash and the error alone, not the W2W breakdown and "cached": true
// beside the error; SweepPoint promises exactly one of error or yields.
func TestFaultSecondModeFailureCarriesOnlyTheError(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Hook: faultinject.HookFleetFlight, Mode: faultinject.ModeError, Probability: 1,
	})
	s := New(Config{Faults: inj})
	p := *s.cfg.Defaults
	h := p.CanonicalHash()
	w2w, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Adopt(fleetcache.ModeW2W, h, p, w2w)

	w := post(t, s, "/v1/evaluate/batch", `{"mode": "both", "points": [{}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	var resp BatchEvaluateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Points) != 1 {
		t.Fatalf("batch answer %s: %v", w.Body, err)
	}
	want := SweepPoint{ParamsHash: fmt.Sprintf("%016x", h), Error: resp.Points[0].Error}
	if resp.Failed != 1 || resp.Points[0].Error == "" || resp.Points[0] != want {
		t.Errorf("failed = %d, answer %s; want the point to carry the params hash and the error only",
			resp.Failed, strings.TrimSpace(w.Body.String()))
	}
}

// TestEvaluateThunderingHerd: N concurrent identical /v1/evaluate
// requests produce exactly ONE engine computation. A deterministic delay
// injected at the flight hook holds the leader's computation open until
// every straggler has arrived, so the coalescing is load-bearing, not
// lucky timing; the hook's roll count IS the engine-computation count.
func TestEvaluateThunderingHerd(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Hook:        faultinject.HookFleetFlight,
		Mode:        faultinject.ModeDelay,
		Probability: 1,
		Delay:       100 * time.Millisecond,
	})
	s := New(Config{Faults: inj})
	const herd = 16
	var wg sync.WaitGroup
	codes := make([]int, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, s, "/v1/evaluate", `{"mode": "w2w", "params": {"Warpage": 30e-6}}`)
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	if rolls := inj.Stats()[faultinject.HookFleetFlight].Rolls; rolls != 1 {
		t.Errorf("flight hook rolled %d times, want 1 (herd did not coalesce)", rolls)
	}
	if st := s.cache.Stats(); st.Computes != 1 {
		t.Errorf("computes = %d, want 1", st.Computes)
	}
}

// TestSweepPopulatesFleetCache: /v1/sweep rides the batch-evaluate path,
// so a sweep point warms the cache for a later individual evaluate.
func TestSweepPopulatesFleetCache(t *testing.T) {
	s := New(Config{})
	w := post(t, s, "/v1/sweep", `{"points": [{"Warpage": 30e-6}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", w.Code, w.Body)
	}
	ev := post(t, s, "/v1/evaluate", `{"params": {"Warpage": 30e-6}}`)
	if ev.Code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", ev.Code, ev.Body)
	}
	if !decodeBody[EvaluateResponse](t, ev).Cached {
		t.Error("evaluate after sweep missed the cache — sweep bypassed the fleet tier")
	}
}

// TestCacheGetEndpoint: the peer-exchange read side serves only the local
// store and reports misses with the breaker-neutral cache_miss code.
func TestCacheGetEndpoint(t *testing.T) {
	s := New(Config{})
	p := core.Baseline()
	p.Warpage = 30e-6
	key := "/v1/cache/w2w/" + p.HashString()

	if w := get(t, s, key); w.Code != http.StatusNotFound || errorCode(t, w) != "cache_miss" {
		t.Fatalf("cold get: %d %s", w.Code, w.Body)
	}
	if w := post(t, s, "/v1/evaluate", `{"mode": "w2w", "params": {"Warpage": 30e-6}}`); w.Code != http.StatusOK {
		t.Fatal("warm failed")
	}
	w := get(t, s, key)
	if w.Code != http.StatusOK {
		t.Fatalf("warm get: %d %s", w.Code, w.Body)
	}
	e := decodeBody[CacheEntryResponse](t, w)
	if e.Mode != "w2w" || e.ParamsHash != p.HashString() {
		t.Errorf("entry key: %+v", e)
	}
	// The served params must independently re-derive the key's hash.
	q, err := core.DecodeParams(core.Baseline(), strings.NewReader(string(e.Params)))
	if err != nil {
		t.Fatalf("served params do not decode: %v", err)
	}
	if q.HashString() != e.ParamsHash || !q.Equal(p) {
		t.Error("served params do not verify against the key")
	}
	want, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if e.Breakdown.Total != want.Total {
		t.Errorf("breakdown %v != %v", e.Breakdown.Total, want.Total)
	}

	if w := get(t, s, "/v1/cache/sideways/"+p.HashString()); w.Code != http.StatusBadRequest || errorCode(t, w) != "invalid_mode" {
		t.Errorf("bad mode: %d %s", w.Code, w.Body)
	}
	if w := get(t, s, "/v1/cache/w2w/nothex"); w.Code != http.StatusBadRequest {
		t.Errorf("bad hash: %d %s", w.Code, w.Body)
	}
}

// TestCachePutEndpoint: an owner-warming offer is adopted only when its
// params re-derive the key in the path.
func TestCachePutEndpoint(t *testing.T) {
	s := New(Config{})
	p := core.Baseline()
	p.Warpage = 30e-6
	b, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"params": %s, "breakdown": {"overlay": %g, "recess": %g, "defect": %g, "total": %g}}`,
		raw, b.Overlay, b.Recess, b.Defect, b.Total)

	if w := put(t, s, "/v1/cache/w2w/"+p.HashString(), body); w.Code != http.StatusNoContent {
		t.Fatalf("put: %d %s", w.Code, w.Body)
	}
	// The adopted entry answers a later evaluate from cache.
	ev := post(t, s, "/v1/evaluate", `{"mode": "w2w", "params": {"Warpage": 30e-6}}`)
	if !decodeBody[EvaluateResponse](t, ev).Cached {
		t.Error("adopted entry did not serve the evaluate")
	}
	if st := s.cache.Stats(); st.Computes != 0 {
		t.Errorf("computes = %d after adoption, want 0", st.Computes)
	}

	// Same body offered under a different key: rejected, store untouched.
	other := core.Baseline()
	w := put(t, s, "/v1/cache/w2w/"+other.HashString(), body)
	if w.Code != http.StatusBadRequest || errorCode(t, w) != "hash_mismatch" {
		t.Fatalf("mismatched put: %d %s", w.Code, w.Body)
	}
	if w := get(t, s, "/v1/cache/w2w/"+other.HashString()); w.Code != http.StatusNotFound {
		t.Error("mismatched offer poisoned the store")
	}
	if w := put(t, s, "/v1/cache/w2w/"+p.HashString(), `{"breakdown": {"total": 1}}`); w.Code != http.StatusBadRequest {
		t.Errorf("empty params put: %d", w.Code)
	}
}

// BenchmarkBatchEvaluate measures the batch endpoint end to end on a
// warmed cache: 256 points per request, mode w2w.
func BenchmarkBatchEvaluate(b *testing.B) {
	s := New(Config{})
	var sb strings.Builder
	sb.WriteString(`{"mode": "w2w", "points": [`)
	for i := 0; i < 256; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"Warpage": %ge-6}`, 20+float64(i%64))
	}
	sb.WriteString(`]}`)
	body := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate/batch", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// sweepBody is a mixed sweep: a point over the defaults, a layout point,
// an unknown field and an invalid pitch.
var sweepBody = fmt.Sprintf(`{"mode": "both", "points": [{}, {"layout": %s}, {"Pich": 3e-6}, {"Pitch": 1e-6}]}`, multiRegionJSON)

// TestSweepMatchesBatch: /v1/sweep is the batch endpoint, so the same
// body answers the same points on both routes.
func TestSweepMatchesBatch(t *testing.T) {
	sweep := post(t, New(Config{}), "/v1/sweep", sweepBody)
	batch := post(t, New(Config{}), "/v1/evaluate/batch", sweepBody)
	if sweep.Code != http.StatusOK || batch.Code != http.StatusOK {
		t.Fatalf("sweep %d, batch %d:\n%s\n%s", sweep.Code, batch.Code, sweep.Body, batch.Body)
	}
	got := decodeBody[BatchEvaluateResponse](t, sweep)
	want := decodeBody[BatchEvaluateResponse](t, batch)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sweep answered\n%s\nbatch answered\n%s", sweep.Body, batch.Body)
	}
	if len(got.Points) != 4 || got.Failed != 2 {
		t.Errorf("points %d failed %d, want 4 and 2", len(got.Points), got.Failed)
	}
}

// TestSweepDeadlineFiredAnswersPerPointErrors: a sweep whose request
// deadline fires before its points run is a committed 200 with the
// deadline on every point, as for any batch, not an HTTP error; and the
// request still counts under the sweep endpoint's own label.
func TestSweepDeadlineFiredAnswersPerPointErrors(t *testing.T) {
	s := New(Config{RequestTimeout: time.Nanosecond})
	w := post(t, s, "/v1/sweep", `{"mode": "w2w", "points": [{}, {"Warpage": 30e-6}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[BatchEvaluateResponse](t, w)
	if len(resp.Points) != 2 || resp.Failed != 2 {
		t.Fatalf("points %d failed %d, want 2 and 2: %s", len(resp.Points), resp.Failed, w.Body)
	}
	for i, pt := range resp.Points {
		if pt.Index != i || !strings.Contains(pt.Error, "deadline exceeded") || pt.W2W != nil {
			t.Errorf("point %d: %+v, want a deadline error and no breakdown", i, pt)
		}
	}
	if m := get(t, s, "/metrics").Body.String(); !strings.Contains(m, `yapserve_requests_total{endpoint="sweep",code="200"} 1`) {
		t.Error(`/metrics lacks endpoint="sweep" for the sweep request`)
	}
}
