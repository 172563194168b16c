package dist

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"yap/internal/client"
	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/service"
	"yap/internal/sim"
)

// newWorker starts a real yapserve worker (the /v1/shard endpoint) on an
// httptest listener.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(service.New(service.Config{BreakerThreshold: -1}))
	t.Cleanup(srv.Close)
	return srv
}

// oneShot builds clients without client-level retries, so a dead worker
// surfaces as a dispatch failure (and hence a reassignment) immediately.
func oneShot(u string) (*client.Client, error) {
	return client.New(client.Config{BaseURL: u, MaxAttempts: 1})
}

func newCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func stripElapsed(r sim.Result) sim.Result {
	r.Elapsed = 0
	return r
}

func TestCoordinatorBitIdenticalToSingleNode(t *testing.T) {
	urls := []string{newWorker(t).URL, newWorker(t).URL, newWorker(t).URL}
	c := newCoordinator(t, Config{Workers: urls, HeartbeatInterval: -1})

	t.Run("w2w", func(t *testing.T) {
		opts := sim.Options{Params: core.Baseline(), Seed: 17, Wafers: 24, Workers: 2}
		want, err := sim.RunW2WContext(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, info, err := c.Simulate(context.Background(), "w2w", opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripElapsed(got), stripElapsed(want)) {
			t.Errorf("distributed %+v != single-node %+v", stripElapsed(got), stripElapsed(want))
		}
		if info.Shards != 6 || info.Reassigned != 0 {
			t.Errorf("info %+v, want 6 shards, 0 reassigned", info)
		}
	})

	t.Run("d2w", func(t *testing.T) {
		opts := sim.Options{Params: core.Baseline(), Seed: 23, Dies: 500, Workers: 2}
		want, err := sim.RunD2WContext(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.Simulate(context.Background(), "d2w", opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripElapsed(got), stripElapsed(want)) {
			t.Errorf("distributed %+v != single-node %+v", stripElapsed(got), stripElapsed(want))
		}
	})

	st := c.Stats()
	if st.WorkersKnown != 3 || st.WorkersUp != 3 {
		t.Errorf("fleet %d/%d, want 3/3 up", st.WorkersUp, st.WorkersKnown)
	}
	if st.RunsMerged != 2 {
		t.Errorf("runs merged %d, want 2", st.RunsMerged)
	}
	if st.ShardsDispatched < 12 {
		t.Errorf("shards dispatched %d, want >= 12", st.ShardsDispatched)
	}
}

func TestCoordinatorFirstSampleOffset(t *testing.T) {
	urls := []string{newWorker(t).URL, newWorker(t).URL}
	c := newCoordinator(t, Config{Workers: urls, HeartbeatInterval: -1})
	opts := sim.Options{Params: core.Baseline(), Seed: 5, Wafers: 10, FirstSample: 100}
	want, err := sim.RunW2WContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Simulate(context.Background(), "w2w", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripElapsed(got), stripElapsed(want)) {
		t.Error("offset run differs from single node")
	}
}

// A worker that dies mid-fleet: its shards reassign to the survivors and
// the merged result is still bit-identical to the single-node run.
func TestCoordinatorReassignsFromDeadWorker(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "injected worker death", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	good1, good2 := newWorker(t), newWorker(t)

	opts := sim.Options{Params: core.Baseline(), Seed: 31, Wafers: 18}
	want, err := sim.RunW2WContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	c := newCoordinator(t, Config{
		Workers:           []string{dead.URL, good1.URL, good2.URL},
		HeartbeatInterval: -1,
		ClientFactory:     oneShot,
	})
	// The dead worker only reassigns if its dispatcher wins a job before
	// the fleet drains the queue; retry a few cheap runs until it has.
	for i := 0; i < 5 && c.Stats().ShardsReassigned == 0; i++ {
		got, _, err := c.Simulate(context.Background(), "w2w", opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripElapsed(got), stripElapsed(want)) {
			t.Fatalf("run %d: reassigned result differs from single node", i)
		}
	}
	st := c.Stats()
	if st.ShardsReassigned == 0 {
		t.Error("dead worker never caused a reassignment")
	}
	if st.WorkersUp != 2 {
		t.Errorf("%d workers up, want 2 (dead one marked down)", st.WorkersUp)
	}
}

// A worker that recovers: marked down by a dispatch failure, revived by
// the heartbeat loop, and the run still completes exactly.
func TestCoordinatorHeartbeatRevivesWorker(t *testing.T) {
	inner := service.New(service.Config{BreakerThreshold: -1})
	var failures atomic.Int32
	failures.Store(1)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/v1/shard") && failures.Add(-1) >= 0 {
			http.Error(w, "transient worker failure", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	opts := sim.Options{Params: core.Baseline(), Seed: 47, Wafers: 8}
	want, err := sim.RunW2WContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	c := newCoordinator(t, Config{
		Workers:           []string{flaky.URL},
		HeartbeatInterval: 20 * time.Millisecond,
		DownBackoff:       5 * time.Millisecond,
		ClientFactory:     oneShot,
		MaxShardAttempts:  10,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, info, err := c.Simulate(ctx, "w2w", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripElapsed(got), stripElapsed(want)) {
		t.Error("revived run differs from single node")
	}
	if info.Reassigned == 0 {
		t.Error("expected at least one reassignment before revival")
	}
}

func TestCoordinatorPermanentFailureFailsFast(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"invalid_params","message":"no"}}`, http.StatusBadRequest)
	}))
	t.Cleanup(bad.Close)
	c := newCoordinator(t, Config{Workers: []string{bad.URL}, HeartbeatInterval: -1})
	_, _, err := c.Simulate(context.Background(), "w2w", sim.Options{Params: core.Baseline(), Wafers: 4})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("want wrapped 400 APIError, got %v", err)
	}
}

func TestCoordinatorHashSkewIsPermanent(t *testing.T) {
	skew := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"params_hash":"deadbeef","mode":"W2W","start":0,"count":2,
			"counts":{"dies":10,"overlay_pass":10,"defect_pass":10,"recess_pass":10,"survived":10},
			"completed":2,"requested":2}`))
	}))
	t.Cleanup(skew.Close)
	c := newCoordinator(t, Config{Workers: []string{skew.URL}, HeartbeatInterval: -1})
	_, _, err := c.Simulate(context.Background(), "w2w", sim.Options{Params: core.Baseline(), Wafers: 4})
	if err == nil || !strings.Contains(err.Error(), "config skew") {
		t.Fatalf("want config-skew failure, got %v", err)
	}
	if st := c.Stats(); st.RunsMerged != 0 {
		t.Error("skewed run must not merge")
	}
}

func TestCoordinatorExhaustedAttempts(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	c := newCoordinator(t, Config{
		Workers: []string{dead.URL}, HeartbeatInterval: -1,
		ClientFactory: oneShot, MaxShardAttempts: 1,
	})
	_, _, err := c.Simulate(context.Background(), "w2w", sim.Options{Params: core.Baseline(), Wafers: 4})
	if !errors.Is(err, ErrShardFailed) {
		t.Fatalf("want ErrShardFailed, got %v", err)
	}
}

func TestCoordinatorContextAbortsStalledRun(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	// One worker, many attempts allowed, no heartbeat: after the first
	// failure the fleet is all-down and the run can only end via ctx.
	c := newCoordinator(t, Config{
		Workers: []string{dead.URL}, HeartbeatInterval: -1,
		ClientFactory: oneShot, MaxShardAttempts: 100, DownBackoff: 5 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, _, err := c.Simulate(ctx, "w2w", sim.Options{Params: core.Baseline(), Wafers: 4})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline-based abort, got %v", err)
	}
}

func TestCoordinatorDispatchFaultsStayExact(t *testing.T) {
	urls := []string{newWorker(t).URL, newWorker(t).URL, newWorker(t).URL}
	inj := faultinject.New(99, faultinject.Rule{
		Hook: faultinject.HookDistDispatch, Mode: faultinject.ModeError, Probability: 0.4,
	})
	c := newCoordinator(t, Config{
		Workers: urls, HeartbeatInterval: 20 * time.Millisecond,
		DownBackoff: 5 * time.Millisecond, Faults: inj, MaxShardAttempts: 50,
	})
	opts := sim.Options{Params: core.Baseline(), Seed: 61, Wafers: 12}
	want, err := sim.RunW2WContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 4 && c.Stats().ShardsReassigned == 0; i++ {
		got, _, err := c.Simulate(ctx, "w2w", opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripElapsed(got), stripElapsed(want)) {
			t.Fatalf("run %d under dispatch chaos differs from single node", i)
		}
	}
	if c.Stats().ShardsReassigned == 0 {
		t.Error("40% dispatch faults never caused a reassignment")
	}
}

func TestCoordinatorDispatchPanicIsContained(t *testing.T) {
	inj := faultinject.New(7, faultinject.Rule{
		Hook: faultinject.HookDistDispatch, Mode: faultinject.ModePanic, Probability: 1,
	})
	c := newCoordinator(t, Config{
		Workers: []string{newWorker(t).URL}, HeartbeatInterval: -1,
		Faults: inj, MaxShardAttempts: 1, DownBackoff: time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _, err := c.Simulate(ctx, "w2w", sim.Options{Params: core.Baseline(), Wafers: 4})
	if err == nil {
		t.Fatal("all-panic dispatch must fail the run")
	}
	// The panic was converted to a dispatch failure, not propagated —
	// reaching this line at all is the assertion.
}

func TestCoordinatorMergeFaultAbortsRun(t *testing.T) {
	inj := faultinject.New(3, faultinject.Rule{
		Hook: faultinject.HookDistMerge, Mode: faultinject.ModeError, Probability: 1,
	})
	c := newCoordinator(t, Config{Workers: []string{newWorker(t).URL}, HeartbeatInterval: -1, Faults: inj})
	_, _, err := c.Simulate(context.Background(), "w2w", sim.Options{Params: core.Baseline(), Wafers: 4})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected merge fault, got %v", err)
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoWorkers) {
		t.Errorf("empty fleet: %v", err)
	}
	c := newCoordinator(t, Config{Workers: []string{newWorker(t).URL}, HeartbeatInterval: -1})
	if _, _, err := c.Simulate(context.Background(), "wtw", sim.Options{Params: core.Baseline()}); err == nil {
		t.Error("unknown mode accepted")
	}
	// The shard protocol carries no fidelity switch and no per-die tallies:
	// each must be refused, never silently dropped.
	for _, tc := range []struct {
		name string
		set  func(*sim.Options)
	}{
		{"TwoDRandomMisalignment", func(o *sim.Options) { o.TwoDRandomMisalignment = true }},
		{"IncludeMainVoidW2W", func(o *sim.Options) { o.IncludeMainVoidW2W = true }},
		{"ExplicitPads", func(o *sim.Options) { o.ExplicitPads = true }},
		{"ModelConventionDefects", func(o *sim.Options) { o.ModelConventionDefects = true }},
		{"CollectPerDie", func(o *sim.Options) { o.CollectPerDie = true }},
	} {
		opts := sim.Options{Params: core.Baseline(), Wafers: 4}
		tc.set(&opts)
		if _, _, err := c.Simulate(context.Background(), "w2w", opts); err == nil {
			t.Errorf("%s accepted over the wire protocol", tc.name)
		}
	}
	if _, _, err := c.Simulate(context.Background(), "w2w",
		sim.Options{Params: core.Baseline(), Wafers: 4, FirstSample: -1}); err == nil {
		t.Error("negative FirstSample accepted")
	}
}
