package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"yap/internal/client"
	"yap/internal/core"
	"yap/internal/service"
	"yap/internal/sim"
)

// settledGoroutines samples the goroutine count after letting any
// just-finished goroutines unwind.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m <= n {
			return m
		}
	}
	return runtime.NumGoroutine()
}

// TestCoordinatorCloseLeaksNoGoroutines opens and closes several
// coordinators — heartbeats ticking, a real distributed run in between —
// and requires the goroutine count to return to its baseline. The
// registry's transport is private to the test so lingering keep-alive
// connections can be torn down deterministically.
func TestCoordinatorCloseLeaksNoGoroutines(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{MaxConcurrentSims: 2, BreakerThreshold: -1}))
	defer ts.Close()

	before := settledGoroutines()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	factory := func(u string) (*client.Client, error) {
		return client.New(client.Config{BaseURL: u, HTTPClient: &http.Client{Transport: tr}, MaxAttempts: 2})
	}

	for i := 0; i < 3; i++ {
		c, err := New(Config{
			Workers:           []string{ts.URL},
			HeartbeatInterval: time.Millisecond,
			ClientFactory:     factory,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, _, err := c.Simulate(ctx, "w2w", sim.Options{Params: core.Baseline(), Seed: uint64(i + 1), Wafers: 2, Workers: 2}); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		cancel()
		time.Sleep(5 * time.Millisecond) // let a few heartbeats tick
		c.Close()
		tr.CloseIdleConnections()
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if settledGoroutines() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	after := runtime.NumGoroutine()
	var buf []byte
	if p := pprof.Lookup("goroutine"); p != nil {
		w := &stackWriter{}
		_ = p.WriteTo(w, 1)
		buf = w.b
	}
	t.Errorf("goroutines leaked across Close: %d before, %d after\n%s", before, after, buf)
}

// TestRegistryHeartbeatReturnsAllProbes pins that Heartbeat is fully
// synchronous: every probe goroutine it spawns has exited by return, even
// against a hanging worker, so callers cannot accumulate probes.
func TestRegistryHeartbeatReturnsAllProbes(t *testing.T) {
	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer hang.Close()

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	reg, err := newRegistry([]string{hang.URL}, func(u string) (*client.Client, error) {
		return client.New(client.Config{BaseURL: u, HTTPClient: &http.Client{Transport: tr}, MaxAttempts: 1})
	})
	if err != nil {
		t.Fatal(err)
	}

	before := settledGoroutines()
	for i := 0; i < 5; i++ {
		reg.Heartbeat(context.Background(), 5*time.Millisecond)
	}
	// Unblock the server's parked handler goroutines: they are the test
	// fixture's, not the registry's, and must not count as probe leaks.
	close(release)
	tr.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if settledGoroutines() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	var buf []byte
	if p := pprof.Lookup("goroutine"); p != nil {
		w := &stackWriter{}
		_ = p.WriteTo(w, 1)
		buf = w.b
	}
	t.Errorf("heartbeat probes leaked: %d goroutines before, %d after\n%s", before, runtime.NumGoroutine(), buf)
}

type stackWriter struct{ b []byte }

func (w *stackWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
