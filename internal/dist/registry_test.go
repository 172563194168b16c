package dist

import (
	"context"
	"testing"
	"time"

	"yap/internal/client"
	"yap/internal/service"

	"net/http/httptest"
)

func TestRegistryLivenessTransitions(t *testing.T) {
	srv := httptest.NewServer(service.New(service.Config{BreakerThreshold: -1}))
	defer srv.Close()
	factory := func(u string) (*client.Client, error) {
		return client.New(client.Config{BaseURL: u, MaxAttempts: 1})
	}
	reg, err := newRegistry([]string{srv.URL}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Known() != 1 || reg.Up() != 1 {
		t.Fatalf("fresh registry %d known / %d up, want 1/1 (optimistic start)", reg.Known(), reg.Up())
	}
	w := reg.workers[0]
	w.markDown()
	if reg.Up() != 0 {
		t.Fatal("markDown did not take")
	}
	w.markUp()
	if reg.Up() != 1 {
		t.Fatal("markUp did not take")
	}
}

func TestRegistryHeartbeatProbes(t *testing.T) {
	live := httptest.NewServer(service.New(service.Config{BreakerThreshold: -1}))
	defer live.Close()
	dead := httptest.NewServer(service.New(service.Config{BreakerThreshold: -1}))
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	factory := func(u string) (*client.Client, error) {
		return client.New(client.Config{BaseURL: u, MaxAttempts: 1})
	}
	reg, err := newRegistry([]string{live.URL, deadURL}, factory)
	if err != nil {
		t.Fatal(err)
	}
	reg.Heartbeat(context.Background(), time.Second)
	if reg.Up() != 1 {
		t.Fatalf("after heartbeat %d up, want 1 (dead worker demoted)", reg.Up())
	}
	// A revived worker returns to rotation on the next sweep.
	reg.workers[0].markDown()
	reg.Heartbeat(context.Background(), time.Second)
	if !reg.workers[0].isUp() {
		t.Fatal("heartbeat did not revive the live worker")
	}
}
