package daemon

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"yap/internal/client"
	"yap/internal/faultinject"
	"yap/internal/service"
)

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestRunRejectsBadInvocations(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name   string
		args   []string
		faults string
		want   string // the error must name the offending flag like this
	}{
		{"peers without jobs-dir", []string{"-peers", "http://127.0.0.1:1", "-advertise", "http://127.0.0.1:2"}, "", "-peers replicates the durable job store; it requires -jobs-dir"},
		{"peers without advertise", []string{"-peers", "http://127.0.0.1:1", "-jobs-dir", dir}, "", "-peers requires -advertise"},
		{"cache-peers without advertise", []string{"-cache-peers", "http://127.0.0.1:1"}, "", "-cache-peers requires -advertise"},
		{"unreadable config", []string{"-config", filepath.Join(dir, "missing.json")}, "", "invalid -config"},
		{"malformed faults", nil, "bogus", "invalid " + faultinject.EnvVar},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv(faultinject.EnvVar, tc.faults)
			// Hold the listen address: a Run that got as far as listening
			// would fail on the bind instead of naming the flag.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			err = Run(context.Background(), append([]string{"-addr", ln.Addr().String()}, tc.args...))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("a rejected invocation wrote into -jobs-dir: %v %v", entries, err)
	}
}

// serve runs Run on a free port until the returned stop is called, which
// cancels the context and requires Run to drain and return nil.
func serve(t *testing.T, args ...string) (*client.Client, func()) {
	t.Helper()
	return serveAt(t, freeAddr(t), args...)
}

// serveAt is serve on a given address, for daemons whose flags name
// their own URL.
func serveAt(t *testing.T, addr string, args ...string) (*client.Client, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- Run(ctx, append([]string{"-addr", addr}, args...)) }()
	cli, err := client.New(client.Config{BaseURL: "http://" + addr, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if _, err := cli.Health(ctx); err == nil {
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("Run exited during start-up: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("/healthz never answered")
		}
	}
	return cli, func() {
		t.Helper()
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("Run after cancel = %v, want nil", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("Run did not drain after its context was cancelled")
		}
	}
}

func TestRunServesDrainsAndReopens(t *testing.T) {
	t.Setenv(faultinject.EnvVar, "")
	dir := t.TempDir()
	ctx := context.Background()

	cli, stop := serve(t, "-jobs-dir", dir, "-sim-workers", "1")
	sub, err := cli.SubmitJob(ctx, service.JobSubmitRequest{Seed: 3, Wafers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := cli.WaitJob(ctx, sub.ID, 5*time.Millisecond)
	if err != nil || first.State != "done" || first.Result == nil {
		t.Fatalf("job = %+v, %v; want done with a result", first, err)
	}
	stop()

	// A second Run over the same store opens cleanly and still holds the
	// finished job.
	cli, stop = serve(t, "-jobs-dir", dir, "-sim-workers", "1")
	defer stop()
	again, err := cli.GetJob(ctx, sub.ID)
	if err != nil || again.State != "done" || again.Result == nil || again.Result.Yield != first.Result.Yield {
		t.Fatalf("reopened job = %+v, %v; want done with yield %v", again, err, first.Result.Yield)
	}
}
