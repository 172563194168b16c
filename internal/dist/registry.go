package dist

import (
	"context"
	"fmt"
	"sync"
	"time"

	"yap/internal/client"
)

// workerHandle is one registered worker: its client plus the liveness
// state the dispatch and heartbeat paths share. Liveness transitions come
// from two sources — dispatch outcomes (a failed shard call marks the
// worker down immediately, a successful one marks it up) and periodic
// heartbeat probes (which revive a worker that came back).
type workerHandle struct {
	url string
	cli *client.Client

	mu sync.Mutex
	up bool //yaplint:guardedby mu
}

func (w *workerHandle) isUp() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.up
}

func (w *workerHandle) markUp() {
	w.mu.Lock()
	w.up = true
	w.mu.Unlock()
}

func (w *workerHandle) markDown() {
	w.mu.Lock()
	w.up = false
	w.mu.Unlock()
}

// Registry tracks the worker fleet for a Coordinator. Workers start in
// the up state (optimistic: the first dispatch or heartbeat corrects a
// wrong guess within one call) and move between up and down as dispatch
// outcomes and heartbeat probes report.
type Registry struct {
	workers []*workerHandle
}

// newRegistry builds handles for the given base URLs using factory for
// the per-worker clients.
func newRegistry(urls []string, factory func(string) (*client.Client, error)) (*Registry, error) {
	r := &Registry{workers: make([]*workerHandle, 0, len(urls))}
	for _, u := range urls {
		cli, err := factory(u)
		if err != nil {
			return nil, fmt.Errorf("dist: worker %q: %w", u, err)
		}
		r.workers = append(r.workers, &workerHandle{url: u, cli: cli, up: true})
	}
	return r, nil
}

// Known returns the configured fleet size.
func (r *Registry) Known() int { return len(r.workers) }

// Up counts workers currently believed healthy.
func (r *Registry) Up() int {
	n := 0
	for _, w := range r.workers {
		if w.isUp() {
			n++
		}
	}
	return n
}

// Heartbeat probes every worker's /healthz concurrently and updates
// liveness: an answering worker is (re)marked up — this is the path that
// returns a recovered worker to rotation — and a silent one is marked
// down. The per-probe deadline bounds how long a dead worker can stall
// the sweep.
func (r *Registry) Heartbeat(ctx context.Context, probeTimeout time.Duration) {
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *workerHandle) {
			defer wg.Done()
			probeCtx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			if _, err := w.cli.Health(probeCtx); err != nil {
				if ctx.Err() == nil { // a dead worker, not our shutdown
					w.markDown()
				}
				return
			}
			w.markUp()
		}(w)
	}
	wg.Wait()
}
