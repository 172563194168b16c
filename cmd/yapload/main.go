// Command yapload drives yapserve and checks its guarantees. Without
// -drill it is a chaos-capable load generator: it drives a workload mix
// (analytic evaluates, Monte-Carlo simulates, batch evaluations, plus
// deliberately invalid requests) through the retrying client and asserts the
// resilience invariants on every outcome:
//
//   - every request is accounted for — success (possibly partial), a
//     typed error with a documented code, or bounded retry exhaustion;
//     nothing hangs and nothing returns an unclassifiable failure;
//   - deliberately invalid requests come back as typed 4xx, never 5xx;
//   - every full (non-partial) simulate with the same seed and sample
//     count reports the identical yield — determinism survives chaos;
//   - partial simulate responses satisfy completed < requested;
//   - a -faults plan reached the server: its log shows fault injection
//     ACTIVE (and, at shutdown, the plan's fault activity).
//
// With -target it loads an external server; without it, it starts a
// yapserve child armed with the -faults plan (or YAP_FAULTS), so a
// single command is a full chaos drill:
//
//	yapload -n 500 -c 16 -faults 'seed=7,sim.*=0.05:error,service.*=0.1:error'
//
// -drill NAME instead runs one SIGKILL drill over a fleet of yapserve
// children; each file's header lists the invariants its drill asserts:
//
//	yapload -drill dist    # sharded Monte Carlo, a worker killed (dist.go)
//	yapload -drill jobs    # a job resumed after a daemon kill (jobs.go)
//	yapload -drill stream  # an SSE watch dropped and resumed (stream.go)
//	yapload -drill ha      # the replica leader killed mid-job (ha.go)
//	yapload -drill cache   # fleet-wide evaluate dedup, a member killed (cache.go)
//
// Every yapserve child is this binary re-exec'd as
// `yapload serve <yapserve flags>`, which runs the shipped daemon wiring
// (internal/daemon) — so a -race build of yapload races the daemons too.
//
// Exits 1 when any invariant is violated.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"yap/internal/client"
	"yap/internal/daemon"
	"yap/internal/faultinject"
	"yap/internal/randx"
	"yap/internal/resilience"
	"yap/internal/service"
)

// tally aggregates outcomes across workers.
type tally struct {
	d         *drill
	mu        sync.Mutex
	ok        int
	partial   int
	typed     map[string]int
	exhausted int
	// yields pins the deterministic full-run yield per simulate mode.
	yields map[string]float64
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serve(os.Args[2:])
		return
	}
	var (
		target    = flag.String("target", "", "server base URL; empty starts a yapserve child on a loopback port")
		faults    = flag.String("faults", "", "fault-injection spec for the yapserve child (default: $"+faultinject.EnvVar+")")
		n         = flag.Int("n", 200, "total requests")
		conc      = flag.Int("c", 8, "concurrent workers")
		seed      = flag.Uint64("seed", 1, "workload-mix and drill seed")
		attempts  = flag.Int("attempts", 6, "client retry attempts per request")
		wafers    = flag.Int("sim-wafers", 8, "wafers per W2W simulate")
		dies      = flag.Int("sim-dies", 800, "dies per D2W simulate")
		timeout   = flag.Duration("timeout", 2*time.Minute, "whole-run deadline")
		drillName = flag.String("drill", "", "run a SIGKILL drill instead of the load mix: dist, jobs, stream, ha or cache")
	)
	flag.Parse()
	d := &drill{logger: log.New(os.Stderr, "yapload: ", log.LstdFlags)}
	if *drillName != "" && (*target != "" || *faults != "") {
		d.fatalf("-target and -faults apply to the load mix; a drill starts its own daemons and arms its own fault plans")
	}

	switch *drillName {
	case "":
	case "dist":
		os.Exit(runDistDrill(d, *seed, *wafers, *dies))
	case "jobs":
		os.Exit(runJobsDrill(d, *seed))
	case "stream":
		os.Exit(runStreamDrill(d, *seed))
	case "ha":
		os.Exit(runHADrill(d, *seed))
	case "cache":
		os.Exit(runCacheDrill(d, *seed))
	default:
		d.fatalf("unknown -drill %q: want dist, jobs, stream, ha or cache", *drillName)
	}

	base := *target
	var srv *child
	if base == "" {
		var env []string
		if *faults != "" {
			env = faultsEnv(*faults)
		}
		srv = d.spawn("", env, "-max-sims", "2", "-max-queued", "8", "-timeout", "5s",
			"-retry-after", "20ms", "-breaker-threshold", "-1")
		base = srv.url
	} else if *faults != "" {
		d.fatalf("-faults only applies to the yapserve child; arm the external one via its own YAP_FAULTS")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	t := &tally{d: d, typed: make(map[string]int), yields: make(map[string]float64)}
	perWorker := (*n + *conc - 1) / *conc
	var wg sync.WaitGroup
	issued := 0
	for w := 0; w < *conc && issued < *n; w++ {
		count := perWorker
		if issued+count > *n {
			count = *n - issued
		}
		first := issued
		issued += count
		wg.Add(1)
		go func(w, first, count int) {
			defer wg.Done()
			c, err := client.New(client.Config{
				BaseURL:     base,
				MaxAttempts: *attempts,
				Backoff:     resilience.Backoff{Base: 2 * time.Millisecond, Max: 250 * time.Millisecond, Seed: *seed + uint64(w)},
			})
			if err != nil {
				d.violation("worker %d: %v", w, err)
				return
			}
			rng := randx.Derive(*seed, uint64(w))
			for i := 0; i < count; i++ {
				runOne(ctx, c, t, rng, first+i, *wafers, *dies)
			}
		}(w, first, count)
	}
	wg.Wait()

	if ctx.Err() != nil {
		d.violation("run overran its %v deadline — some request hung", *timeout)
	}
	accounted := t.ok + t.partial + t.exhausted
	for _, cnt := range t.typed {
		accounted += cnt
	}
	if accounted != *n {
		d.violation("accounted %d of %d requests", accounted, *n)
	}
	fmt.Printf("yapload: %d requests -> %d ok, %d partial, %d exhausted, typed %v\n",
		*n, t.ok, t.partial, t.exhausted, t.typed)

	if srv != nil {
		// SIGTERM: the daemon drains and logs its fault activity.
		srv.stop()
		if *faults != "" && !strings.Contains(srv.log.String(), "fault injection ACTIVE") {
			d.violation("the server never logged fault injection ACTIVE: the -faults plan did not reach it")
		}
	}
	os.Exit(d.exit("all invariants held"))
}

// serve is the hidden `yapload serve <yapserve flags>` mode the drills
// re-exec: the shipped daemon, draining on SIGINT/SIGTERM.
func serve(args []string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := daemon.Run(ctx, args); err != nil {
		log.New(os.Stderr, "yapserve: ", log.LstdFlags).Fatal(err)
	}
}

// runOne issues the n-th request from the workload mix and folds its
// outcome into the tally. Roughly: 5% deliberately invalid, then 55%
// evaluate / 30% simulate / 10% batch.
func runOne(ctx context.Context, c *client.Client, t *tally, rng *randx.Source, n, wafers, dies int) {
	roll := rng.Float64()
	switch {
	case roll < 0.05:
		// Deliberately invalid: negative pitch must be a typed 4xx.
		_, err := c.Evaluate(ctx, service.EvaluateRequest{
			Params: []byte(`{"Pitch": -1}`),
		})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status < 400 || apiErr.Status >= 500 {
			t.d.violation("bad request %d not answered with a typed 4xx: %v", n, err)
			t.record(err)
			return
		}
		t.record(err)
	case roll < 0.60:
		_, err := c.Evaluate(ctx, service.EvaluateRequest{})
		t.record(err)
	case roll < 0.75:
		resp, err := c.Simulate(ctx, service.SimulateRequest{Mode: "w2w", Seed: 42, Wafers: wafers, Workers: 2})
		t.checkSimulate(resp, err, n)
	case roll < 0.90:
		resp, err := c.Simulate(ctx, service.SimulateRequest{Mode: "d2w", Seed: 42, Dies: dies, Workers: 2})
		t.checkSimulate(resp, err, n)
	default:
		_, err := c.EvaluateBatch(ctx, service.BatchEvaluateRequest{Mode: "w2w", Points: []json.RawMessage{
			[]byte(`{}`), []byte(`{"Pitch": 3e-6}`), []byte(`{"Pitch": 4e-6}`),
		}})
		t.record(err)
	}
}

// checkSimulate applies the simulate-specific invariants before recording.
func (t *tally) checkSimulate(resp *service.SimulateResponse, err error, n int) {
	if err != nil {
		t.record(err)
		return
	}
	if resp.Partial {
		if resp.Completed <= 0 || resp.Completed >= resp.Requested {
			t.d.violation("request %d: partial with completed %d / requested %d", n, resp.Completed, resp.Requested)
		}
		t.mu.Lock()
		t.partial++
		t.mu.Unlock()
		return
	}
	t.record(nil)
	// Full runs with identical seed and sample count must agree exactly.
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.yields[resp.Mode]; ok {
		if prev != resp.Yield {
			t.d.violation("request %d: %s yield %v diverges from earlier %v under identical seed", n, resp.Mode, resp.Yield, prev)
		}
	} else {
		t.yields[resp.Mode] = resp.Yield
	}
}

// record classifies one outcome under the resolution invariant.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case err == nil:
		t.ok++
	default:
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			// Any code outside service.ErrorCodes is an invariant violation.
			if !slices.Contains(service.ErrorCodes, apiErr.Code) {
				t.d.violation("undocumented error code %q: %v", apiErr.Code, err)
			}
			if errors.Is(err, client.ErrAttemptsExhausted) {
				t.exhausted++
			} else {
				t.typed[apiErr.Code]++
			}
			return
		}
		if errors.Is(err, client.ErrAttemptsExhausted) {
			t.exhausted++
			return
		}
		t.d.violation("unclassifiable outcome: %v", err)
		t.exhausted++
	}
}
