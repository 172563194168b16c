// Package daemon is yapserve's wiring: it turns the daemon's command-line
// flags into a service.Server over the dist coordinator, durable job
// store, replica node and fleet cache they select, serves it, and drains
// it on shutdown. cmd/yapserve runs it under signal handling, and the
// yapload drills re-exec it as `yapload serve <flags>`, so every drill
// exercises exactly the shipped flag wiring.
//
// It is its own package because internal/service cannot import
// internal/dist, which imports service.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"yap/internal/client"
	"yap/internal/core"
	"yap/internal/dist"
	"yap/internal/faultinject"
	"yap/internal/fleetcache"
	"yap/internal/jobs"
	"yap/internal/replica"
	"yap/internal/service"
	"yap/internal/sim"
)

// Run parses args as yapserve's flags, serves until ctx is cancelled, then
// drains in-flight requests and closes the job store before returning
// nil. Invalid flags, an unreadable -config or a malformed YAP_FAULTS plan
// return an error before anything is opened or listened on; -h returns
// flag.ErrHelp after printing the flag list.
func Run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("yapserve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		config      = fs.String("config", "", "JSON process file used as the default parameter set (missing fields default to Table I)")
		cacheSize   = fs.Int("cache", 1024, "evaluate-cache capacity in entries (negative disables)")
		maxSims     = fs.Int("max-sims", 0, "max concurrently executing simulations (0 = GOMAXPROCS)")
		workers     = fs.Int("sim-workers", 0, "default per-simulation parallelism (0 = GOMAXPROCS)")
		timeout     = fs.Duration("timeout", 2*time.Minute, "per-request deadline for simulate, shard, batch and sweep (negative disables)")
		maxBody     = fs.Int64("max-body", 1<<20, "request body limit in bytes")
		maxPoints   = fs.Int("max-sweep-points", 10000, "max points per batch or sweep request")
		maxQueued   = fs.Int("max-queued", 0, "max simulate requests waiting for a pool slot before shedding 503 (0 = 4×max-sims, negative = no queue)")
		retryAfter  = fs.Duration("retry-after", time.Second, "back-off hint on overloaded responses")
		brkThresh   = fs.Int("breaker-threshold", 0, "consecutive internal simulation failures that trip the circuit breaker (0 = 8, negative disables)")
		brkCooldown = fs.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker sheds before probing")
		drain       = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")

		workerList   = fs.String("workers", "", "comma-separated worker base URLs; turns this daemon into a sharding coordinator")
		shardsPerW   = fs.Int("shards-per-worker", 0, "shards planned per worker per run (0 = 2)")
		heartbeat    = fs.Duration("heartbeat", 0, "worker liveness probe interval (0 = 2s, negative disables)")
		shardTimeout = fs.Duration("shard-timeout", 0, "per-shard dispatch deadline; slower workers get their shard reassigned (0 = run deadline only)")

		jobsDir    = fs.String("jobs-dir", "", "directory for the durable job store; enables POST /v1/jobs (empty disables)")
		chkEvery   = fs.Int("checkpoint-every", 0, "samples per durable job checkpoint (0 = 200)")
		jobTTL     = fs.Duration("job-ttl", 0, "how long finished jobs stay queryable before GC (0 = 1h, negative keeps forever)")
		jobRunners = fs.Int("job-runners", 0, "concurrently executing jobs (0 = 2)")
		streamHB   = fs.Duration("stream-heartbeat", 0, "SSE keep-alive interval on /v1/jobs/{id}/stream (0 = 15s, negative disables)")

		peers         = fs.String("peers", "", "comma-separated base URLs of the OTHER members of a replicated job control plane (requires -jobs-dir and -advertise)")
		advertise     = fs.String("advertise", "", "this daemon's own base URL as the other members reach it (its identity in the replica set)")
		electionLease = fs.Duration("election-lease", 0, "how long a follower trusts the leader after its last heartbeat (0 = 2s)")
		electionBeat  = fs.Duration("election-heartbeat", 0, "leader heartbeat cadence (0 = lease/8)")
		quorumTimeout = fs.Duration("quorum-timeout", 0, "how long a submit waits for quorum acknowledgement (0 = 2×lease)")

		cachePeers = fs.String("cache-peers", "", "comma-separated base URLs of the OTHER fleet-cache members (requires -advertise; empty reuses -peers)")

		printVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *printVersion {
		version, goVersion := service.BuildInfo()
		fmt.Printf("yapserve %s (%s)\n", version, goVersion)
		return nil
	}

	// Everything the flags and the environment say is checked before
	// anything is opened, so a bad invocation fails without side effects.
	workerURLs := urlList(*workerList)
	peerURLs := urlList(*peers)
	if len(peerURLs) > 0 && *jobsDir == "" {
		return errors.New("-peers replicates the durable job store; it requires -jobs-dir")
	}
	if len(peerURLs) > 0 && *advertise == "" {
		return errors.New("-peers requires -advertise: the URL this member is reached at is its identity in the replica set")
	}
	cachePeerURLs := peerURLs
	if *cachePeers != "" {
		cachePeerURLs = urlList(*cachePeers)
	}
	if len(cachePeerURLs) > 0 && *advertise == "" {
		return errors.New("-cache-peers requires -advertise: the URL this member is reached at is its identity in the fleet")
	}
	defaults := core.Baseline()
	if *config != "" {
		loaded, err := core.LoadParams(*config)
		if err != nil {
			return fmt.Errorf("invalid -config: %w", err)
		}
		defaults = loaded
	}
	faults, err := faultinject.FromEnv()
	if err != nil {
		return fmt.Errorf("invalid %s: %w", faultinject.EnvVar, err)
	}

	logger := log.New(os.Stderr, "yapserve: ", log.LstdFlags)
	if faults != nil {
		logger.Printf("fault injection ACTIVE: %s", faults)
	}

	var coord *dist.Coordinator
	if *workerList != "" {
		coord, err = dist.New(dist.Config{
			Workers:           workerURLs,
			ShardsPerWorker:   *shardsPerW,
			ShardTimeout:      *shardTimeout,
			HeartbeatInterval: *heartbeat,
			Faults:            faults,
			Logger:            logger,
		})
		if err != nil {
			return fmt.Errorf("invalid -workers: %w", err)
		}
		defer coord.Close()
		logger.Printf("coordinator mode: sharding simulations across %d workers", len(workerURLs))
	}

	// The fleet cache is built unconditionally — unpeered it is the
	// daemon's local evaluate cache behind evaluate, batch and sweep; with
	// peers it deduplicates computations fleet-wide.
	fcfg := fleetcache.Config{CacheSize: *cacheSize, Faults: faults}
	if len(cachePeerURLs) > 0 {
		fcfg.Self = *advertise
		fcfg.Members = append(append([]string{}, cachePeerURLs...), *advertise)
		fcfg.Transport = &client.CacheTransport{}
		logger.Printf("fleet cache: %s + %d peers", *advertise, len(cachePeerURLs))
	}
	fleet := fleetcache.New(fcfg)
	defer fleet.Close()

	var jm *jobs.Manager
	var node *replica.Node
	if *jobsDir != "" {
		jcfg := jobs.Config{
			Dir:             *jobsDir,
			Runners:         *jobRunners,
			CheckpointEvery: *chkEvery,
			ResultTTL:       *jobTTL,
			SimWorkers:      *workers,
			Faults:          faults,
			Logger:          logger,
		}
		if coord != nil {
			// Jobs shard across the fleet like synchronous simulations;
			// checkpoints still land in the coordinator's local store.
			jcfg.Run = func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
				res, _, err := coord.Simulate(ctx, mode, opts)
				return res, err
			}
		}
		if len(peerURLs) > 0 {
			// The replica node owns the manager: it opens the store in
			// follower mode and activates it only on winning an election.
			node, err = replica.Open(replica.Config{
				Dir:           *jobsDir,
				Self:          *advertise,
				Peers:         peerURLs,
				Transport:     &replica.HTTPTransport{},
				Jobs:          jcfg,
				Lease:         *electionLease,
				Heartbeat:     *electionBeat,
				QuorumTimeout: *quorumTimeout,
				Faults:        faults,
				Logger:        logger,
			})
			if err != nil {
				return fmt.Errorf("invalid replica configuration: %w", err)
			}
			jm = node.Jobs()
			logger.Printf("replicated control plane: %s + %d peers, store %s", *advertise, len(peerURLs), *jobsDir)
		} else {
			jm, err = jobs.Open(jcfg)
			if err != nil {
				return fmt.Errorf("invalid -jobs-dir: %w", err)
			}
		}
		logger.Printf("durable jobs: store %s", *jobsDir)
	}
	// closeStore runs after HTTP has drained. The replica node owns the
	// manager: closing it stops the election loop and peer senders, then
	// closes the store, and a surviving peer takes over leadership one
	// lease later. A plain manager stops its runners; mid-run jobs stay
	// durably running and resume at the next start.
	closeStore := func() {
		switch {
		case node != nil:
			if err := node.Close(); err != nil {
				logger.Printf("replica close: %v", err)
			}
		case jm != nil:
			if err := jm.Close(); err != nil {
				logger.Printf("job store close: %v", err)
			}
		}
	}

	cfg := service.Config{
		Defaults:          &defaults,
		CacheSize:         *cacheSize,
		MaxConcurrentSims: *maxSims,
		SimWorkers:        *workers,
		RequestTimeout:    *timeout,
		MaxBodyBytes:      *maxBody,
		MaxSweepPoints:    *maxPoints,
		MaxQueuedSims:     *maxQueued,
		RetryAfter:        *retryAfter,
		BreakerThreshold:  *brkThresh,
		BreakerCooldown:   *brkCooldown,
		StreamHeartbeat:   *streamHB,
		Faults:            faults,
		Logger:            logger,
		FleetCache:        fleet,
	}
	if coord != nil {
		cfg.Distributor = coord
	}
	if jm != nil {
		cfg.Jobs = jm
	}
	if node != nil {
		cfg.Replica = node
	}
	srv := service.New(cfg)
	logger.Printf("resilience: %s", srv.ResilienceSummary())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		closeStore()
		return fmt.Errorf("serve: %w", err)
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	logger.Printf("listening on %s (params %s)", *addr, defaults.HashString())
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		closeStore()
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	logger.Printf("shutting down, draining in-flight requests (budget %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drain)
	defer cancel()
	// Stop simulation admission first (stragglers get 503 + Retry-After),
	// then let the HTTP server wait out connections that hold responses.
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("pool drain: %v", err)
	}
	err = httpSrv.Shutdown(shutdownCtx)
	if errors.Is(err, context.DeadlineExceeded) {
		logger.Print("drain budget exhausted; closing remaining connections")
		httpSrv.Close() //nolint:errcheck // already past the drain budget
		err = nil
	}
	<-errc // Serve returns http.ErrServerClosed once its listener is shut
	closeStore()
	if faults != nil {
		logger.Printf("fault activity: %s", faults.StatsString())
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Print("bye")
	return nil
}

// urlList splits a comma-separated URL flag, dropping blank entries.
func urlList(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}
