package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"yap/internal/client"
	"yap/internal/faultinject"
	"yap/internal/resilience"
	"yap/internal/service"
	"yap/internal/sim"
)

// ErrNoWorkers reports a Coordinator configured with an empty fleet.
var ErrNoWorkers = errors.New("dist: no workers configured")

// ErrShardFailed wraps a shard that exhausted its reassignment budget.
var ErrShardFailed = errors.New("dist: shard failed on every attempt")

// errWorkerSkew reports a worker whose answer contradicts the
// coordinator's own view of the run (parameter-hash or shard-accounting
// mismatch). Skew is a deployment bug, not a transient fault, so it fails
// the run instead of being reassigned into silence.
var errWorkerSkew = errors.New("dist: worker disagrees with coordinator")

// heartbeatProbeTimeout bounds one /healthz probe of the liveness sweep.
const heartbeatProbeTimeout = time.Second

// Config tunes a Coordinator. Workers is required; every other field has
// a usable zero value.
type Config struct {
	// Workers are the worker base URLs (plain yapserve daemons — the
	// /v1/shard endpoint is the worker protocol).
	Workers []string
	// ShardsPerWorker sets the plan granularity: a run splits into
	// len(Workers)×ShardsPerWorker shards (clamped to the sample count).
	// More shards than workers keeps the fleet busy when shard latencies
	// diverge and bounds the work lost to one worker death; 0 means 2.
	ShardsPerWorker int
	// MaxShardAttempts bounds how many workers one shard may be tried on
	// before the run fails; 0 means 4.
	MaxShardAttempts int
	// ShardTimeout bounds one dispatch attempt, so a slow or wedged
	// worker surfaces as a dispatch failure and its shard is reassigned;
	// 0 disables (the run context still bounds everything).
	ShardTimeout time.Duration
	// HeartbeatInterval paces the background liveness sweep that returns
	// recovered workers to rotation; 0 means 2s, negative disables the
	// loop (dispatch outcomes still update liveness).
	HeartbeatInterval time.Duration
	// DownBackoff is how long an idle dispatcher waits between liveness
	// polls while its worker is down; 0 means 50ms.
	DownBackoff time.Duration
	// ClientFactory builds the per-worker HTTP client; nil uses
	// internal/client with 3 attempts and a fast, per-worker-seeded
	// jittered backoff.
	ClientFactory func(baseURL string) (*client.Client, error)
	// Faults optionally arms deterministic fault injection on the
	// dispatch and merge edges (hooks dist.dispatch and dist.merge) —
	// the chaos path that drills worker death mid-shard; nil disables.
	Faults *faultinject.Injector
	// Logger receives one line per reassignment and liveness flip; nil
	// disables logging.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.ShardsPerWorker <= 0 {
		c.ShardsPerWorker = 2
	}
	if c.MaxShardAttempts <= 0 {
		c.MaxShardAttempts = 4
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.DownBackoff <= 0 {
		c.DownBackoff = 50 * time.Millisecond
	}
	if c.ClientFactory == nil {
		c.ClientFactory = defaultClientFactory
	}
	return c
}

// defaultClientFactory builds a retrying client with a per-worker jitter
// seed (derived from the URL with the same FNV idiom as shard streams) so
// concurrent dispatchers' retries decorrelate.
func defaultClientFactory(baseURL string) (*client.Client, error) {
	h := shardStreamSeed(baseURL)
	return client.New(client.Config{
		BaseURL:     baseURL,
		MaxAttempts: 3,
		Backoff: resilience.Backoff{
			Base: 25 * time.Millisecond,
			Max:  500 * time.Millisecond,
			Seed: h,
		},
	})
}

// Coordinator shards Monte-Carlo runs across a worker fleet and merges
// the tallies (see the package comment for the determinism argument). It
// implements service.Distributor; create with New, release the heartbeat
// loop with Close. Safe for concurrent use — runs share the fleet.
type Coordinator struct {
	cfg Config
	reg *Registry

	hbStop context.CancelFunc
	hbDone chan struct{}

	dispatched atomic.Uint64
	reassigned atomic.Uint64
	merged     atomic.Uint64
}

// New validates cfg, builds the worker registry and starts the heartbeat
// loop (unless disabled).
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, ErrNoWorkers
	}
	cfg = cfg.withDefaults()
	reg, err := newRegistry(cfg.Workers, cfg.ClientFactory)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, reg: reg}
	if cfg.HeartbeatInterval > 0 {
		hbCtx, stop := context.WithCancel(context.Background())
		c.hbStop = stop
		c.hbDone = make(chan struct{})
		go c.heartbeatLoop(hbCtx)
	}
	return c, nil
}

// Close stops the heartbeat loop. In-flight Simulate calls are unaffected
// (their dispatch outcomes keep updating liveness).
func (c *Coordinator) Close() {
	if c.hbStop != nil {
		c.hbStop()
		<-c.hbDone
	}
}

func (c *Coordinator) heartbeatLoop(ctx context.Context) {
	defer close(c.hbDone)
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			before := c.reg.Up()
			c.reg.Heartbeat(ctx, heartbeatProbeTimeout)
			if after := c.reg.Up(); after != before && c.cfg.Logger != nil {
				c.cfg.Logger.Printf("dist: heartbeat: %d/%d workers up", after, c.reg.Known())
			}
		}
	}
}

// Stats snapshots the fleet counters for /metrics.
func (c *Coordinator) Stats() service.DistStats {
	return service.DistStats{
		WorkersKnown:     c.reg.Known(),
		WorkersUp:        c.reg.Up(),
		ShardsDispatched: c.dispatched.Load(),
		ShardsReassigned: c.reassigned.Load(),
		RunsMerged:       c.merged.Load(),
	}
}

// job is one shard plus its reassignment history.
type job struct {
	sh       Shard
	attempts int
}

// Simulate runs opts across the fleet: plan shards, dispatch them to live
// workers, reassign from dead or slow ones, fold partial shard results,
// and merge. The merged Result is bit-identical (Elapsed excluded) to
// sim.RunW2WContext/RunD2WContext with the same options — at any fleet
// size, with any reassignment history. mode is "w2w" or "d2w". Simulate
// runs opts as one fixed-N slice, ignoring opts.EarlyStop; the service
// adapts it into a sim.SliceRunner so that sim.Run walks an early-stop
// ladder across the fleet, one call per slice.
//
// opts.Faults is ignored: the coordinator's own hooks come from
// Config.Faults, and workers arm their plans process-side (YAP_FAULTS).
// Options that are not representable in the shard wire protocol
// (CollectPerDie and any fidelity switch, sim.Options.Ablated) are
// rejected rather than silently dropped.
func (c *Coordinator) Simulate(ctx context.Context, mode string, opts sim.Options) (sim.Result, service.DistInfo, error) {
	if mode != "w2w" && mode != "d2w" {
		return sim.Result{}, service.DistInfo{}, fmt.Errorf("dist: unknown mode %q (want w2w or d2w)", mode)
	}
	if err := unsupportedOptions(opts); err != nil {
		return sim.Result{}, service.DistInfo{}, err
	}
	if opts.FirstSample < 0 {
		return sim.Result{}, service.DistInfo{}, fmt.Errorf("dist: negative FirstSample %d", opts.FirstSample)
	}
	raw, err := json.Marshal(opts.Params)
	if err != nil {
		return sim.Result{}, service.DistInfo{}, fmt.Errorf("dist: encoding params: %w", err)
	}
	wantHash := opts.Params.HashString()
	shards, err := Plan(opts.Samples(mode), c.reg.Known()*c.cfg.ShardsPerWorker)
	if err != nil {
		return sim.Result{}, service.DistInfo{}, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Every job lives in exactly one place — the channel or one
	// dispatcher's hands — so requeues can never exceed the capacity and
	// the send below is non-blocking by construction.
	jobs := make(chan job, len(shards))
	for _, sh := range shards {
		jobs <- job{sh: sh}
	}
	results := make([]sim.Result, len(shards))
	var remaining atomic.Int64
	remaining.Store(int64(len(shards)))
	var runReassigned atomic.Uint64
	done := make(chan struct{})
	errc := make(chan error, c.reg.Known())

	var wg sync.WaitGroup
	for _, w := range c.reg.workers {
		wg.Add(1)
		go func(w *workerHandle) {
			defer wg.Done()
			for {
				if !w.isUp() {
					// Stay out of rotation while down, polling for a
					// heartbeat revival without consuming jobs.
					if resilience.Sleep(runCtx, c.cfg.DownBackoff) != nil {
						return
					}
					continue
				}
				select {
				case <-runCtx.Done():
					return
				case j := <-jobs:
					res, err := c.dispatch(runCtx, w, mode, raw, wantHash, opts, j.sh)
					if err == nil {
						results[j.sh.Index] = res
						if remaining.Add(-1) == 0 {
							close(done)
						}
						continue
					}
					if runCtx.Err() != nil {
						return
					}
					if permanentDispatchFailure(err) {
						errc <- fmt.Errorf("dist: shard %d [%d,%d) on %s: %w",
							j.sh.Index, j.sh.Start, j.sh.Start+j.sh.Count, w.url, err)
						return
					}
					w.markDown()
					j.attempts++
					c.reassigned.Add(1)
					runReassigned.Add(1)
					if j.attempts >= c.cfg.MaxShardAttempts {
						errc <- fmt.Errorf("%w: shard %d [%d,%d) after %d attempts, last on %s: %w",
							ErrShardFailed, j.sh.Index, j.sh.Start, j.sh.Start+j.sh.Count,
							j.attempts, w.url, err)
						return
					}
					if c.cfg.Logger != nil {
						c.cfg.Logger.Printf("dist: shard %d failed on %s (attempt %d): %v; reassigning",
							j.sh.Index, w.url, j.attempts, err)
					}
					jobs <- j
				}
			}
		}(w)
	}

	var runErr error
	select {
	case <-done:
	case runErr = <-errc:
	case <-ctx.Done():
		runErr = fmt.Errorf("dist: run aborted: %w", ctx.Err())
	}
	cancel()
	wg.Wait()
	if runErr != nil {
		return sim.Result{}, service.DistInfo{}, runErr
	}

	if err := c.cfg.Faults.Fire(ctx, faultinject.HookDistMerge); err != nil {
		return sim.Result{}, service.DistInfo{}, fmt.Errorf("dist: merge aborted: %w", err)
	}
	mergedRes, err := sim.Merge(results...)
	if err != nil {
		return sim.Result{}, service.DistInfo{}, err
	}
	c.merged.Add(1)
	return mergedRes, service.DistInfo{Shards: len(shards), Reassigned: runReassigned.Load()}, nil
}

// dispatch sends one shard to one worker and converts the answer into a
// sim.Result ready for merging. Injected panics on the dispatch hook are
// converted to dispatch failures — chaos must cost a reassignment, never
// the daemon.
func (c *Coordinator) dispatch(ctx context.Context, w *workerHandle, mode string,
	raw json.RawMessage, wantHash string, opts sim.Options, sh Shard) (res sim.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("dist: dispatch of shard %d panicked: %v", sh.Index, rec)
		}
	}()
	if err := c.cfg.Faults.Fire(ctx, faultinject.HookDistDispatch); err != nil {
		return sim.Result{}, fmt.Errorf("dist: dispatch fault: %w", err)
	}
	c.dispatched.Add(1)
	if c.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.ShardTimeout)
		defer cancel()
	}
	resp, err := w.cli.Shard(ctx, service.ShardRequest{
		Mode:    mode,
		Params:  raw,
		Seed:    opts.Seed,
		Start:   opts.FirstSample + sh.Start,
		Count:   sh.Count,
		Workers: opts.Workers,
	})
	if err != nil {
		return sim.Result{}, err
	}
	w.markUp()
	if resp.ParamsHash != wantHash {
		return sim.Result{}, fmt.Errorf("%w: params hash %s != %s (config skew on %s)",
			errWorkerSkew, resp.ParamsHash, wantHash, w.url)
	}
	if resp.Requested != sh.Count || resp.Completed > resp.Requested || resp.Completed < 0 {
		return sim.Result{}, fmt.Errorf("%w: shard accounting completed %d / requested %d, want requested %d (%s)",
			errWorkerSkew, resp.Completed, resp.Requested, sh.Count, w.url)
	}
	return sim.Result{
		Mode: resp.Mode,
		Counts: sim.Counts{
			Dies:        resp.Counts.Dies,
			OverlayPass: resp.Counts.OverlayPass,
			DefectPass:  resp.Counts.DefectPass,
			RecessPass:  resp.Counts.RecessPass,
			Survived:    resp.Counts.Survived,
		},
		Partial:   resp.Partial,
		Completed: resp.Completed,
		Requested: resp.Requested,
		Elapsed:   time.Duration(resp.ElapsedMs * float64(time.Millisecond)),
	}, nil
}

// permanentDispatchFailure reports failures that reassignment cannot fix:
// the worker judged the request invalid (4xx — a protocol or parameter
// bug) or contradicted the coordinator's view of the run.
func permanentDispatchFailure(err error) bool {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return !apiErr.Temporary()
	}
	return errors.Is(err, errWorkerSkew)
}

// unsupportedOptions rejects sim.Options fields the shard wire protocol
// cannot carry; silently dropping them would change the physics between
// local and distributed runs.
func unsupportedOptions(opts sim.Options) error {
	switch {
	case opts.CollectPerDie:
		return errors.New("dist: CollectPerDie is not supported over the shard protocol; run locally")
	case opts.Ablated():
		return errors.New("dist: fidelity switches are not supported over the shard protocol; run locally")
	}
	return nil
}

// shardStreamSeed hashes an arbitrary label (a worker URL) to a stream
// seed with FNV-1a.
func shardStreamSeed(label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label)) //nolint:errcheck // fnv never fails
	return h.Sum64()
}
