// Command yapserve runs the YAP yield model as a resident HTTP service:
// analytic evaluations (cached, microseconds), Monte-Carlo simulations
// (bounded worker pool, per-request deadlines, cooperative cancellation)
// and concurrent batch parameter sweeps, with Prometheus-format metrics.
//
// Usage:
//
//	yapserve [-addr :8080] [-config process.json] [-cache 1024]
//	         [-max-sims n] [-sim-workers n] [-timeout 2m]
//	         [-max-body bytes] [-max-sweep-points n]
//	         [-max-queued n] [-retry-after 1s]
//	         [-breaker-threshold n] [-breaker-cooldown 5s]
//	         [-workers url1,url2,...]
//	         [-shards-per-worker 2] [-heartbeat 2s] [-shard-timeout d]
//	         [-jobs-dir dir] [-checkpoint-every n] [-job-ttl d]
//	         [-job-runners n] [-stream-heartbeat 15s]
//	         [-peers url1,url2 -advertise url] [-election-lease 2s]
//	         [-election-heartbeat d] [-quorum-timeout d]
//	         [-cache-peers url1,url2] [-version]
//
// Resilience: simulate and shard admission beyond -max-queued waiting
// requests is shed with 503 "overloaded" plus a Retry-After hint; a
// deadline that fires mid-simulation returns the completed samples as a
// 200 with "partial": true, and one that fires mid-batch becomes
// per-point errors under a 200; repeated internal simulation failures
// trip a circuit breaker. Setting YAP_FAULTS (see internal/faultinject)
// arms deterministic fault injection for chaos drills.
//
// Distributed simulation (internal/dist): -workers turns the daemon into
// a coordinator that shards each /v1/simulate run across the listed
// worker daemons and merges their integer tallies into a result
// bit-identical to the single-node run for the same seed. Workers are
// plain yapserve processes: every daemon serves the shard protocol
// (/v1/shard). Shards from dead or slow workers are reassigned
// automatically; reassignment and fleet counters appear on /metrics.
//
// Durable jobs (internal/jobs): -jobs-dir enables POST /v1/jobs, an
// asynchronous alternative to /v1/simulate. Submissions answer 202
// immediately and execute on a bounded runner pool, appending raw-tally
// checkpoints every -checkpoint-every samples to a write-ahead log in
// -jobs-dir. A crash or restart replays the log and resumes every
// unfinished job from its last durable checkpoint, with final results
// bit-identical to an uninterrupted run. Finished jobs stay queryable
// for -job-ttl. When -workers is set, jobs shard across the fleet like
// synchronous simulations.
//
// Streaming and early stop (internal/converge): every running job's
// convergence is watchable live on GET /v1/jobs/{id}/stream — SSE
// events carrying the job's cumulative tallies and Wilson-interval
// yield estimate, resumable after a dropped connection via
// Last-Event-ID, kept alive by comment heartbeats every
// -stream-heartbeat. Both /v1/simulate and /v1/jobs accept "epsilon"
// (plus "min_samples") to arm the deterministic sequential early-stop
// rule: the run finishes as soon as the 95% CI half-width reaches
// epsilon, reporting stopped_early, samples_used and ci_halfwidth.
//
// High availability (internal/replica): -peers makes the daemon one
// member of a replicated job control plane. Every durable job-store
// record ships to the peers over POST /v1/replica and a submit is only
// reported accepted once a quorum holds it; the members run a
// deterministic leader election (term + heartbeat lease; ties break by
// member rank, and a stale replica can never win), so when the leader
// dies a follower promotes itself within about one lease and resumes
// every unfinished job from its last replicated checkpoint —
// bit-identically. Job mutations on a follower answer 409 "not_leader"
// with the leader's URL; the Go client follows it automatically.
// POST /v1/replica bodies are bounded by the largest record the job
// store accepts, not by -max-body.
//
// Fleet cache (internal/fleetcache): -cache-peers names the OTHER
// members of a fleet-wide evaluate cache (it defaults to reusing -peers,
// so an HA cluster shares its cache for free; -advertise is this
// member's identity either way). Analytic evaluations — /v1/evaluate,
// batch and sweeps — then deduplicate fleet-wide: concurrent
// identical requests coalesce onto one in-flight computation
// (singleflight), local misses consult the key's rendezvous-hashed owner
// member before computing, and a member that computes a remotely-owned
// key pushes the entry to its owner. Peer exchanges are hash-verified,
// deadline-bounded and circuit-broken, so a dead peer degrades to local
// compute — never an error.
//
// Endpoints:
//
//	POST   /v1/evaluate   analytic W2W/D2W breakdown (Eq. 22 / Eq. 28)
//	POST   /v1/evaluate/batch  N points over a shared base, streamed per-point results
//	GET    /v1/cache/{mode}/{hash}  one fleet-cache entry (peer fetch; local store only)
//	PUT    /v1/cache/{mode}/{hash}  owner-warming offer (hash re-verified)
//	POST   /v1/simulate   Monte-Carlo yield simulation (sharded when -workers is set)
//	POST   /v1/shard      one slice of a distributed run (worker protocol)
//	POST   /v1/sweep      /v1/evaluate/batch under its own metrics label
//	POST   /v1/jobs       submit a durable asynchronous simulation (needs -jobs-dir)
//	GET    /v1/jobs       list jobs
//	GET    /v1/jobs/{id}  poll one job (terminal jobs carry the result)
//	GET    /v1/jobs/{id}/stream  live convergence events (SSE, resumable)
//	DELETE /v1/jobs/{id}  cancel a pending or running job
//	POST   /v1/replica    control-plane replication (peer append/vote RPCs)
//	GET    /healthz       liveness
//	GET    /metrics       Prometheus text format
//
// SIGINT/SIGTERM drain in-flight requests (up to -drain, default 30s)
// before exiting; a second signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"yap/internal/daemon"
)

func main() {
	// The first SIGINT/SIGTERM cancels ctx and the daemon drains; stop
	// then restores default handling, so a second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	if err := daemon.Run(ctx, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.New(os.Stderr, "yapserve: ", log.LstdFlags).Fatal(err)
	}
}
