package service

import (
	"context"

	"yap/internal/sim"
)

// Distributor shards a Monte-Carlo run across remote workers and merges
// the tallies. internal/dist.Coordinator is the implementation; the
// interface lives here so the service layer can fan simulate requests out
// without importing the dist package (which sits above service on the
// dependency ladder: dist → client → service).
//
// The contract mirrors the single-node engine exactly: for the same mode,
// parameters, seed and sample range, Simulate must return a sim.Result
// bit-identical (Elapsed excluded) to sim.RunW2WContext/RunD2WContext. A
// deadline that expires mid-run may fold partial shard results into a
// partial merged Result, just like the local engine does. Simulate runs
// one fixed-N slice; the service drives an early-stop run's ladder over
// it as a sim.SliceRunner, one call per slice.
type Distributor interface {
	// Simulate runs opts on the worker fleet. mode is "w2w" or "d2w".
	Simulate(ctx context.Context, mode string, opts sim.Options) (sim.Result, DistInfo, error)
	// Stats snapshots fleet-wide counters for /metrics.
	Stats() DistStats
}

// DistInfo describes how one distributed run was executed.
type DistInfo struct {
	// Shards is the number of slices the run was partitioned into.
	Shards int
	// Reassigned counts shard dispatches that failed (dead worker,
	// injected fault) and were requeued onto another worker during this
	// run.
	Reassigned uint64
}

// DistStats is the coordinator's cumulative view of its worker fleet,
// exposed as yapserve_dist_* series on /metrics.
type DistStats struct {
	// WorkersKnown and WorkersUp size the configured fleet and the subset
	// currently believed healthy (heartbeats plus dispatch outcomes).
	WorkersKnown, WorkersUp int
	// ShardsDispatched counts shard dispatch attempts; ShardsReassigned
	// counts the failed attempts that were requeued.
	ShardsDispatched, ShardsReassigned uint64
	// RunsMerged counts fan-outs merged to completion, one per Simulate
	// call: an early-stopped run adds one per slice of its ladder.
	RunsMerged uint64
}
