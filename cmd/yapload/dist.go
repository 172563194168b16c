package main

// The distributed-simulation drill (-drill dist): a true multi-process
// topology — distWorkers worker daemons behind a coordinator daemon
// (`yapserve -workers`), every one a yapserve child — asserting the
// subsystem's load-bearing invariants end to end over real HTTP:
//
//   - bit-identity: every distributed run (W2W and D2W) merges to exactly
//     the sim.Result a single-node run produces for the same seed, and
//     repeated runs agree with each other — including while coordinator-
//     side dispatch faults and worker-side sim faults are being injected;
//   - the coordinator's /v1/simulate reports distributed=true, and
//     /metrics exposes the fleet counters;
//   - worker death: after SIGKILLing one worker mid-drill, runs still
//     complete bit-identically through shard reassignment, and the
//     reassignment is observable on /metrics.
//   - early stop: after the kill, an epsilon-armed W2W run shards its
//     checkpoint ladder across the survivors, dispatch faults still armed,
//     and stops at exactly the single-node sample index with the
//     single-node result.
//
// Exits 1 when any invariant is violated.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"yap/internal/client"
	"yap/internal/converge"
	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/service"
	"yap/internal/sim"
)

const (
	// distWorkers leaves two survivors when one worker is killed.
	distWorkers = 3
	// distCoordFaults fails a tenth of shard dispatches on the
	// coordinator, so reassignment runs even before the worker kill.
	distCoordFaults = "seed=5," + faultinject.HookDistDispatch + "=0.1:error"
	// distWorkerFaults fails a few worker-side samples: each surfaces as
	// a failed shard that must be reassigned without perturbing the merge.
	distWorkerFaults = "seed=11," + faultinject.HookSimW2WWafer + "=0.02:error," + faultinject.HookSimD2WDie + "=0.01:error"
	// The epsilon-armed run stops at its first checkpoint, distEarlyMin
	// wafers of a distEarlyCap cap. A later rung is 100 wafers (the wire's
	// fixed check stride), whose shards would each meet several of the
	// worker faults; the dist package tests pin multi-rung ladders.
	distEarlyEpsilon = 0.01
	distEarlyMin     = 12
	distEarlyCap     = 40
)

// runDistDrill returns the process exit code.
func runDistDrill(d *drill, seed uint64, wafers, dies int) int {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Single-node baselines the whole drill is measured against.
	w2wBase, err := sim.RunW2WContext(ctx, sim.Options{Params: core.Baseline(), Seed: seed, Wafers: wafers, Workers: 2})
	if err != nil {
		d.fatalf("dist: baseline w2w: %v", err)
	}
	d2wBase, err := sim.RunD2WContext(ctx, sim.Options{Params: core.Baseline(), Seed: seed, Dies: dies, Workers: 2})
	if err != nil {
		d.fatalf("dist: baseline d2w: %v", err)
	}
	earlyBase, err := sim.RunW2WContext(ctx, sim.Options{Params: core.Baseline(), Seed: seed, Wafers: distEarlyCap, Workers: 2,
		EarlyStop: converge.Rule{Epsilon: distEarlyEpsilon, MinSamples: distEarlyMin}})
	if err != nil {
		d.fatalf("dist: baseline early-stop w2w: %v", err)
	}
	if !earlyBase.StoppedEarly {
		d.fatalf("dist: baseline early-stop w2w ran all %d wafers; the drill needs a run that stops early", earlyBase.Completed)
	}

	workers := make([]*child, distWorkers)
	urls := make([]string, distWorkers)
	for i := range workers {
		workers[i] = d.spawn("", faultsEnv(distWorkerFaults),
			"-max-sims", "2", "-timeout", "30s", "-breaker-threshold", "-1")
		urls[i] = workers[i].url
	}
	coord := d.spawn("", faultsEnv(distCoordFaults), "-workers", strings.Join(urls, ","), "-heartbeat", "500ms")
	// One attempt: a retried run could hide a failed merge.
	cli, err := client.New(client.Config{BaseURL: coord.url, MaxAttempts: 1})
	if err != nil {
		d.fatalf("dist: client: %v", err)
	}

	w2w := service.SimulateRequest{Mode: "w2w", Seed: seed, Wafers: wafers, Workers: 2}
	d2w := service.SimulateRequest{Mode: "d2w", Seed: seed, Dies: dies, Workers: 2}
	check := func(label string, req service.SimulateRequest, want sim.Result) bool {
		resp, err := cli.Simulate(ctx, req)
		switch {
		case err != nil:
			d.violation("%s: distributed run failed: %v", label, err)
		case !resp.Distributed:
			d.violation("%s: coordinator did not report distributed=true", label)
		case !sameResult(resp, want):
			d.violation("%s: distributed result diverges from single node:\n  dist   %+v\n  single %+v", label, *resp, want)
		default:
			d.logger.Printf("dist: %s ok (%d shards, %d reassigned): %d/%d dies, yield %.6f",
				label, resp.Shards, resp.Reassigned, resp.Survived, resp.Dies, resp.Yield)
			return true
		}
		return false
	}

	// Phase 1: bit-identity, twice per mode for run-to-run reproducibility.
	check("w2w#1", w2w, w2wBase)
	check("w2w#2", w2w, w2wBase)
	check("d2w#1", d2w, d2wBase)
	check("d2w#2", d2w, d2wBase)

	// Phase 2: kill one worker and require recovery through reassignment.
	const reassigned = "yapserve_dist_shards_reassigned_total"
	before := d.metric(ctx, coord.url, reassigned)
	d.logger.Printf("dist: killing worker pid %d (%s)", workers[0].cmd.Process.Pid, workers[0].url)
	workers[0].kill()
	after := before
	for i := 0; i < 10 && after <= before && ctx.Err() == nil; i++ {
		if !check(fmt.Sprintf("w2w-postkill#%d", i+1), w2w, w2wBase) {
			break
		}
		after = d.metric(ctx, coord.url, reassigned)
	}
	if after <= before {
		d.violation("killed worker never caused a shard reassignment visible on /metrics (%s %v)", reassigned, after)
	} else {
		d.logger.Printf("dist: recovery ok — reassignments %v -> %v", before, after)
	}

	// Phase 3: early stop composes with the fan-out and the faults.
	check("w2w-epsilon", service.SimulateRequest{Mode: "w2w", Seed: seed, Wafers: distEarlyCap, Workers: 2,
		Epsilon: distEarlyEpsilon, MinSamples: distEarlyMin}, earlyBase)

	fleet, err := scrape(ctx, coord.url)
	if err != nil {
		d.violation("dist: %v", err)
	}
	fmt.Printf("yapload: dist drill: %d workers, %v/%v up, %v shards dispatched, %v reassigned, %v runs merged\n",
		distWorkers, fleet["yapserve_dist_workers_up"], fleet["yapserve_dist_workers_known"],
		fleet["yapserve_dist_shards_dispatched_total"], fleet[reassigned], fleet["yapserve_dist_runs_merged_total"])
	return d.exit("all distributed invariants held")
}
