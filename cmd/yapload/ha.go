package main

// The high-availability drill (-drill ha): a true coordinator-failover
// exercise over real processes. Three yapserve children form a replicated
// job control plane (-peers, internal/replica over real HTTP); the drill
// submits one paced Monte-Carlo job through the leader-following client,
// SIGKILLs the LEADER after the job has durably checkpointed but long
// before it finishes, and asserts the subsystem's headline invariants:
//
//   - a surviving follower promotes itself within the election lease and
//     resumes the job from its last replicated checkpoint;
//   - the failed-over job's final result is bit-identical to an
//     uninterrupted single-process run of the same spec — the leader's
//     death is invisible in the tallies;
//   - the kill provably interrupted real work (the job had completed
//     some but not all samples on the old leader);
//   - after a second member dies the cluster has no quorum, and a submit
//     is REFUSED — a job is never reported accepted without a majority
//     durably holding it.
//
// The drill runs with replication faults armed — replica.ship attempt
// drops and lost replica.elect vote exchanges — so shipment retries and
// retried election terms are exercised, not just the happy path.
// Exits 1 when any invariant is violated.

import (
	"context"
	"fmt"
	"time"

	"yap/internal/client"
	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/replica"
	"yap/internal/resilience"
	"yap/internal/service"
	"yap/internal/sim"
)

// haFaults paces job slices like the jobs drill (so the kill cannot race
// completion, whichever member leads), drops 5% of replication shipment
// attempts (so sender retry is exercised under load) and loses 10% of
// vote exchanges (so elections retry their term).
const haFaults = jobsPace + "," + faultinject.HookReplicaShip + "=0.05:error," + faultinject.HookReplicaElect + "=0.1:error"

// haWaitLeader polls the live members until exactly one reports itself
// leader, returning its index; -1 on timeout.
func haWaitLeader(ctx context.Context, urls []string, dead map[int]bool, patience time.Duration) int {
	deadline := time.Now().Add(patience)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		leader := -1
		leaders := 0
		for i, u := range urls {
			if dead[i] {
				continue
			}
			if m, err := scrape(ctx, u); err == nil && m["yapserve_replica_role"] == float64(replica.RoleLeader) {
				leader = i
				leaders++
			}
		}
		if leaders == 1 {
			return leader
		}
		time.Sleep(20 * time.Millisecond)
	}
	return -1
}

// runHADrill returns the process exit code.
func runHADrill(d *drill, seed uint64) int {
	const members = 3
	const held = "all high-availability invariants held"

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// The uninterrupted single-process reference the failover is measured
	// against.
	base, err := sim.RunW2WContext(ctx, sim.Options{Params: core.Baseline(), Seed: seed, Wafers: jobsWafers, Workers: 2})
	if err != nil {
		d.fatalf("ha: baseline: %v", err)
	}

	addrs := d.reserveAddrs(members)
	urls := make([]string, members)
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	procs := make([]*child, members)
	dead := make(map[int]bool)
	for i := range procs {
		procs[i] = d.spawn(addrs[i], faultsEnv(haFaults), "-jobs-dir", d.tempDir(),
			"-peers", others(urls, i), "-advertise", urls[i], "-election-lease", "400ms")
	}

	leader := haWaitLeader(ctx, urls, dead, 10*time.Second)
	if leader < 0 {
		d.violation("no single leader emerged from the fresh cluster")
		return d.exit(held)
	}
	d.logger.Printf("ha: member %d leads", leader)

	// Submit through a FOLLOWER: the client must follow the 409 redirect.
	cli, err := client.New(client.Config{BaseURL: urls[(leader+1)%members], MaxAttempts: 8,
		Backoff: resilience.Backoff{Base: 5 * time.Millisecond, Max: 300 * time.Millisecond, Seed: seed}})
	if err != nil {
		d.fatalf("ha: client: %v", err)
	}
	sub, err := cli.SubmitJob(ctx, service.JobSubmitRequest{
		Seed: seed, Wafers: jobsWafers, Workers: 2, CheckpointEvery: jobsCheckpointEvery,
	})
	if err != nil {
		d.fatalf("ha: submit: %v", err)
	}
	d.logger.Printf("ha: submitted %s via follower redirect (%d wafers, checkpoint every %d)",
		sub.ID, jobsWafers, jobsCheckpointEvery)

	atKill := d.awaitCheckpoint(ctx, cli, sub.ID)
	if atKill == nil {
		return d.exit(held)
	}
	d.logger.Printf("ha: SIGKILLing leader %d (pid %d) with %d/%d samples checkpointed",
		leader, procs[leader].cmd.Process.Pid, atKill.Completed, jobsWafers)
	procs[leader].kill()
	dead[leader] = true

	successor := haWaitLeader(ctx, urls, dead, 15*time.Second)
	if successor < 0 {
		d.violation("no successor elected after the leader died")
		return d.exit(held)
	}
	d.logger.Printf("ha: member %d took over", successor)

	// The leader-following client rides out the failover: its learned
	// leader is dead, so it falls back and follows the new redirect.
	done, err := cli.WaitJob(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		d.fatalf("ha: waiting for failed-over job: %v", err)
	}
	switch {
	case done.State != "done" || done.Result == nil:
		d.violation("failed-over job finished as %q (error %q), want done with a result", done.State, done.Error)
	case !sameResult(done.Result, base):
		d.violation("failed-over result diverges from uninterrupted run:\n  failover %+v\n  single   %+v", *done.Result, base)
	default:
		d.logger.Printf("ha: failed-over result bit-identical to uninterrupted run: %d/%d dies, yield %.6f",
			done.Result.Survived, done.Result.Dies, done.Result.Yield)
	}
	if done.Resumes < 1 {
		d.violation("failed-over job reports %d resumes, want >= 1", done.Resumes)
	}

	// Kill a second member: one of three survivors is not a majority, so
	// a submit must be refused — never falsely accepted.
	second := (successor + 1) % members
	if dead[second] {
		second = (successor + 2) % members
	}
	d.logger.Printf("ha: SIGKILLing member %d — the cluster loses quorum", second)
	procs[second].kill()
	dead[second] = true
	qctx, qcancel := context.WithTimeout(ctx, 20*time.Second)
	refused, err := client.New(client.Config{BaseURL: urls[successor], MaxAttempts: 2,
		Backoff: resilience.Backoff{Base: 5 * time.Millisecond, Max: 300 * time.Millisecond, Seed: seed + 1}})
	if err != nil {
		d.fatalf("ha: client: %v", err)
	}
	resp, err := refused.SubmitJob(qctx, service.JobSubmitRequest{Seed: seed + 7, Wafers: 4})
	qcancel()
	if err == nil {
		d.violation("submit without quorum reported accepted: %+v", resp)
	} else {
		d.logger.Printf("ha: quorumless submit correctly refused: %v", err)
	}

	fmt.Printf("yapload: ha drill: killed leader at %d/%d samples, follower finished the job\n",
		atKill.Completed, jobsWafers)
	return d.exit(held)
}
