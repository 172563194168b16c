package main

// The durable-jobs drill (-drill jobs): a true crash-recovery exercise
// over real processes. A yapserve child with a durable job store
// (-jobs-dir) runs one Monte-Carlo job paced by an injected jobs.run
// delay; the drill SIGKILLs it after the job has durably checkpointed but
// long before it finishes, restarts a fresh child over the same store,
// and asserts the subsystem's headline invariants:
//
//   - the restarted daemon resumes the job from its last durable
//     checkpoint (resumes == 1, visible both on the job and as
//     yapserve_jobs_resumed_total on /metrics);
//   - the resumed job's final result is bit-identical to an
//     uninterrupted single-process run of the same spec — the crash is
//     invisible in the tallies;
//   - the kill provably interrupted real work: the job had completed
//     some but not all samples when the SIGKILL landed.
//
// Exits 1 when any invariant is violated.

import (
	"context"
	"fmt"
	"time"

	"yap/internal/client"
	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/service"
	"yap/internal/sim"
)

const (
	// jobsPace delays every job slice 25ms, so with a checkpoint every
	// jobsCheckpointEvery samples a jobsWafers job runs for >= 1.5s — a
	// wide window to land a SIGKILL after the first durable checkpoint.
	jobsPace            = "seed=1," + faultinject.HookJobsRun + "=1:delay:25ms"
	jobsCheckpointEvery = 2
	jobsWafers          = 120
)

// runJobsDrill returns the process exit code.
func runJobsDrill(d *drill, seed uint64) int {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The uninterrupted single-process reference every invariant is
	// measured against.
	base, err := sim.RunW2WContext(ctx, sim.Options{Params: core.Baseline(), Seed: seed, Wafers: jobsWafers, Workers: 2})
	if err != nil {
		d.fatalf("jobs: baseline: %v", err)
	}

	dir := d.tempDir()
	daemon := d.spawn("", faultsEnv(jobsPace), "-jobs-dir", dir, "-sim-workers", "2")
	cli, err := client.New(client.Config{BaseURL: daemon.url, MaxAttempts: 3})
	if err != nil {
		d.fatalf("jobs: client: %v", err)
	}
	sub, err := cli.SubmitJob(ctx, service.JobSubmitRequest{
		Seed: seed, Wafers: jobsWafers, Workers: 2, CheckpointEvery: jobsCheckpointEvery,
	})
	if err != nil {
		d.fatalf("jobs: submit: %v", err)
	}
	d.logger.Printf("jobs: submitted %s (%d wafers, checkpoint every %d)", sub.ID, jobsWafers, jobsCheckpointEvery)

	const held = "all durable-job invariants held"
	atKill := d.awaitCheckpoint(ctx, cli, sub.ID)
	if atKill == nil {
		return d.exit(held)
	}
	d.logger.Printf("jobs: SIGKILLing daemon pid %d with %d/%d samples checkpointed",
		daemon.cmd.Process.Pid, atKill.Completed, jobsWafers)
	daemon.kill()

	// A fresh daemon over the same store, unpaced: recovery replays the
	// WAL and resumes the job from its last durable checkpoint.
	daemon2 := d.spawn("", faultsEnv(""), "-jobs-dir", dir, "-sim-workers", "2")
	cli2, err := client.New(client.Config{BaseURL: daemon2.url, MaxAttempts: 3})
	if err != nil {
		d.fatalf("jobs: client: %v", err)
	}
	done, err := cli2.WaitJob(ctx, sub.ID, 10*time.Millisecond)
	if err != nil {
		d.fatalf("jobs: waiting for resumed job: %v", err)
	}
	switch {
	case done.State != "done" || done.Result == nil:
		d.violation("resumed job finished as %q (error %q), want done with a result", done.State, done.Error)
	case !sameResult(done.Result, base):
		d.violation("resumed result diverges from uninterrupted run:\n  resumed %+v\n  single  %+v", *done.Result, base)
	default:
		d.logger.Printf("jobs: resumed result bit-identical to uninterrupted run: %d/%d dies, yield %.6f",
			done.Result.Survived, done.Result.Dies, done.Result.Yield)
	}
	if done.Resumes != 1 {
		d.violation("resumed job reports %d resumes, want 1", done.Resumes)
	}
	if v := d.metric(ctx, daemon2.url, "yapserve_jobs_resumed_total"); v < 1 {
		d.violation("restart not visible in /metrics: yapserve_jobs_resumed_total %v, want >= 1", v)
	}

	fmt.Printf("yapload: jobs drill: killed at %d/%d samples, resumed and finished\n", atKill.Completed, jobsWafers)
	return d.exit(held)
}
