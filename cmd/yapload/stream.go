package main

// The convergence-streaming drill (-drill stream): a live watch over a
// durable job's SSE stream, with the connection deliberately dropped
// mid-run and resumed from the last event ID. The daemon is a yapserve
// child with a job store, every job slice paced by an injected jobs.run
// delay so the drop cannot race completion, and heartbeats tightened to
// exercise the keep-alive path. Invariants:
//
//   - stream events are well-formed: sequence numbers strictly increase,
//     completed counts never regress, and every running yield estimate is
//     exactly consistent with the raw tallies it rides with;
//   - a watch dropped mid-stream resumes losslessly: reconnecting with
//     the last seen sequence completes the watch, and the streamed final
//     result is bit-identical to what GET /v1/jobs/{id} reports;
//   - a job armed with epsilon stops early — done, not partial, with at
//     most half its sample cap spent and the CI half-width at or under
//     epsilon — and the stop is visible on /metrics
//     (yapserve_early_stops_total, yapserve_samples_saved_total);
//   - yapserve_stream_subscribers returns to zero once the watches end.
//
// Exits 1 when any invariant is violated.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"time"

	"yap/internal/client"
	"yap/internal/core"
	"yap/internal/service"
)

// streamDrillWafers paces phase 1: with the injected 25ms delay per
// 2-wafer slice the job runs ~750ms — a wide window to drop the watch
// after two checkpoints and resume long before completion.
const (
	streamDrillWafers     = 60
	streamDrillEpsilon    = 1e-3
	streamDrillSampleCap  = 20000
	streamDrillCheckpoint = 500
)

// runStreamDrill returns the process exit code.
func runStreamDrill(d *drill, seed uint64) int {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	base := d.spawn("", faultsEnv(jobsPace), "-jobs-dir", d.tempDir(), "-stream-heartbeat", "100ms").url
	cli, err := client.New(client.Config{BaseURL: base, MaxAttempts: 4})
	if err != nil {
		d.fatalf("stream: client: %v", err)
	}

	// Phase 1: watch a paced job, drop the connection after two
	// checkpoint events, resume from the last sequence seen.
	sub, err := cli.SubmitJob(ctx, service.JobSubmitRequest{
		Seed: seed, Wafers: streamDrillWafers, Workers: 2, CheckpointEvery: jobsCheckpointEvery,
	})
	if err != nil {
		d.fatalf("stream: submit: %v", err)
	}
	d.logger.Printf("stream: submitted %s (%d wafers, checkpoint every %d)",
		sub.ID, streamDrillWafers, jobsCheckpointEvery)

	v := &streamValidator{d: d}
	watchCtx, dropWatch := context.WithCancel(ctx)
	defer dropWatch()
	checkpoints := 0
	_, err = cli.StreamJob(watchCtx, sub.ID, 0, func(ev *service.JobStreamEvent) error {
		v.observe(ev)
		if ev.Completed > 0 {
			checkpoints++
		}
		if checkpoints >= 2 {
			dropWatch() // the "dropped connection"
		}
		return nil
	})
	switch {
	case err == nil:
		d.violation("watch survived its canceled context; the drop landed after the job finished — widen the pacing")
	case !errors.Is(err, context.Canceled):
		d.violation("dropped watch surfaced %v, want a context.Canceled chain", err)
	}
	if v.last == nil || v.last.Completed >= streamDrillWafers {
		d.violation("drop landed outside the run (last event %+v)", v.last)
	}
	dropSeq, dropCompleted := 0, 0
	if v.last != nil {
		dropSeq, dropCompleted = v.last.Seq, v.last.Completed
	}
	d.logger.Printf("stream: dropped watch at seq %d (%d/%d wafers); resuming",
		dropSeq, dropCompleted, streamDrillWafers)

	final, err := cli.StreamJob(ctx, sub.ID, dropSeq, func(ev *service.JobStreamEvent) error {
		v.observe(ev)
		return nil
	})
	if err != nil {
		d.fatalf("stream: resumed watch: %v", err)
	}
	if final.State != "done" || final.Result == nil {
		d.violation("resumed watch ended %q (error %q), want done with result", final.State, final.Error)
	} else {
		job, err := cli.GetJob(ctx, sub.ID)
		if err != nil {
			d.fatalf("stream: GetJob: %v", err)
		}
		streamed, polled := *final.Result, *job.Result
		streamed.ElapsedMs, polled.ElapsedMs = 0, 0
		if !reflect.DeepEqual(streamed, polled) {
			d.violation("streamed final result diverges from GetJob:\n  streamed %+v\n  polled   %+v", streamed, polled)
		} else {
			d.logger.Printf("stream: streamed final bit-identical to GetJob: %d/%d dies, yield %.6f",
				streamed.Survived, streamed.Dies, streamed.Yield)
		}
	}

	// Phase 2: an epsilon-armed job must stop early, and the stop must be
	// visible in the daemon's metrics.
	easy := core.Baseline()
	easy.DefectDensity = 0
	easy.TranslationX, easy.TranslationY, easy.Rotation, easy.Warpage = 0, 0, 0, 0
	easy.PlacementTranslationSigma, easy.PlacementRotationSigma, easy.PlacementWarpageSigma = 0, 0, 0
	easy.RandomMisalignmentSigma = 0
	easy.RecessSigma = 0.5e-9
	rawEasy, err := json.Marshal(easy)
	if err != nil {
		d.fatalf("stream: encoding easy params: %v", err)
	}
	sub2, err := cli.SubmitJob(ctx, service.JobSubmitRequest{
		Mode: "d2w", Params: rawEasy, Seed: seed + 1, Dies: streamDrillSampleCap,
		Workers: 2, CheckpointEvery: streamDrillCheckpoint, Epsilon: streamDrillEpsilon,
	})
	if err != nil {
		d.fatalf("stream: submit early-stop job: %v", err)
	}
	final2, err := cli.StreamJob(ctx, sub2.ID, 0, nil)
	if err != nil {
		d.fatalf("stream: early-stop watch: %v", err)
	}
	switch {
	case final2.State != "done" || final2.Result == nil:
		d.violation("early-stop job ended %q (error %q), want done", final2.State, final2.Error)
	case !final2.StoppedEarly || !final2.Result.StoppedEarly:
		d.violation("early-stop job not flagged stopped_early: %+v", final2.Result)
	default:
		r := final2.Result
		if r.SamplesUsed <= 0 || r.SamplesUsed*2 > streamDrillSampleCap {
			d.violation("early stop used %d of %d samples, want at most half", r.SamplesUsed, streamDrillSampleCap)
		}
		if r.CIHalfWidth > streamDrillEpsilon {
			d.violation("early stop half-width %g > epsilon %g", r.CIHalfWidth, streamDrillEpsilon)
		}
		if r.Partial {
			d.violation("early-stopped job marked partial")
		}
		d.logger.Printf("stream: early stop at %d/%d samples (%.1fx fewer), half-width %.2g",
			r.SamplesUsed, streamDrillSampleCap,
			float64(streamDrillSampleCap)/float64(r.SamplesUsed), r.CIHalfWidth)

		if got := d.metric(ctx, base, "yapserve_early_stops_total"); got < 1 {
			d.violation("yapserve_early_stops_total %v, want >= 1", got)
		}
		saved := float64(streamDrillSampleCap - r.SamplesUsed)
		if got := d.metric(ctx, base, "yapserve_samples_saved_total"); got != saved {
			d.violation("yapserve_samples_saved_total %v, want %v", got, saved)
		}
	}
	if got := d.metric(ctx, base, "yapserve_stream_subscribers"); got != 0 {
		d.violation("yapserve_stream_subscribers %v after all watches ended, want 0", got)
	}

	fmt.Printf("yapload: stream drill: %d events validated, dropped at seq %d and resumed, early stop verified\n",
		v.events, dropSeq)
	return d.exit("all streaming invariants held")
}

// streamValidator applies the per-event invariants across both halves of
// a dropped-and-resumed watch: sequences strictly increase, completion
// never regresses, and estimates are consistent with their tallies.
type streamValidator struct {
	d      *drill
	last   *service.JobStreamEvent
	events int
}

func (v *streamValidator) observe(ev *service.JobStreamEvent) {
	v.events++
	if v.last != nil {
		if ev.Seq <= v.last.Seq {
			v.d.violation("stream seq %d after %d, want strictly increasing", ev.Seq, v.last.Seq)
		}
		if ev.Completed < v.last.Completed {
			v.d.violation("stream completed %d after %d, want non-decreasing", ev.Completed, v.last.Completed)
		}
	}
	if ev.Counts.Dies > 0 {
		if want := float64(ev.Counts.Survived) / float64(ev.Counts.Dies); ev.Yield != want {
			v.d.violation("event seq %d: yield %v inconsistent with tallies %d/%d",
				ev.Seq, ev.Yield, ev.Counts.Survived, ev.Counts.Dies)
		}
		if ev.YieldLo > ev.Yield || ev.Yield > ev.YieldHi {
			v.d.violation("event seq %d: yield %v outside [%v, %v]", ev.Seq, ev.Yield, ev.YieldLo, ev.YieldHi)
		}
	}
	if want := (ev.YieldHi - ev.YieldLo) / 2; ev.CIHalfWidth != want {
		v.d.violation("event seq %d: ci_halfwidth %v != (hi-lo)/2 = %v", ev.Seq, ev.CIHalfWidth, want)
	}
	copied := *ev
	v.last = &copied
}
