package jobs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"yap/internal/core"
	"yap/internal/sim"
)

// easySpec is a high-margin d2w spec (yield exactly 1 — see the sim
// early-stop tests): the Wilson half-width shrinks as fast as possible, so
// epsilon-gated jobs stop at predictable checkpoint boundaries.
func easySpec(samples, every int) Spec {
	p := core.Baseline()
	p.DefectDensity = 0
	p.TranslationX, p.TranslationY, p.Rotation, p.Warpage = 0, 0, 0, 0
	p.PlacementTranslationSigma, p.PlacementRotationSigma, p.PlacementWarpageSigma = 0, 0, 0
	p.RandomMisalignmentSigma = 0
	p.RecessSigma = 0.5e-9
	return Spec{Mode: "d2w", Params: p, Seed: 11, Samples: samples, Workers: 2, CheckpointEvery: every}
}

// collectUntilTerminal drains a subscription until a terminal event (or the
// deadline), returning every event received.
func collectUntilTerminal(t *testing.T, ch <-chan Event) []Event {
	t.Helper()
	var events []Event
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev := <-ch:
			events = append(events, ev)
			if ev.Job.State.Terminal() {
				return events
			}
		case <-deadline:
			t.Fatalf("no terminal event after %d events", len(events))
		}
	}
}

func TestStreamEventsToCompletion(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(testSpec(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Subscribe(j.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	events := collectUntilTerminal(t, ch)
	last := events[len(events)-1]
	if last.Job.State != StateDone {
		t.Fatalf("terminal state %s (error %q), want done", last.Job.State, last.Job.Error)
	}
	if last.Job.Result == nil {
		t.Fatal("terminal event carries no result")
	}
	prevSeq, prevCompleted := 0, -1
	for _, ev := range events {
		if ev.Seq <= prevSeq {
			t.Fatalf("seq %d after %d: not strictly increasing", ev.Seq, prevSeq)
		}
		if ev.Job.Completed < prevCompleted {
			t.Fatalf("completed regressed %d -> %d", prevCompleted, ev.Job.Completed)
		}
		if ev.Estimate.Trials != ev.Job.Counts.Dies || ev.Estimate.Successes != ev.Job.Counts.Survived {
			t.Fatalf("estimate %+v inconsistent with counts %+v", ev.Estimate, ev.Job.Counts)
		}
		prevSeq, prevCompleted = ev.Seq, ev.Job.Completed
	}
	// The streamed terminal snapshot is the same job Get returns.
	got, err := m.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripElapsed(*last.Job.Result), stripElapsed(*got.Result)) {
		t.Errorf("streamed final result differs from Get:\n got %+v\nwant %+v",
			*last.Job.Result, *got.Result)
	}
	// Expect at least running + 3 checkpoints + done.
	if len(events) < 4 {
		t.Errorf("only %d events for a 3-checkpoint job", len(events))
	}
}

// A subscriber that arrives (or reconnects) after the fact gets the current
// snapshot immediately — no history needed, any afterSeq mismatch works,
// including seq numbers from a previous daemon incarnation.
func TestStreamResumeSnapshot(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(testSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, j.ID)

	for _, afterSeq := range []int{0, 2, 999} {
		ch, cancel, err := m.Subscribe(j.ID, afterSeq)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-ch:
			if ev.Job.State != StateDone || ev.Job.Result == nil {
				t.Errorf("afterSeq=%d: snapshot %+v, want done with result", afterSeq, ev.Job.State)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("afterSeq=%d: no immediate snapshot", afterSeq)
		}
		cancel()
	}

	// A terminal job delivers its snapshot even at the current sequence:
	// it will never publish again, so "nothing new" would strand the
	// subscriber, and seq numbers don't survive daemon restarts anyway.
	m.mu.Lock()
	seq := m.jobs[j.ID].seq
	m.mu.Unlock()
	ch, cancel, err := m.Subscribe(j.ID, seq)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	select {
	case ev := <-ch:
		if ev.Job.State != StateDone {
			t.Errorf("current-seq snapshot state %s, want done", ev.Job.State)
		}
	case <-time.After(5 * time.Second):
		t.Error("current-seq subscriber of a terminal job got no snapshot")
	}
}

// A subscription to a job recovered from disk in a terminal state must
// still deliver the snapshot: the recovered job's sequence restarted at 0
// and it will never publish again, so a fresh subscriber (afterSeq 0)
// would otherwise wait forever.
func TestStreamSubscribeRecoveredTerminalJob(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(testSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, j.ID)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for _, afterSeq := range []int{0, 3} {
		ch, cancel, err := m2.Subscribe(j.ID, afterSeq)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-ch:
			if ev.Job.State != StateDone || ev.Job.Result == nil {
				t.Errorf("afterSeq=%d: recovered snapshot %+v, want done with result", afterSeq, ev.Job)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("afterSeq=%d: no snapshot for recovered terminal job", afterSeq)
		}
		cancel()
	}
}

func TestSubscribeErrors(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Subscribe("job-999999", 0); err != ErrNotFound {
		t.Errorf("unknown job: %v, want ErrNotFound", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Subscribe("job-000001", 0); err != ErrClosed {
		t.Errorf("closed manager: %v, want ErrClosed", err)
	}
}

// A subscriber that never drains loses the oldest events, never the
// newest: after the job finishes, the channel's backlog still ends with
// the terminal snapshot.
func TestStreamSlowSubscriberKeepsNewest(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// 30 checkpoints + running + done = 32 events > the 16-slot buffer.
	j, err := m.Submit(easySpec(300, 10))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Subscribe(j.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	waitTerminal(t, m, j.ID)

	var last Event
	n := 0
	for {
		select {
		case ev := <-ch:
			last = ev
			n++
			continue
		default:
		}
		break
	}
	if n == 0 || n > eventBuffer {
		t.Fatalf("backlog of %d events, want 1..%d", n, eventBuffer)
	}
	if last.Job.State != StateDone {
		t.Errorf("backlog ends with state %s, want done", last.Job.State)
	}
}

// An epsilon-gated job finishes at the first checkpoint whose Wilson
// half-width is within epsilon — here sample 2000 of a 20000 cap (at yield
// 1 the half-width is z²/2(n+z²): 1.28e-3 at 1500, 9.59e-4 at 2000).
func TestJobEarlyStop(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := easySpec(20000, 500)
	spec.Epsilon = 1e-3
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, j.ID)
	if done.State != StateDone {
		t.Fatalf("state %s (error %q), want done", done.State, done.Error)
	}
	if done.Completed != 2000 {
		t.Errorf("completed %d, want the 2000 boundary", done.Completed)
	}
	res := done.Result
	if res == nil || !res.StoppedEarly || res.Partial {
		t.Fatalf("result %+v, want StoppedEarly and not Partial", res)
	}
	if res.Completed != 2000 || res.Requested != 20000 {
		t.Errorf("result samples %d/%d, want 2000/20000", res.Completed, res.Requested)
	}
	if hw := (res.YieldHi - res.YieldLo) / 2; hw > spec.Epsilon {
		t.Errorf("stopped with half-width %g > epsilon %g", hw, spec.Epsilon)
	}
	st := m.Stats()
	if st.EarlyStops != 1 || st.SamplesSaved != 18000 {
		t.Errorf("stats EarlyStops=%d SamplesSaved=%d, want 1/18000", st.EarlyStops, st.SamplesSaved)
	}
}

// The early-stop property across crash/resume: a job killed mid-run stops
// at exactly the sample index — with a bit-identical Result — that the
// uninterrupted job reaches, because the rule only fires at durable
// checkpoint boundaries carrying deterministic tallies.
func TestJobEarlyStopAcrossResumeBitIdentical(t *testing.T) {
	spec := easySpec(20000, 500)
	spec.Epsilon = 1e-3

	// Uninterrupted reference.
	ref, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, jr.ID)
	ref.Close()
	if !want.Result.StoppedEarly {
		t.Fatalf("reference job did not stop early: %+v", want.Result)
	}

	// Crash after two productive slices (sample 1000 durable), then resume.
	dir := t.TempDir()
	var slices atomic.Int32
	interrupted := make(chan struct{})
	run := func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
		if slices.Add(1) == 3 {
			close(interrupted)
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		}
		return sim.LocalRunner()(ctx, mode, opts)
	}
	m, err := Open(Config{Dir: dir, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-interrupted
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	done := waitTerminal(t, m2, j.ID)
	if done.State != StateDone || done.Resumes != 1 {
		t.Fatalf("state %s resumes %d, want done after 1 resume", done.State, done.Resumes)
	}
	if done.Completed != want.Completed {
		t.Errorf("resumed stop index %d != uninterrupted %d", done.Completed, want.Completed)
	}
	if !reflect.DeepEqual(stripElapsed(*done.Result), stripElapsed(*want.Result)) {
		t.Errorf("resumed early-stop result differs:\n got %+v\nwant %+v",
			*done.Result, *want.Result)
	}
}

// A crash can land between appending the checkpoint record where the rule
// fires and appending the terminal done record: the job is then durably
// "running" at exactly the stop index. The resume must finish it from the
// durable prefix without running another slice — otherwise it would stop
// later than the uninterrupted job, breaking the determinism contract.
func TestJobEarlyStopResumeAtFiredCheckpoint(t *testing.T) {
	spec := easySpec(20000, 500)
	spec.Epsilon = 1e-3

	// Uninterrupted reference for the expected stop index and tallies.
	ref, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, jr.ID)
	ref.Close()
	if !want.Result.StoppedEarly {
		t.Fatalf("reference job did not stop early: %+v", want.Result)
	}

	// Durable state exactly as the lost-terminal-record crash leaves it:
	// the firing checkpoint's cumulative tallies are on disk, the done
	// record is not.
	dir := t.TempDir()
	wire, err := specToWire(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := persistedState{NextID: 2, Jobs: []persistedJob{{
		ID:        "job-000001",
		Spec:      wire,
		State:     StateRunning,
		Completed: want.Completed,
		Counts:    want.Counts,
	}}}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	var slices atomic.Int32
	run := func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
		slices.Add(1)
		return sim.LocalRunner()(ctx, mode, opts)
	}
	m, err := Open(Config{Dir: dir, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	done := waitTerminal(t, m, "job-000001")
	if done.State != StateDone {
		t.Fatalf("state %s (error %q), want done", done.State, done.Error)
	}
	if n := slices.Load(); n != 0 {
		t.Errorf("resume ran %d slices past the fired checkpoint, want 0", n)
	}
	if done.Completed != want.Completed {
		t.Errorf("resumed stop index %d != uninterrupted %d", done.Completed, want.Completed)
	}
	if done.Result == nil || !done.Result.StoppedEarly {
		t.Fatalf("result %+v, want StoppedEarly", done.Result)
	}
	if !reflect.DeepEqual(stripElapsed(*done.Result), stripElapsed(*want.Result)) {
		t.Errorf("resumed result differs:\n got %+v\nwant %+v", *done.Result, *want.Result)
	}
	stats := m.Stats()
	if stats.EarlyStops != 1 || stats.SamplesSaved != uint64(spec.Samples-want.Completed) {
		t.Errorf("stats EarlyStops=%d SamplesSaved=%d, want 1/%d",
			stats.EarlyStops, stats.SamplesSaved, spec.Samples-want.Completed)
	}
}

// A done-with-early-stop job recovered from disk reconstructs the
// StoppedEarly flag and the requested cap from durable state alone.
func TestEarlyStopSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := easySpec(20000, 500)
	spec.Epsilon = 1e-3
	m, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, m, j.ID)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got, err := m2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result == nil || !got.Result.StoppedEarly {
		t.Fatalf("recovered result %+v, want StoppedEarly", got.Result)
	}
	if got.Result.Requested != 20000 || got.Result.Completed != want.Completed {
		t.Errorf("recovered samples %d/%d, want %d/20000",
			got.Result.Completed, got.Result.Requested, want.Completed)
	}
	if !reflect.DeepEqual(stripElapsed(*got.Result), stripElapsed(*want.Result)) {
		t.Errorf("recovered result differs:\n got %+v\nwant %+v", *got.Result, *want.Result)
	}
}

func TestSubmitRejectsNegativeEarlyStop(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bad := testSpec(4, 2)
	bad.Epsilon = -0.5
	if _, err := m.Submit(bad); err == nil {
		t.Error("negative epsilon accepted")
	}
	bad = testSpec(4, 2)
	bad.MinSamples = -1
	if _, err := m.Submit(bad); err == nil {
		t.Error("negative min_samples accepted")
	}
}
