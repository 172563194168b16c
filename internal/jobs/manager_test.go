package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/layout"
	"yap/internal/sim"
)

func testSpec(samples, every int) Spec {
	return Spec{
		Mode:            "w2w",
		Params:          core.Baseline(),
		Seed:            42,
		Samples:         samples,
		Workers:         2,
		CheckpointEvery: every,
	}
}

// baseline runs the spec uninterrupted in one process — the reference
// every resume test compares against.
func baseline(t *testing.T, spec Spec) sim.Result {
	t.Helper()
	res, err := sim.RunW2WContext(context.Background(), sim.Options{
		Params:  spec.Params,
		Seed:    spec.Seed,
		Wafers:  spec.Samples,
		Workers: spec.Workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func stripElapsed(r sim.Result) sim.Result {
	r.Elapsed = 0
	return r
}

// waitTerminal polls until the job leaves the live states.
func waitTerminal(t *testing.T, m *Manager, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Job{}
}

// Submit resolves a zero CheckpointEvery into the manager default and
// persists it, so a resumed job keeps its original checkpoint ladder (and
// with it the early-stop index) even when the daemon's configured default
// changes across a restart.
func TestSubmitPersistsCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(testSpec(6, 0))
	if err != nil {
		t.Fatal(err)
	}
	if j.Spec.CheckpointEvery != 3 {
		t.Errorf("submitted spec cadence %d, want the resolved default 3", j.Spec.CheckpointEvery)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{Dir: dir, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	got := waitTerminal(t, m2, j.ID)
	if got.Spec.CheckpointEvery != 3 {
		t.Errorf("recovered spec cadence %d, want the submit-time 3", got.Spec.CheckpointEvery)
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	spec := testSpec(6, 2)
	want := baseline(t, spec)

	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StatePending || j.ID == "" {
		t.Fatalf("submitted job: state %s id %q", j.State, j.ID)
	}
	if j.ParamsHash != spec.Params.HashString() {
		t.Errorf("params hash %q != %q", j.ParamsHash, spec.Params.HashString())
	}
	done := waitTerminal(t, m, j.ID)
	if done.State != StateDone {
		t.Fatalf("state %s (error %q), want done", done.State, done.Error)
	}
	if done.Result == nil {
		t.Fatal("done job has no result")
	}
	if got := stripElapsed(*done.Result); !reflect.DeepEqual(got, stripElapsed(want)) {
		t.Errorf("job result differs from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
	if done.Completed != spec.Samples {
		t.Errorf("completed %d, want %d", done.Completed, spec.Samples)
	}
	st := m.Stats()
	if st.Done != 1 || st.Submitted != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.Checkpoints < 3 {
		t.Errorf("expected >= 3 checkpoints for 6 samples every 2, got %d", st.Checkpoints)
	}
}

// TestCrashResumeBitIdentical is the tentpole property: interrupt the
// manager at EVERY checkpoint boundary in turn (slice k in flight, k
// slices durable) and verify the resumed job finishes with a Result
// bit-identical to the uninterrupted run. Close() mid-slice is the
// simulated crash — it discards the in-flight slice and leaves the job
// durably running, exactly like a SIGKILL would (yapload -drill jobs
// covers the literal SIGKILL against a real daemon).
func TestCrashResumeBitIdentical(t *testing.T) {
	spec := testSpec(6, 2) // 3 slices: boundaries after 0, 2 and 4 samples
	want := stripElapsed(baseline(t, spec))

	for kill := 0; kill < 3; kill++ {
		t.Run(fmt.Sprintf("kill_after_%d_slices", kill), func(t *testing.T) {
			dir := t.TempDir()
			var slices atomic.Int32
			interrupted := make(chan struct{})
			run := func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
				if int(slices.Add(1)) == kill+1 {
					close(interrupted) // slice kill+1 in flight: crash now
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
			if done.State != StateDone {
				t.Fatalf("state %s (error %q), want done", done.State, done.Error)
			}
			if got := stripElapsed(*done.Result); !reflect.DeepEqual(got, want) {
				t.Errorf("resumed result differs from uninterrupted run:\n got %+v\nwant %+v", got, want)
			}
			if done.Resumes != 1 {
				t.Errorf("resumes %d, want 1", done.Resumes)
			}
			if st := m2.Stats(); st.Resumed != 1 {
				t.Errorf("resumed counter %d, want 1", st.Resumed)
			}
		})
	}
}

// TestRepeatedCrashEveryEpoch kills the manager once per checkpoint until
// the job finishes: no amount of stacked interruptions may perturb the
// final tallies.
func TestRepeatedCrashEveryEpoch(t *testing.T) {
	spec := testSpec(6, 2)
	want := stripElapsed(baseline(t, spec))
	dir := t.TempDir()

	var id string
	resumes := 0
	for epoch := 0; epoch < 10; epoch++ {
		var slices atomic.Int32
		interrupted := make(chan struct{})
		run := func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
			if slices.Add(1) == 2 { // one productive slice per epoch
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
		if epoch == 0 {
			j, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			id = j.ID
		}
		// Wait for this epoch to either finish the job or reach its crash.
		var final *Job
		for final == nil {
			select {
			case <-interrupted:
				final = &Job{} // crash reached; final stays non-terminal
			default:
				j, err := m.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if j.State.Terminal() {
					final = &j
				} else {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if final.State == StateDone {
			if got := stripElapsed(*final.Result); !reflect.DeepEqual(got, want) {
				t.Errorf("result after %d crash epochs differs:\n got %+v\nwant %+v", epoch, got, want)
			}
			if final.Resumes != resumes {
				t.Errorf("resumes %d, want %d", final.Resumes, resumes)
			}
			return
		}
		if final.State.Terminal() {
			t.Fatalf("unexpected terminal state %s (error %q)", final.State, final.Error)
		}
		resumes++
	}
	t.Fatal("job never finished within 10 crash epochs")
}

func TestRecoveryFailsJobWithUnusableSpec(t *testing.T) {
	dir := t.TempDir()
	st := persistedState{NextID: 2, Jobs: []persistedJob{{
		ID:    "job-000001",
		State: StatePending,
		Spec:  specWire{Mode: "w2w", Params: json.RawMessage(`{"no_such_field":1}`), Seed: 7, Samples: 4},
	}}}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(filepath.Join(dir, snapName), data); err != nil {
		t.Fatal(err)
	}

	m, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Get("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateFailed || j.Error == "" {
		t.Fatalf("unusable spec: state %s error %q, want failed with an error", j.State, j.Error)
	}
	// The manager must keep serving: a fresh submission still runs.
	spec := testSpec(2, 2)
	j2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitTerminal(t, m, j2.ID); done.State != StateDone {
		t.Errorf("fresh job after corrupt recovery: state %s (error %q)", done.State, done.Error)
	}
}

func TestCorruptWALTailRecovered(t *testing.T) {
	spec := testSpec(4, 2)
	want := stripElapsed(baseline(t, spec))
	dir := t.TempDir()

	blocked := make(chan struct{})
	run := func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
		close(blocked)
		<-ctx.Done()
		return sim.Result{}, ctx.Err()
	}
	m, err := Open(Config{Dir: dir, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the log: half a record of garbage lands after its intact tail.
	walPath := filepath.Join(dir, logName)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd, 'x'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if st := m2.Stats(); st.WALTruncated != 1 {
		t.Errorf("wal truncation events %d, want 1", st.WALTruncated)
	}
	done := waitTerminal(t, m2, j.ID)
	if done.State != StateDone {
		t.Fatalf("state %s (error %q), want done", done.State, done.Error)
	}
	if got := stripElapsed(*done.Result); !reflect.DeepEqual(got, want) {
		t.Errorf("result after torn tail differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	run := func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
		started <- mode
		select {
		case <-release:
			return sim.LocalRunner()(ctx, mode, opts)
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
	}
	m, err := Open(Config{Dir: t.TempDir(), Run: run, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	a, err := m.Submit(testSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	<-started // a is running and blocked; anything submitted now stays pending
	b, err := m.Submit(testSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the pending job: durable on the spot.
	cb, err := m.Cancel(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cb.State != StateCanceled {
		t.Errorf("pending cancel: state %s", cb.State)
	}

	// Cancel the running job: the runner notices and records it.
	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	ca := waitTerminal(t, m, a.ID)
	if ca.State != StateCanceled {
		t.Errorf("running cancel: state %s (error %q)", ca.State, ca.Error)
	}

	if _, err := m.Cancel(a.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("cancel of terminal job: %v, want ErrTerminal", err)
	}
	if _, err := m.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel of unknown job: %v, want ErrNotFound", err)
	}
	if st := m.Stats(); st.Canceled != 2 {
		t.Errorf("canceled counter %d, want 2", st.Canceled)
	}
}

// TestRunJobAfterStopLeavesJobPending: a runner whose select takes a queue
// token after its activation's context is done must not start the job. The
// job stays pending through Close and does not count a resume on reopen,
// while the job that was really running does.
func TestRunJobAfterStopLeavesJobPending(t *testing.T) {
	started := make(chan struct{}, 8)
	run := func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return sim.Result{}, ctx.Err()
	}
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Run: run, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Submit(testSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the one runner is busy with a; b stays queued
	b, err := m.Submit(testSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	stopped, cancel := context.WithCancel(context.Background())
	cancel()
	m.runJob(stopped, b.ID) // the token a stopping runner's select may still pick
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err := m.Get(b.ID); err != nil || j.State != StatePending {
		t.Fatalf("after Close: job %s state %v (err %v), want pending", b.ID, j.State, err)
	}

	m2, err := Open(Config{Dir: dir, Run: run, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for _, tc := range []struct {
		id      string
		resumes int
	}{{a.ID, 1}, {b.ID, 0}} {
		j, err := m2.Get(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Resumes != tc.resumes {
			t.Errorf("job %s: %d resumes after reopen, want %d", tc.id, j.Resumes, tc.resumes)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// A layout region named longer than the WAL's record bound puts the
	// submit record over it.
	oversized := testSpec(2, 2)
	oversized.Params.PadLayout = &layout.Layout{Regions: []layout.Region{{
		Name: strings.Repeat("x", MaxRecordBytes), X0: -5e-3, Y0: -5e-3, X1: 5e-3, Y1: 5e-3,
	}}}
	cases := []struct {
		name string
		spec Spec
	}{
		{"bad mode", Spec{Mode: "wtw", Params: core.Baseline(), Samples: 1}},
		{"zero samples", Spec{Mode: "w2w", Params: core.Baseline()}},
		{"negative workers", Spec{Mode: "w2w", Params: core.Baseline(), Samples: 1, Workers: -1}},
		{"invalid params", Spec{Mode: "w2w", Params: core.Params{}, Samples: 1}},
		{"submit record over the bound", oversized},
	}
	seq, term := m.ReplState()
	for _, tc := range cases {
		if _, err := m.Submit(tc.spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: %v, want ErrInvalidSpec", tc.name, err)
		}
	}
	if s, tm := m.ReplState(); s != seq || tm != term {
		t.Errorf("refused specs moved the log tip (%d, %d) -> (%d, %d)", seq, term, s, tm)
	}
}

func TestQueueFull(t *testing.T) {
	run := func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
		<-ctx.Done()
		return sim.Result{}, ctx.Err()
	}
	m, err := Open(Config{Dir: t.TempDir(), Run: run, Runners: 1, MaxQueued: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit(testSpec(2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec(2, 2)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("second submit: %v, want ErrQueueFull", err)
	}
}

func TestGCExpiresTerminalJobs(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Clock: clock, ResultTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(testSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, j.ID)

	m.gcPass() // fresh result: inside TTL, must survive
	if _, err := m.Get(j.ID); err != nil {
		t.Fatalf("result GC'd before TTL: %v", err)
	}

	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	m.gcPass()
	if _, err := m.Get(j.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("expired result still present: %v", err)
	}
	if st := m.Stats(); st.GCRemoved != 1 {
		t.Errorf("gc counter %d, want 1", st.GCRemoved)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// The removal is durable: a reopen must not resurrect the job.
	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Get(j.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("gc'd job resurrected after reopen: %v", err)
	}
}

// TestFailedBaseWriteHoldsAppends: when a compaction empties the log but
// cannot record its base in jobs.seq, no record lands until the base is
// durable, so records appended afterwards keep their sequence numbers
// across a restart.
func TestFailedBaseWriteHoldsAppends(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Clock: clock, ResultTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(testSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, j.ID)

	// A non-empty directory where jobs.seq goes fails its atomic rename.
	seqPath := filepath.Join(dir, baseSeqName)
	if err := os.Remove(seqPath); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(seqPath, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	m.gcPass() // drops the job, snapshots, empties the log, fails the base
	tip, tipTerm := m.ReplState()
	if _, err := m.Submit(testSpec(2, 2)); err == nil {
		t.Fatal("submit appended over an unrecorded log base")
	}
	if s, term := m.ReplState(); s != tip || term != tipTerm {
		t.Fatalf("refused submit moved the tip from (%d, %d) to (%d, %d)", tip, tipTerm, s, term)
	}

	if err := os.RemoveAll(seqPath); err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(testSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, j2.ID)
	tip, tipTerm = m.ReplState()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if s, term := m2.ReplState(); s != tip || term != tipTerm {
		t.Errorf("tip (%d, %d) before the restart, (%d, %d) after", tip, tipTerm, s, term)
	}
	got, err := m2.Get(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || !reflect.DeepEqual(stripElapsed(*got.Result), stripElapsed(*done.Result)) {
		t.Errorf("recovered job %+v, want the finished %+v", got, done)
	}
}

func TestIDsMonotonicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Submit(testSpec(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, a.ID)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	b, err := m2.Submit(testSpec(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "job-000001" || b.ID != "job-000002" {
		t.Errorf("ids %q then %q, want job-000001 then job-000002", a.ID, b.ID)
	}
}

func TestListSortedByID(t *testing.T) {
	run := func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
		<-ctx.Done()
		return sim.Result{}, ctx.Err()
	}
	m, err := Open(Config{Dir: t.TempDir(), Run: run, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(testSpec(2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("list length %d", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Errorf("list out of order: %q before %q", list[i-1].ID, list[i].ID)
		}
	}
}

func TestInjectedRunFaultFailsJob(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{Hook: faultinject.HookJobsRun, Mode: faultinject.ModeError, Probability: 1})
	m, err := Open(Config{Dir: t.TempDir(), Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(testSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, j.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "injected") {
		t.Errorf("state %s error %q, want failed with injected fault", done.State, done.Error)
	}
}

func TestInjectedRunPanicFailsJobNotManager(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{Hook: faultinject.HookJobsRun, Mode: faultinject.ModePanic, Probability: 1})
	m, err := Open(Config{Dir: t.TempDir(), Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(testSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, j.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "panic") {
		t.Errorf("state %s error %q, want failed via recovered panic", done.State, done.Error)
	}
	// The manager survived the panic: it still accepts and answers.
	j2, err := m.Submit(Spec{Mode: "w2w", Params: core.Baseline(), Seed: 9, Samples: 1, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The panic rule still fires for j2's first slice, so it fails too —
	// what matters is that the daemon answered, which Get proves.
	waitTerminal(t, m, j2.ID)
}

func TestInjectedWALFaultFailsSubmit(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{Hook: faultinject.HookJobsWAL, Mode: faultinject.ModeError, Probability: 1})
	m, err := Open(Config{Dir: t.TempDir(), Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit(testSpec(2, 2)); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("submit with failing wal: %v, want ErrInjected", err)
	}
	// A spec the store refuses is refused as invalid, not as the fault.
	if _, err := m.Submit(testSpec(0, 2)); !errors.Is(err, ErrInvalidSpec) || errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("zero-sample spec with failing wal: %v, want ErrInvalidSpec and not ErrInjected", err)
	}
	if st := m.Stats(); st.Submitted != 0 || st.WALRecords != 0 {
		t.Errorf("failed submit counted or appended: %+v", st)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Error("Open without Dir accepted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec(1, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// TestCancelAfterCloseReportsClosed: a closed standalone store is shut
// down, not a replica follower, so Cancel answers like Submit and
// Subscribe do.
func TestCancelAfterCloseReportsClosed(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel("job-000001"); !errors.Is(err, ErrClosed) {
		t.Errorf("cancel after close: %v, want ErrClosed", err)
	}
}
