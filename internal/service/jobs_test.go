package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/jobs"
	"yap/internal/sim"
)

// newJobsServer builds a Server with a throwaway durable job store.
func newJobsServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	jm, err := jobs.Open(jobs.Config{Dir: t.TempDir(), SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jm.Close() })
	cfg.Jobs = jm
	return New(cfg)
}

func del(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, path, nil))
	return w
}

// pollJob polls GET /v1/jobs/{id} until the job is terminal.
func pollJob(t *testing.T, s *Server, id string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		w := get(t, s, "/v1/jobs/"+id)
		if w.Code != http.StatusOK {
			t.Fatalf("GET job: status %d: %s", w.Code, w.Body)
		}
		j := decodeBody[JobResponse](t, w)
		switch j.State {
		case "done", "failed", "canceled":
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobResponse{}
}

func TestJobsDisabledWithoutManager(t *testing.T) {
	s := New(Config{})
	for _, w := range []*httptest.ResponseRecorder{
		post(t, s, "/v1/jobs", `{"wafers": 2}`),
		get(t, s, "/v1/jobs"),
		get(t, s, "/v1/jobs/job-000001"),
		del(t, s, "/v1/jobs/job-000001"),
	} {
		if w.Code != http.StatusNotFound || errorCode(t, w) != "jobs_disabled" {
			t.Errorf("without manager: status %d code %q, want 404 jobs_disabled", w.Code, errorCode(t, w))
		}
	}
}

func TestJobSubmitPollMatchesSynchronousSimulate(t *testing.T) {
	s := newJobsServer(t, Config{})
	w := post(t, s, "/v1/jobs", `{"mode": "w2w", "seed": 11, "wafers": 4, "workers": 2, "checkpoint_every": 2, "priority": 3}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", w.Code, w.Body)
	}
	j := decodeBody[JobResponse](t, w)
	if j.ID == "" || j.State != "pending" || j.Samples != 4 || j.Priority != 3 {
		t.Fatalf("submit response %+v", j)
	}
	if j.SubmittedAt == "" {
		t.Error("submit response missing submitted_at")
	}

	done := pollJob(t, s, j.ID)
	if done.State != "done" {
		t.Fatalf("state %s (error %q), want done", done.State, done.Error)
	}
	if done.Result == nil {
		t.Fatal("done job has no result")
	}
	if done.Completed != 4 || done.FinishedAt == "" || done.Priority != 3 {
		t.Errorf("done job: completed %d finished_at %q priority %d", done.Completed, done.FinishedAt, done.Priority)
	}

	// The async result must match the synchronous endpoint bit-for-bit
	// (elapsed excluded — it is telemetry).
	ws := post(t, s, "/v1/simulate", `{"mode": "w2w", "seed": 11, "wafers": 4, "workers": 2}`)
	if ws.Code != http.StatusOK {
		t.Fatalf("simulate status %d: %s", ws.Code, ws.Body)
	}
	sync := decodeBody[SimulateResponse](t, ws)
	async := *done.Result
	async.ElapsedMs, sync.ElapsedMs = 0, 0
	// The job result reports completed/requested accounting; the sync
	// response omits it for full runs.
	async.Completed, async.Requested = 0, 0
	sync.Completed, sync.Requested = 0, 0
	if !reflect.DeepEqual(async, sync) {
		t.Errorf("async result != sync result:\n async %+v\n  sync %+v", async, sync)
	}
}

func TestJobListAndNotFound(t *testing.T) {
	s := newJobsServer(t, Config{})
	ids := make([]string, 2)
	for i := range ids {
		w := post(t, s, "/v1/jobs", fmt.Sprintf(`{"seed": %d, "wafers": 2, "checkpoint_every": 2}`, i))
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit status %d: %s", w.Code, w.Body)
		}
		ids[i] = decodeBody[JobResponse](t, w).ID
	}
	w := get(t, s, "/v1/jobs")
	if w.Code != http.StatusOK {
		t.Fatalf("list status %d", w.Code)
	}
	list := decodeBody[JobListResponse](t, w)
	if len(list.Jobs) != 2 || list.Jobs[0].ID != ids[0] || list.Jobs[1].ID != ids[1] {
		t.Errorf("list %+v, want ids %v in order", list.Jobs, ids)
	}

	if w := get(t, s, "/v1/jobs/job-424242"); w.Code != http.StatusNotFound || errorCode(t, w) != "not_found" {
		t.Errorf("unknown job: status %d code %q", w.Code, errorCode(t, w))
	}
}

func TestJobCancelLifecycle(t *testing.T) {
	s := newJobsServer(t, Config{})
	// A big job at a tiny checkpoint will still be live when we cancel.
	w := post(t, s, "/v1/jobs", `{"seed": 3, "wafers": 500, "checkpoint_every": 1}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", w.Code, w.Body)
	}
	id := decodeBody[JobResponse](t, w).ID
	if wd := del(t, s, "/v1/jobs/"+id); wd.Code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", wd.Code, wd.Body)
	}
	j := pollJob(t, s, id)
	if j.State != "canceled" {
		t.Fatalf("state %s, want canceled", j.State)
	}
	if wd := del(t, s, "/v1/jobs/"+id); wd.Code != http.StatusConflict || errorCode(t, wd) != "job_terminal" {
		t.Errorf("cancel of terminal job: status %d code %q", wd.Code, errorCode(t, wd))
	}
}

func TestJobSubmitValidation(t *testing.T) {
	s := newJobsServer(t, Config{MaxBodyBytes: 2 * jobs.MaxRecordBytes})
	cases := []struct {
		name, body, code string
	}{
		{"bad mode", `{"mode": "wtw"}`, "invalid_mode"},
		{"bad json", `{`, "invalid_json"},
		{"negative wafers", `{"wafers": -1}`, "invalid_params"},
		{"unknown param", `{"params": {"nope": 1}}`, "invalid_params"},
		// The submit record of a region named longer than the WAL's record
		// bound exceeds that bound.
		{"oversized spec", `{"params": {"layout": {"regions": [{"name": "` + strings.Repeat("x", jobs.MaxRecordBytes) +
			`", "x0": -5e-3, "y0": -5e-3, "x1": 5e-3, "y1": 5e-3}]}}}`, "invalid_params"},
	}
	for _, tc := range cases {
		w := post(t, s, "/v1/jobs", tc.body)
		if w.Code != http.StatusBadRequest || errorCode(t, w) != tc.code {
			t.Errorf("%s: status %d code %q, want 400 %s", tc.name, w.Code, errorCode(t, w), tc.code)
		}
	}
}

// TestFaultJobSubmitWALAnswersInternal: a submit the store fails to log
// (an injected WAL append fault) is the server's failure and answers 500
// internal, while a request the handler refuses still answers 400.
func TestFaultJobSubmitWALAnswersInternal(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Hook: faultinject.HookJobsWAL, Mode: faultinject.ModeError, Probability: 1,
	})
	jm, err := jobs.Open(jobs.Config{Dir: t.TempDir(), SimWorkers: 2, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jm.Close() })
	s := New(Config{Jobs: jm})
	if w := post(t, s, "/v1/jobs", `{"wafers": 2}`); w.Code != http.StatusInternalServerError || errorCode(t, w) != "internal" {
		t.Errorf("submit under a WAL fault: status %d code %q, want 500 internal", w.Code, errorCode(t, w))
	}
	if w := post(t, s, "/v1/jobs", `{"wafers": -1}`); w.Code != http.StatusBadRequest || errorCode(t, w) != "invalid_params" {
		t.Errorf("negative wafers: status %d code %q, want 400 invalid_params", w.Code, errorCode(t, w))
	}
}

func TestJobQueueFullSheds(t *testing.T) {
	jm, err := jobs.Open(jobs.Config{
		Dir:       t.TempDir(),
		MaxQueued: 1,
		Runners:   1,
		// A run that parks until canceled keeps the single slot busy.
		Run: func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jm.Close() })
	s := New(Config{Jobs: jm})
	if w := post(t, s, "/v1/jobs", `{"wafers": 2}`); w.Code != http.StatusAccepted {
		t.Fatalf("first submit status %d: %s", w.Code, w.Body)
	}
	w := post(t, s, "/v1/jobs", `{"wafers": 2}`)
	if w.Code != http.StatusServiceUnavailable || errorCode(t, w) != "overloaded" {
		t.Errorf("queue-full submit: status %d code %q, want 503 overloaded", w.Code, errorCode(t, w))
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("queue-full response missing Retry-After")
	}
}

// TestJobMutationsOnClosedStoreShed: once the store is closed, submit,
// cancel and stream each answer 503 "overloaded" with the back-off hint.
func TestJobMutationsOnClosedStoreShed(t *testing.T) {
	jm, err := jobs.Open(jobs.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Jobs: jm})
	for name, w := range map[string]*httptest.ResponseRecorder{
		"submit": post(t, s, "/v1/jobs", `{"wafers": 2}`),
		"cancel": del(t, s, "/v1/jobs/job-000001"),
		"stream": get(t, s, "/v1/jobs/job-000001/stream"),
	} {
		if w.Code != http.StatusServiceUnavailable || errorCode(t, w) != "overloaded" || w.Header().Get("Retry-After") == "" {
			t.Errorf("%s on a closed store: status %d code %q Retry-After %q, want 503 overloaded with a hint",
				name, w.Code, errorCode(t, w), w.Header().Get("Retry-After"))
		}
	}
}

func TestMetricsExposeJobsAndBuildInfo(t *testing.T) {
	s := newJobsServer(t, Config{})
	w := post(t, s, "/v1/jobs", `{"seed": 5, "wafers": 2, "checkpoint_every": 1}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", w.Code, w.Body)
	}
	pollJob(t, s, decodeBody[JobResponse](t, w).ID)

	body := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"yapserve_jobs_submitted_total 1",
		"yapserve_jobs_done_total 1",
		"yapserve_jobs_checkpoints_total 2",
		"yapserve_jobs_pending 0",
		"yapserve_jobs_running 0",
		"yapserve_jobs_terminal_cached 1",
		"yapserve_build_info{version=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestMetricsOmitJobsWithoutManagerButKeepBuildInfo(t *testing.T) {
	body := get(t, New(Config{}), "/metrics").Body.String()
	if strings.Contains(body, "yapserve_jobs_") {
		t.Error("jobs metrics exposed without a manager")
	}
	if !strings.Contains(body, "yapserve_build_info{version=") {
		t.Error("metrics missing yapserve_build_info")
	}
}

func TestBuildInfo(t *testing.T) {
	version, goVersion := BuildInfo()
	if version == "" {
		t.Error("empty version")
	}
	if !strings.HasPrefix(goVersion, "go") {
		t.Errorf("goversion %q does not look like a Go toolchain version", goVersion)
	}
}

func TestJobResumeAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	defaults := core.Baseline()

	// Uninterrupted reference.
	want, err := sim.RunW2WContext(context.Background(), sim.Options{Params: defaults, Seed: 21, Wafers: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// First daemon incarnation: a run func that parks on the third slice,
	// then "crash" it by closing the manager mid-slice.
	blocked := make(chan struct{})
	slices := 0
	jm, err := jobs.Open(jobs.Config{Dir: dir, Run: func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
		slices++
		if slices == 3 {
			close(blocked)
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		}
		return sim.RunW2WContext(ctx, opts)
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Jobs: jm})
	w := post(t, s, "/v1/jobs", `{"seed": 21, "wafers": 6, "workers": 2, "checkpoint_every": 2}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", w.Code, w.Body)
	}
	id := decodeBody[JobResponse](t, w).ID
	<-blocked
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation over the same directory resumes and finishes.
	jm2, err := jobs.Open(jobs.Config{Dir: dir, SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jm2.Close() })
	s2 := New(Config{Jobs: jm2})
	done := pollJob(t, s2, id)
	if done.State != "done" {
		t.Fatalf("state %s (error %q), want done", done.State, done.Error)
	}
	if done.Resumes != 1 {
		t.Errorf("resumes %d, want 1", done.Resumes)
	}
	if done.Result.Survived != want.Counts.Survived || done.Result.Dies != want.Counts.Dies ||
		done.Result.Yield != want.Yield || done.Result.YieldLo != want.YieldLo {
		t.Errorf("resumed result %+v != reference %+v", done.Result, want)
	}
	if !strings.Contains(get(t, s2, "/metrics").Body.String(), "yapserve_jobs_resumed_total 1") {
		t.Error("metrics missing yapserve_jobs_resumed_total 1")
	}
}
