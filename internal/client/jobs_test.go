package client

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"testing"
	"time"

	"yap/internal/faultinject"
	"yap/internal/jobs"
	"yap/internal/service"
)

// newJobsTestClient wires a real manager + service behind httptest, the
// full stack a production client talks to.
func newJobsTestClient(t *testing.T) *Client {
	t.Helper()
	jm, err := jobs.Open(jobs.Config{Dir: t.TempDir(), SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jm.Close() })
	c, _ := newTestClient(t, service.New(service.Config{Jobs: jm}), nil)
	return c
}

func TestSubmitWaitJobMatchesSimulate(t *testing.T) {
	c := newJobsTestClient(t)
	ctx := context.Background()
	sub, err := c.SubmitJob(ctx, service.JobSubmitRequest{Seed: 9, Wafers: 4, Workers: 2, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.State != "pending" {
		t.Fatalf("submit response %+v", sub)
	}
	job, err := c.WaitJob(ctx, sub.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != "done" || job.Result == nil {
		t.Fatalf("job %+v, want done with result", job)
	}

	sync, err := c.Simulate(ctx, service.SimulateRequest{Seed: 9, Wafers: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	async := *job.Result
	async.ElapsedMs, sync.ElapsedMs = 0, 0
	async.Completed, async.Requested = 0, 0
	sync.Completed, sync.Requested = 0, 0
	if !reflect.DeepEqual(async, *sync) {
		t.Errorf("async result != sync result:\n async %+v\n  sync %+v", async, *sync)
	}
}

func TestListAndCancelJob(t *testing.T) {
	// Pace every job slice with an injected delay so the job cannot
	// finish before the cancel request lands, however loaded the
	// machine running the suite is.
	inj, err := faultinject.ParseSpec("seed=1," + faultinject.HookJobsRun + "=1:delay:20ms")
	if err != nil {
		t.Fatal(err)
	}
	jm, err := jobs.Open(jobs.Config{Dir: t.TempDir(), SimWorkers: 2, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jm.Close() })
	c, _ := newTestClient(t, service.New(service.Config{Jobs: jm}), nil)
	ctx := context.Background()
	sub, err := c.SubmitJob(ctx, service.JobSubmitRequest{Seed: 2, Wafers: 500, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	list, err := c.ListJobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Fatalf("list %+v, want just %s", list.Jobs, sub.ID)
	}
	if _, err := c.CancelJob(ctx, sub.ID); err != nil {
		t.Fatal(err)
	}
	job, err := c.WaitJob(ctx, sub.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != "canceled" {
		t.Fatalf("state %s, want canceled", job.State)
	}
	// WaitJob reports terminal states without turning them into errors;
	// a second cancel is the caller's bug and surfaces as job_terminal.
	_, err = c.CancelJob(ctx, sub.ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Code != "job_terminal" {
		t.Errorf("second cancel: %v, want 409 job_terminal", err)
	}
}

func TestGetJobNotFound(t *testing.T) {
	c := newJobsTestClient(t)
	_, err := c.GetJob(context.Background(), "job-999999")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "not_found" {
		t.Errorf("got %v, want 404 not_found", err)
	}
}

func TestJobsDisabledSurfacesCode(t *testing.T) {
	c, _ := newTestClient(t, service.New(service.Config{}), nil)
	_, err := c.SubmitJob(context.Background(), service.JobSubmitRequest{Wafers: 2})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "jobs_disabled" {
		t.Errorf("got %v, want jobs_disabled", err)
	}
	if apiErr.Temporary() {
		t.Error("jobs_disabled classified as temporary; retrying cannot help")
	}
}

// TestFaultJobSubmitWALIsTemporary: a submit the store fails to log
// answers 500, which the client retries and reports as temporary.
func TestFaultJobSubmitWALIsTemporary(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Hook: faultinject.HookJobsWAL, Mode: faultinject.ModeError, Probability: 1,
	})
	jm, err := jobs.Open(jobs.Config{Dir: t.TempDir(), SimWorkers: 2, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jm.Close() })
	c, _ := newTestClient(t, service.New(service.Config{Jobs: jm}), nil)
	_, err = c.SubmitJob(context.Background(), service.JobSubmitRequest{Wafers: 2})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError || !apiErr.Temporary() {
		t.Errorf("got %v, want a temporary 500", err)
	}
	if !errors.Is(err, ErrAttemptsExhausted) {
		t.Errorf("got %v, want the client to have retried until its attempts ran out", err)
	}
}

func TestWaitJobHonorsContext(t *testing.T) {
	c := newJobsTestClient(t)
	sub, err := c.SubmitJob(context.Background(), service.JobSubmitRequest{Seed: 7, Wafers: 2000, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := c.WaitJob(ctx, sub.ID, time.Hour); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("got %v, want deadline exceeded", err)
	}
	if _, err := c.CancelJob(context.Background(), sub.ID); err != nil {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Code != "job_terminal" {
			t.Fatal(err)
		}
	}
}
