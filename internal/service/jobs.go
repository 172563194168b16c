package service

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"yap/internal/jobs"
	"yap/internal/sim"
)

// This file is the HTTP face of internal/jobs: durable asynchronous
// Monte-Carlo runs. Submission answers 202 immediately; the job executes
// on the manager's runner pool, checkpointing its raw tallies so a daemon
// restart resumes it bit-identically. The endpoints are mounted only when
// Config.Jobs is set (cmd/yapserve wires it from -jobs-dir); without it
// they answer 404 "jobs_disabled" so clients can distinguish "daemon has
// no job store" from "no such job".

// handleJobSubmit is POST /v1/jobs.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	jm, ok := s.jobsManager(w)
	if !ok {
		return
	}
	var req JobSubmitRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	mode := strings.ToLower(req.Mode)
	if mode == "" {
		mode = "w2w"
	}
	if mode != "w2w" && mode != "d2w" {
		writeError(w, http.StatusBadRequest, "invalid_mode",
			fmt.Sprintf("unknown mode %q (want w2w or d2w; a sweep's points go to /v1/evaluate/batch)", req.Mode))
		return
	}
	if req.Wafers < 0 || req.Dies < 0 || req.Workers < 0 || req.CheckpointEvery < 0 {
		writeError(w, http.StatusBadRequest, "invalid_params",
			"wafers, dies, workers and checkpoint_every must be non-negative")
		return
	}
	if req.Epsilon < 0 || req.MinSamples < 0 {
		writeError(w, http.StatusBadRequest, "invalid_params",
			"epsilon and min_samples must be non-negative")
		return
	}
	p, _, err := resolve(*s.cfg.Defaults, req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_params", err.Error())
		return
	}
	job, err := jm.Submit(jobs.Spec{
		Mode:            mode,
		Params:          p,
		Seed:            req.Seed,
		Samples:         sim.Options{Wafers: req.Wafers, Dies: req.Dies}.Samples(mode),
		Workers:         req.Workers,
		CheckpointEvery: req.CheckpointEvery,
		Epsilon:         req.Epsilon,
		MinSamples:      req.MinSamples,
		Priority:        req.Priority,
	})
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.jobResponse(job))
}

// handleJobGet is GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	jm, ok := s.jobsManager(w)
	if !ok {
		return
	}
	id := r.PathValue("id")
	job, err := jm.Get(id)
	if err != nil {
		s.writeFailure(w, fmt.Errorf("job %q: %w", id, err))
		return
	}
	writeJSON(w, http.StatusOK, s.jobResponse(job))
}

// handleJobList is GET /v1/jobs.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jm, ok := s.jobsManager(w)
	if !ok {
		return
	}
	list := jm.List()
	resp := JobListResponse{Jobs: make([]JobResponse, len(list))}
	for i, job := range list {
		resp.Jobs[i] = s.jobResponse(job)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobCancel is DELETE /v1/jobs/{id}. Canceling a pending job is
// immediate and durable; a running job stops at its next sample boundary
// (poll until the state flips). Canceling a finished job is a conflict.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	jm, ok := s.jobsManager(w)
	if !ok {
		return
	}
	id := r.PathValue("id")
	job, err := jm.Cancel(id)
	if err != nil {
		s.writeFailure(w, fmt.Errorf("job %q: %w", id, err))
		return
	}
	writeJSON(w, http.StatusOK, s.jobResponse(job))
}

// jobsManager fetches the configured manager, answering 404
// "jobs_disabled" when the daemon runs without a job store.
func (s *Server) jobsManager(w http.ResponseWriter) (*jobs.Manager, bool) {
	if s.cfg.Jobs == nil {
		writeError(w, http.StatusNotFound, "jobs_disabled",
			"this daemon has no durable job store (start yapserve with -jobs-dir)")
		return nil, false
	}
	return s.cfg.Jobs, true
}

// jobResponse maps a jobs.Job onto the wire shape.
func (s *Server) jobResponse(j jobs.Job) JobResponse {
	resp := JobResponse{
		ID:              j.ID,
		State:           string(j.State),
		Mode:            j.Spec.Mode,
		ParamsHash:      j.ParamsHash,
		Seed:            j.Spec.Seed,
		Samples:         j.Spec.Samples,
		Completed:       j.Completed,
		CheckpointEvery: j.Spec.CheckpointEvery,
		Resumes:         j.Resumes,
		Priority:        j.Spec.Priority,
		Error:           j.Error,
	}
	if !j.SubmittedAt.IsZero() {
		resp.SubmittedAt = j.SubmittedAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.FinishedAt.IsZero() {
		resp.FinishedAt = j.FinishedAt.UTC().Format(time.RFC3339Nano)
	}
	if j.Result != nil {
		r := simulateResponseFrom(*j.Result, j.ParamsHash, j.Spec.Seed, s.simWorkers(j.Spec.Workers))
		resp.Result = &r
	}
	return resp
}
