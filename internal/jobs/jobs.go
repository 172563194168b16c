package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"yap/internal/converge"
	"yap/internal/core"
	"yap/internal/sim"
)

// State is a job's lifecycle position. Transitions only move forward:
// pending → running → one of the terminal states (done, failed,
// canceled); a resumed job re-enters running from running (the crash
// never demoted it).
type State string

const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// rank orders states for idempotent replay: applying an older record over
// newer state must never regress it.
func (s State) rank() int {
	switch s {
	case StatePending:
		return 0
	case StateRunning:
		return 1
	case StateDone, StateFailed, StateCanceled:
		return 2
	default:
		return -1
	}
}

// Spec is the immutable description of one job — everything needed to
// (re)execute it deterministically.
type Spec struct {
	// Mode is "w2w" or "d2w".
	Mode string
	// Params is the fully resolved parameter set (defaults already merged
	// by the submitter, exactly like the dist shard protocol, so a config
	// change between crash and resume cannot change the physics).
	Params core.Params
	// Seed roots every sample's (Seed, global index) stream.
	Seed uint64
	// Samples is the total sample count: bonded wafers for w2w, bonded
	// dies for d2w.
	Samples int
	// Workers bounds the in-process parallelism of each executed slice;
	// 0 uses the manager default.
	Workers int
	// CheckpointEvery is the slice size in samples between durable
	// checkpoints; 0 asks for the manager default, which Submit resolves
	// into the persisted spec so the checkpoint ladder — and with it the
	// early-stop index — cannot shift if the daemon's default changes
	// across a crash/restart. A crash loses at most one slice of work.
	CheckpointEvery int
	// Epsilon optionally arms the sequential early-stop rule
	// (internal/converge): the job finishes as soon as the Wilson 95%
	// half-width of its running yield estimate falls to Epsilon, evaluated
	// at every durable checkpoint. Samples becomes a hard cap. Because the
	// checkpoint boundaries are deterministic and checkpoint tallies are
	// bit-identical across crash/resume, the stop index is too — a resumed
	// job stops at exactly the sample the uninterrupted job would have.
	// 0 (the default) disables early stop.
	Epsilon float64
	// MinSamples is the early-stop floor; 0 uses the converge default.
	// Ignored when Epsilon is 0.
	MinSamples int
	// Priority orders the run queue: higher runs first. Equal effective
	// priorities fall back to submission order (lowest ID). Waiting jobs
	// age upward one level per PriorityAging interval, so a low-priority
	// job can be delayed but never starved.
	Priority int
}

// Job is a point-in-time copy of one job's state as the Manager exposes
// it; mutating it does not affect the Manager.
type Job struct {
	// ID is the durable identifier ("job-000001"); IDs are allocated from
	// a persisted counter so they never collide across restarts.
	ID string
	// Spec is the immutable submission.
	Spec Spec
	// ParamsHash is Spec.Params' canonical digest, for correlation.
	ParamsHash string
	// State is the lifecycle position.
	State State
	// Completed is the durably checkpointed sample index: samples
	// [0, Completed) are folded into Counts. The job resumes here after a
	// crash.
	Completed int
	// Counts holds the raw integer tallies over the Completed samples.
	Counts sim.Counts
	// Resumes counts recoveries: how many times this job was re-enqueued
	// from its last durable checkpoint after a restart.
	Resumes int
	// Error is the failure text for StateFailed.
	Error string
	// Result is the final merged result; set only in StateDone. After a
	// restart it is reconstructed from the terminal tallies, so Elapsed —
	// telemetry, outside the bit-identical contract — may be zero.
	Result *sim.Result
	// SubmittedAt and FinishedAt are telemetry timestamps from the
	// Manager's injected clock; FinishedAt is zero until terminal.
	SubmittedAt time.Time
	FinishedAt  time.Time
}

// Event is one element of a job's convergence stream: a point-in-time
// snapshot of the job plus the running yield estimate over its durable
// tallies. Events are cumulative — each one supersedes all earlier ones —
// so a subscriber that misses events (slow consumer, reconnect) loses no
// information once it sees a newer one. Seq increases by one per published
// event of a job within one Manager incarnation; it exists so resuming
// subscribers can tell "nothing new" from "snapshot needed", not as a
// durable identifier.
type Event struct {
	// Seq is the per-job publish ordinal (1-based).
	Seq int
	// Job is the job snapshot at publish time.
	Job Job
	// Estimate is the running yield estimate over Job.Counts.
	Estimate converge.Estimate
}

// resultMode maps a spec mode to the sim.Result.Mode convention.
func resultMode(mode string) string {
	if mode == "d2w" {
		return "D2W"
	}
	return "W2W"
}

// baseResult rebuilds the accumulated partial Result a job's durable
// tallies represent, ready to be folded with further slices via
// sim.Merge. Requested == Completed: the base covers exactly the samples
// it contains; the remaining slices bring their own accounting.
func baseResult(mode string, c sim.Counts, completed int) sim.Result {
	return sim.Result{Mode: resultMode(mode), Counts: c, Completed: completed, Requested: completed}
}

// finishedResult reconstructs a terminal Result (yields, Wilson CI) from
// durable tallies by folding the base through sim.Merge — the exact
// arithmetic every other result in the repo uses.
func finishedResult(mode string, c sim.Counts, completed int) (sim.Result, error) {
	return sim.Merge(baseResult(mode, c, completed))
}

// WAL record and snapshot wire shapes. Records are JSON payloads inside
// the CRC-framed log; application (apply in manager.go) is idempotent and
// monotone so a record replayed over a snapshot that already covers it is
// a no-op.

const (
	recSubmit     = "submit"
	recState      = "state"
	recCheckpoint = "checkpoint"
	recGC         = "gc"
	// recNoop carries no state change. A freshly promoted leader appends
	// one so its reign has a record of its own term immediately: commit
	// advancement is gated on replicating a current-term record (the Raft
	// prior-term-commit rule), and followers can only detect a conflicting
	// suffix against records that name their term.
	recNoop = "noop"
)

// specWire is Spec as persisted: params travel as raw JSON so the WAL is
// inspectable and the decode path is the same checked one the service
// uses.
type specWire struct {
	Mode            string          `json:"mode"`
	Params          json.RawMessage `json:"params,omitempty"`
	Seed            uint64          `json:"seed"`
	Samples         int             `json:"samples"`
	Workers         int             `json:"workers,omitempty"`
	CheckpointEvery int             `json:"checkpoint_every,omitempty"`
	Epsilon         float64         `json:"epsilon,omitempty"`
	MinSamples      int             `json:"min_samples,omitempty"`
	Priority        int             `json:"priority,omitempty"`
}

func specToWire(s Spec) (specWire, error) {
	raw, err := json.Marshal(s.Params)
	if err != nil {
		return specWire{}, fmt.Errorf("jobs: encoding params: %w", err)
	}
	return specWire{
		Mode:            s.Mode,
		Params:          raw,
		Seed:            s.Seed,
		Samples:         s.Samples,
		Workers:         s.Workers,
		CheckpointEvery: s.CheckpointEvery,
		Epsilon:         s.Epsilon,
		MinSamples:      s.MinSamples,
		Priority:        s.Priority,
	}, nil
}

// toSpec decodes the persisted spec, re-validating the parameter set. A
// spec whose params no longer decode (disk corruption), or a sweep job
// written by an older build, fails here; the manager fails the job
// instead of refusing to start.
func (w specWire) toSpec() (Spec, error) {
	if w.Mode == "sweep" {
		return Spec{}, errors.New("jobs: sweep jobs are retired; evaluate the points with POST /v1/evaluate/batch")
	}
	p, err := core.DecodeParams(core.Params{}, bytes.NewReader(w.Params))
	if err != nil {
		return Spec{}, fmt.Errorf("jobs: persisted params for mode %q: %w", w.Mode, err)
	}
	return Spec{
		Mode:            w.Mode,
		Params:          p,
		Seed:            w.Seed,
		Samples:         w.Samples,
		Workers:         w.Workers,
		CheckpointEvery: w.CheckpointEvery,
		Epsilon:         w.Epsilon,
		MinSamples:      w.MinSamples,
		Priority:        w.Priority,
	}, nil
}

// walRecord is one log entry. Exactly the fields for its Type are set.
type walRecord struct {
	Type string `json:"t"`
	ID   string `json:"id"`
	// RTerm is the election term the record was appended under (0 for
	// standalone stores). The state machine ignores it; the replication
	// layer uses it to detect a follower log whose suffix conflicts with a
	// new leader's — two different records can share a sequence number only
	// across terms, never within one.
	RTerm uint64 `json:"rterm,omitempty"`
	// recSubmit
	Spec *specWire `json:"spec,omitempty"`
	// recState
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// recCheckpoint (cumulative, so folding = taking the latest) and the
	// terminal tallies carried by a done-state record.
	Completed int         `json:"completed,omitempty"`
	Counts    *sim.Counts `json:"counts,omitempty"`
	// Resumes rides on running-state records appended at recovery.
	Resumes int `json:"resumes,omitempty"`
	// At is a telemetry timestamp (unix nanoseconds from the injected
	// clock); never read back into control flow.
	At int64 `json:"at,omitempty"`
}

// persistedJob is one job inside the snapshot.
type persistedJob struct {
	ID          string     `json:"id"`
	Spec        specWire   `json:"spec"`
	State       State      `json:"state"`
	Completed   int        `json:"completed"`
	Counts      sim.Counts `json:"counts"`
	Resumes     int        `json:"resumes,omitempty"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt int64      `json:"submitted_at,omitempty"`
	FinishedAt  int64      `json:"finished_at,omitempty"`
}

// persistedState is the snapshot file: the full fold of every record the
// WAL held when it was written, plus the ID allocator position.
type persistedState struct {
	// NextID is the next job sequence number to allocate.
	NextID uint64 `json:"next_id"`
	// ReplicaSeq is the replication sequence number of the last WAL record
	// folded into this snapshot. After compaction (which empties the WAL)
	// the live sequence is ReplicaSeq + the number of records replayed, so
	// the counter survives restarts without per-record fsync cost beyond
	// the appends themselves.
	ReplicaSeq uint64 `json:"replica_seq,omitempty"`
	// ReplicaTerm is the RTerm of the record at ReplicaSeq, persisted so a
	// restarted replica still knows the term of its log tip (and of its
	// compaction horizon) when the records themselves have been folded
	// away.
	ReplicaTerm uint64 `json:"replica_term,omitempty"`
	// Jobs is sorted by ID for a deterministic file.
	Jobs []persistedJob `json:"jobs"`
}
