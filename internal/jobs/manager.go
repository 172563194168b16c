package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"yap/internal/converge"
	"yap/internal/faultinject"
	"yap/internal/sim"
)

// Replicator observes the durable record stream for replication.
// Implemented by internal/replica.Node; the Manager stays ignorant of
// transports and election.
type Replicator interface {
	// Ship hands over one just-fsync'd record with its replication
	// sequence number. Called under the Manager's lock: implementations
	// must only enqueue (the replica node appends to its backlog ring and
	// wakes its peer senders) — never block on the network.
	Ship(seq uint64, payload []byte)
	// WaitQuorum blocks until records up to seq are acknowledged by a
	// quorum of the replica set, or fails (timeout, leadership lost).
	// Called without the Manager's lock.
	WaitQuorum(ctx context.Context, seq uint64) error
	// LeaderTerm reports the election term of the current reign — the
	// term every record appended by this leader is stamped with, stable
	// for the whole reign even if the node has since observed a higher
	// term. Called under the Manager's lock: implementations must only
	// read, never block or call back into the Manager.
	LeaderTerm() uint64
}

// Config configures a Manager. The zero value of every field is usable;
// only Dir is required.
type Config struct {
	// Dir is the durability directory (jobs.log, jobs.snap and jobs.seq
	// live here); created if absent. Two managers must not share a
	// directory.
	Dir string
	// Run executes job slices; nil runs the in-process simulator
	// (sim.LocalRunner). yapserve substitutes the dist coordinator when a
	// worker fleet is registered.
	Run sim.SliceRunner
	// Runners bounds concurrently executing jobs (default 2).
	Runners int
	// CheckpointEvery is the default slice size in samples between durable
	// checkpoints for jobs that don't set their own (default 200). Submit
	// resolves it into each job's persisted spec, so changing it only
	// affects jobs submitted afterwards.
	CheckpointEvery int
	// ResultTTL is how long terminal jobs stay queryable after finishing
	// before the GC pass drops them (default 1h; negative disables GC).
	ResultTTL time.Duration
	// MaxQueued bounds jobs admitted but not yet terminal (default 64).
	// Submit beyond it fails with ErrQueueFull. Jobs recovered from disk
	// are always re-admitted, even past the bound — durability outranks
	// admission control.
	MaxQueued int
	// SimWorkers is the default per-slice parallelism for jobs that don't
	// set Spec.Workers (0 = GOMAXPROCS).
	SimWorkers int
	// Faults optionally arms deterministic fault injection at the
	// HookJobsWAL and HookJobsRun hooks (and inside the simulator via the
	// sim hooks, since the injector is passed down).
	Faults *faultinject.Injector
	// Logger receives recovery and failure notes; nil discards.
	Logger *log.Logger
	// Clock supplies telemetry timestamps (SubmittedAt/FinishedAt and TTL
	// expiry); nil uses the wall clock. Timestamps never feed back into
	// simulation results, so an injected clock exists for tests, not for
	// determinism of the physics.
	Clock func() time.Time
	// PriorityAging is how long a queued job waits to gain one effective
	// priority level (default 30s). Aging is unbounded, so any job
	// eventually outranks a steady stream of higher-priority submissions —
	// delayed, never starved.
	PriorityAging time.Duration
	// Follower opens the store in replica-follower mode: recovery runs but
	// no runners start and Submit/Cancel refuse with ErrNotLeader; records
	// arrive via ApplyReplicated until Promote activates the store.
	Follower bool
	// Replicator, when set, observes every durable append for shipping to
	// replica peers; Submit additionally blocks on quorum acknowledgement
	// before reporting a job accepted.
	Replicator Replicator
}

func (c Config) runners() int {
	if c.Runners > 0 {
		return c.Runners
	}
	return 2
}

func (c Config) checkpointEvery() int {
	if c.CheckpointEvery > 0 {
		return c.CheckpointEvery
	}
	return 200
}

func (c Config) resultTTL() time.Duration {
	if c.ResultTTL != 0 {
		return c.ResultTTL
	}
	return time.Hour
}

// gcInterval is the GC pass cadence.
const gcInterval = time.Minute

func (c Config) maxQueued() int {
	if c.MaxQueued > 0 {
		return c.MaxQueued
	}
	return 64
}

func (c Config) priorityAging() time.Duration {
	if c.PriorityAging > 0 {
		return c.PriorityAging
	}
	return 30 * time.Second
}

// Sentinel errors for the Manager API.
var (
	// ErrNotFound reports an unknown (or already garbage-collected) job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrQueueFull reports that admission is at MaxQueued live jobs.
	ErrQueueFull = errors.New("jobs: job queue full")
	// ErrClosed reports an operation on a closed Manager.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrTerminal reports a cancel of a job that already finished.
	ErrTerminal = errors.New("jobs: job already terminal")
	// ErrNotLeader reports a mutation on a store in follower mode; the
	// service maps it to a 409 carrying the leader's URL.
	ErrNotLeader = errors.New("jobs: store is a replica follower, not the leader")
	// ErrReplicaGap reports an ApplyReplicated whose sequence number is not
	// the follower's next; the shipper re-synchronizes from the sequence
	// the follower reports alongside.
	ErrReplicaGap = errors.New("jobs: replicated record out of sequence")
	// ErrReplicaConflict reports an ApplyReplicated whose PrevTerm does not
	// match the term of this store's record at seq-1: the local log holds a
	// suffix appended under a different (deposed) leader. The replication
	// layer truncates the conflicting suffix and retries.
	ErrReplicaConflict = errors.New("jobs: replicated record conflicts with local log")
	// ErrNeedsResync reports a truncation request below the WAL's compaction
	// horizon: the conflicting records were already folded into the
	// snapshot, so record-by-record repair is impossible and the replica
	// must be rebuilt from a fresh copy of the leader's state.
	ErrNeedsResync = errors.New("jobs: conflict predates the compaction horizon; full resync required")
	// ErrInvalidSpec marks a Submit refused for its spec: it failed
	// validation, could not be encoded, or its submit record exceeds the
	// WAL's record bound. Resubmitting it cannot succeed; every other
	// Submit error is the store's own failure.
	ErrInvalidSpec = errors.New("jobs: invalid spec")
)

// invalidSpecError marks a Submit error as ErrInvalidSpec, keeping the
// message of the error it wraps.
type invalidSpecError struct{ err error }

func (e invalidSpecError) Error() string   { return e.err.Error() }
func (e invalidSpecError) Unwrap() []error { return []error{ErrInvalidSpec, e.err} }

// jobState is the Manager's mutable record of one job. The wire spec is
// kept alongside the decoded one so snapshots re-persist exactly the
// bytes that were submitted.
type jobState struct {
	job    Job
	wire   specWire
	cancel context.CancelFunc // set while a runner owns the job
	// cancelRequested distinguishes a user cancel from a manager shutdown
	// when the runner's context fires.
	cancelRequested bool
	// seq counts events published for this job in this Manager incarnation;
	// subs holds the live subscriber channels (buffered; sends drop the
	// oldest event under backpressure — events are cumulative, so only the
	// newest matters).
	seq  int
	subs map[chan Event]struct{}
}

// Stats is a point-in-time counter/gauge snapshot for /metrics.
type Stats struct {
	// Counters (monotone since Open).
	Submitted    uint64
	Done         uint64
	Failed       uint64
	Canceled     uint64
	Resumed      uint64 // jobs re-enqueued from a durable checkpoint at Open
	Checkpoints  uint64 // checkpoint records appended
	WALRecords   uint64 // total records appended
	WALTruncated uint64 // corrupt/torn tail bytes discarded at Open (0 or 1 events)
	GCRemoved    uint64 // terminal jobs dropped by TTL GC
	Truncations  uint64 // conflicting WAL suffixes removed by replication repair
	EarlyStops   uint64 // jobs finished by the sequential early-stop rule
	SamplesSaved uint64 // samples skipped by early stops (requested − used)
	// Gauges.
	Pending     int
	Running     int
	Terminal    int
	Subscribers int // live convergence-stream subscriptions
}

// Manager owns one durability directory and a bounded runner pool. All
// methods are safe for concurrent use.
//
// Lock order: m.lifeMu → m.mu → (replica node internals via
// Replicator.Ship). Promote/Demote/Close serialize on lifeMu so runner
// pools from different activations never overlap.
type Manager struct {
	cfg   Config
	clock func() time.Time

	wal  *wal
	snap string // snapshot path

	// lifeMu serializes activation transitions (Open/Promote/Demote/Close).
	lifeMu    sync.Mutex
	runCancel context.CancelFunc //yaplint:guardedby mu
	wg        sync.WaitGroup

	mu     sync.Mutex
	closed bool //yaplint:guardedby mu
	active bool //yaplint:guardedby mu
	// replSeq/replTerm identify the log tip: the sequence number and RTerm
	// of the last durable record. replBase/replBaseTerm identify the
	// compaction horizon: records at or below replBase are folded into the
	// snapshot and can no longer be truncated record by record. logBase is
	// the sequence the log's first record follows (jobs.seq); it trails
	// replBase only while the log still holds records a snapshot folded
	// (see foldLocked).
	replSeq      uint64               //yaplint:guardedby mu
	replTerm     uint64               //yaplint:guardedby mu
	replBase     uint64               //yaplint:guardedby mu
	replBaseTerm uint64               //yaplint:guardedby mu
	logBase      uint64               //yaplint:guardedby mu
	nextID       uint64               //yaplint:guardedby mu
	jobs         map[string]*jobState //yaplint:guardedby mu
	// baseUnwritten is set while the log is empty but jobs.seq does not
	// yet record its base: no record may land until it does, since
	// recovery numbers the log's records from jobs.seq.
	baseUnwritten bool //yaplint:guardedby mu
	// queue carries one wake token per entry of pending; runners pop the
	// highest effective priority under mu. The channel (not a sync.Cond)
	// keeps the runners' channel-driven select shape.
	queue   chan struct{} //yaplint:guardedby mu
	pending []string      //yaplint:guardedby mu
	stats   Stats         //yaplint:guardedby mu
}

// Open recovers the directory's durable state and — unless Config.Follower
// is set — starts the runner pool. Recovery migrates a log in the older
// segmented layout, folds the log over the snapshot (truncating a corrupt
// or torn tail rather than failing), compacts, and re-enqueues every
// non-terminal job — running jobs resume from their last durable
// checkpoint. A follower stays passive after recovery: it applies
// replicated records until Promote runs the same activation.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create dir: %w", err)
	}
	m := &Manager{
		cfg:   cfg,
		clock: cfg.Clock,
		snap:  filepath.Join(cfg.Dir, snapName),
	}
	if m.clock == nil {
		m.clock = time.Now
	}
	migrationTruncated, err := migrateLog(cfg.Dir)
	if err != nil {
		return nil, err
	}
	off, truncated, err := m.foldLocked()
	if err != nil {
		return nil, err
	}
	if truncated || migrationTruncated {
		m.stats.WALTruncated++
		m.logf("recovery: discarding corrupt/torn wal tail after offset %d", off)
	}
	m.wal, err = openWAL(cfg.Dir, off)
	if err != nil {
		return nil, err
	}

	// Compact: the snapshot now carries the fold of everything replayed,
	// so the log restarts empty. A follower skips this — its tail may hold
	// records a new leader's history overrides, and truncating a conflict
	// is only possible while the records are physically present; it
	// compacts on the leader's commit signal instead (CompactReplicated).
	// Here it only finishes a compaction cut short after its snapshot:
	// once the snapshot covers every record the log holds, emptying the
	// log and recording the base are the steps that did not happen.
	switch {
	case !cfg.Follower:
		err = m.compactLocked()
	case m.logBase < m.replBase && m.replSeq == m.replBase:
		err = m.resetLogLocked()
	}
	if err == nil && !cfg.Follower {
		err = m.activateLocked()
	}
	if err != nil {
		m.wal.Close()
		return nil, err
	}
	return m, nil
}

// activateLocked turns a recovered store into the live one: unusable specs
// are failed durably, every non-terminal job is (re-)enqueued in ID order,
// and the runner pool plus the GC loop start. Called with exclusive access
// (Open) or under lifeMu+mu (Promote). The records it appends ship to
// replica peers like any other — on a freshly promoted leader the resume
// markers are part of the replicated history.
func (m *Manager) activateLocked() error {
	if m.active {
		return nil
	}
	m.active = true

	// Open the reign with a no-op record: commit advancement is gated on a
	// record of the current term reaching quorum, and followers detect a
	// conflicting suffix by term — both need the new leader's term in the
	// log immediately, not only at the next submission. An append failure
	// is logged, not fatal: the next real record carries the term too.
	if m.cfg.Replicator != nil {
		if err := m.appendLocked(walRecord{Type: recNoop, At: m.clock().UnixNano()}); err != nil {
			m.logf("promotion: appending reign no-op: %v", err)
		}
	}

	// Record the failure of jobs the fold failed for an unusable spec
	// (adoptSpec) that no terminal record covers yet — a failure the log
	// or snapshot already holds carries its FinishedAt. Done here, not at
	// Open, so a follower never writes records of its own.
	for _, js := range m.ordered() {
		if js.job.State == StateFailed && js.job.FinishedAt.IsZero() {
			m.logf("recovery: job %s spec unusable, marking failed: %s", js.job.ID, js.job.Error)
			m.finishLocked(js, StateFailed, js.job.Error, nil)
		}
	}

	// Re-enqueue non-terminal jobs in ID order; recovered jobs are
	// admitted past MaxQueued (they were already admitted once).
	var resumable []*jobState
	for _, js := range m.ordered() {
		if !js.job.State.Terminal() {
			resumable = append(resumable, js)
		}
	}
	depth := m.cfg.maxQueued()
	if len(resumable) > depth {
		depth = len(resumable)
	}
	m.queue = make(chan struct{}, depth)
	m.pending = nil
	for _, js := range resumable {
		if js.job.State == StateRunning {
			js.job.Resumes++
			m.stats.Resumed++
			// Durable telemetry: the resume count rides on a running-state
			// record so it survives the next crash too.
			m.appendLocked(walRecord{Type: recState, ID: js.job.ID, State: StateRunning, Resumes: js.job.Resumes})
			m.logf("recovery: resuming job %s from sample %d/%d (resume #%d)",
				js.job.ID, js.job.Completed, js.job.Spec.Samples, js.job.Resumes)
		}
		m.pending = append(m.pending, js.job.ID)
		m.queue <- struct{}{}
	}

	runCtx, runCancel := context.WithCancel(context.Background())
	m.runCancel = runCancel
	for i := 0; i < m.cfg.runners(); i++ {
		m.wg.Add(1)
		go m.runner(runCtx, m.queue)
	}
	if m.cfg.resultTTL() > 0 {
		m.wg.Add(1)
		go m.gcLoop(runCtx)
	}
	return nil
}

// Promote activates a follower store as the new leader: unfinished jobs
// re-enqueue from their last durable checkpoint, exactly as a restart
// would. Idempotent; fails only on a closed store.
func (m *Manager) Promote() error {
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return m.activateLocked()
}

// Demote returns an active store to follower mode: the runner pool is
// stopped and awaited; jobs interrupted mid-run stay durably running —
// the next leader (possibly this store, re-promoted) resumes them from
// their last checkpoint. Idempotent.
func (m *Manager) Demote() {
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	m.mu.Lock()
	if !m.active {
		m.mu.Unlock()
		return
	}
	m.active = false
	cancel := m.runCancel
	m.runCancel = nil
	m.mu.Unlock()
	cancel()
	m.wg.Wait()
}

// ReplSeq returns the replication sequence number of the last durable
// record (applied or appended).
func (m *Manager) ReplSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replSeq
}

// ReplState returns the log tip as a (sequence, term) pair — the
// up-to-date-ness a replica advertises when soliciting votes and the
// baseline a vote grant is judged against.
func (m *Manager) ReplState() (seq, term uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replSeq, m.replTerm
}

// Active reports whether the store runs jobs (leader / standalone) rather
// than passively applying replicated records.
func (m *Manager) Active() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// ApplyReplicated lands one shipped record in a follower store: the exact
// leader bytes are CRC-checked, appended to the local log and folded
// into memory, so follower state machines stay bit-identical to the
// leader's. It returns the follower's resulting (sequence, term) tip.
// seq must be exactly the follower's next sequence number — otherwise
// ErrReplicaGap is returned along with the current tip so the shipper can
// rewind — and prevTerm must match the term of the follower's record at
// seq-1, the log-matching check: a mismatch (ErrReplicaConflict) means
// this store's suffix was appended under a deposed leader and must be
// truncated (TruncateReplicated) before the new history can land. A
// corrupt record (checksum mismatch, undecodable JSON) is rejected before
// anything reaches the follower's WAL — a bad shipment never poisons the
// store.
func (m *Manager) ApplyReplicated(seq, prevTerm uint64, payload []byte, sum uint32) (uint64, uint64, error) {
	if len(payload) == 0 {
		s, t := m.ReplState()
		return s, t, errors.New("jobs: empty replicated record")
	}
	if RecordCRC(payload) != sum {
		s, t := m.ReplState()
		return s, t, errors.New("jobs: replicated record checksum mismatch")
	}
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		s, t := m.ReplState()
		return s, t, fmt.Errorf("jobs: undecodable replicated record: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.replSeq, m.replTerm, ErrClosed
	}
	if m.active {
		return m.replSeq, m.replTerm, errors.New("jobs: active store cannot apply replicated records")
	}
	if seq != m.replSeq+1 {
		return m.replSeq, m.replTerm, fmt.Errorf("%w: got %d, want %d", ErrReplicaGap, seq, m.replSeq+1)
	}
	if prevTerm != m.replTerm {
		return m.replSeq, m.replTerm, fmt.Errorf("%w: record %d follows term %d, local tip term is %d",
			ErrReplicaConflict, seq, prevTerm, m.replTerm)
	}
	if err := m.fireWALHook(); err != nil {
		return m.replSeq, m.replTerm, fmt.Errorf("jobs: replicated append: %w", err)
	}
	if err := m.walAppendLocked(payload); err != nil {
		return m.replSeq, m.replTerm, err
	}
	m.replSeq = seq
	m.replTerm = rec.RTerm
	m.stats.WALRecords++
	if rec.Type == recCheckpoint {
		m.stats.Checkpoints++
	}
	m.apply(rec)
	if js, ok := m.jobs[rec.ID]; ok {
		// Same reconstruction as recovery, so a client asking this follower
		// (or this store once promoted) sees the leader's bits.
		m.rebuildResult(js)
		m.publishLocked(js) // convergence streams work on followers too
	}
	return m.replSeq, m.replTerm, nil
}

// TailRecord is one physically present WAL record together with the
// election term it was appended under, as the replication layer needs it
// for the log-matching check.
type TailRecord struct {
	Payload []byte
	Term    uint64
}

// TailRecords returns a copy of every WAL record above the compaction
// horizon — appended or applied since the last compaction — together with
// the replication sequence number of the first one and the term of the
// record just below it (the horizon's term, which PrevTerm of the first
// shipped record must carry). A newly promoted leader seeds its ship
// backlog from this tail so followers that lag by less than a compaction
// window catch up record by record; a follower whose cursor predates the
// compaction horizon cannot be served from it and needs a full resync.
func (m *Manager) TailRecords() ([]TailRecord, uint64, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, 0, 0, ErrClosed
	}
	records, _, _, err := readLog(m.cfg.Dir)
	if err != nil {
		return nil, 0, 0, err
	}
	if m.logBase+uint64(len(records)) != m.replSeq {
		return nil, 0, 0, fmt.Errorf("jobs: WAL holds %d records after sequence %d, tip is %d", len(records), m.logBase, m.replSeq)
	}
	records = records[m.replBase-m.logBase:]
	out := make([]TailRecord, len(records))
	term := m.replBaseTerm
	for i, payload := range records {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err == nil {
			term = rec.RTerm
		}
		out[i] = TailRecord{Payload: payload, Term: term}
	}
	return out, m.replBase + 1, m.replBaseTerm, nil
}

// TruncateReplicated discards every record above toSeq from a follower
// store — the repair step after ErrReplicaConflict, removing a suffix
// appended under a deposed leader so the elected one's history can land
// in its place. The WAL is physically truncated at a record boundary and
// the in-memory state refolded from disk, exactly as Open folds it; live
// convergence-stream subscriptions carry over. Returns the resulting
// (sequence, term) tip. ErrNeedsResync means toSeq predates the
// compaction horizon: the conflicting records are already folded into the
// snapshot and the replica must be rebuilt from a full copy instead.
func (m *Manager) TruncateReplicated(toSeq uint64) (uint64, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.replSeq, m.replTerm, ErrClosed
	}
	if m.active {
		return m.replSeq, m.replTerm, errors.New("jobs: active store cannot truncate replicated records")
	}
	if toSeq >= m.replSeq {
		return m.replSeq, m.replTerm, nil
	}
	if toSeq < m.replBase {
		return m.replSeq, m.replTerm, fmt.Errorf("%w: truncate to %d, horizon %d", ErrNeedsResync, toSeq, m.replBase)
	}
	if err := m.wal.TruncateTail(int(toSeq - m.logBase)); err != nil {
		return m.replSeq, m.replTerm, err
	}
	prev := m.jobs
	if _, _, err := m.foldLocked(); err != nil {
		return m.replSeq, m.replTerm, err
	}
	m.stats.Truncations++
	// Open convergence streams see the post-truncation state instead of
	// going dark: subscriber sets and their event counters carry over by ID.
	for id, old := range prev { //yaplint:allow determinism per-ID reattachment is order-independent
		if js, ok := m.jobs[id]; ok && len(old.subs) > 0 {
			js.seq, js.subs = old.seq, old.subs
			m.publishLocked(js)
		}
	}
	return m.replSeq, m.replTerm, nil
}

// CompactReplicated folds a follower's WAL into its snapshot once the
// leader has advertised a commit sequence covering everything this store
// holds — the point past which no record can be truncated away, so
// folding is safe. Keeps a follower's log bounded during a long
// leadership; errors are logged, not returned, since compaction is pure
// housekeeping.
func (m *Manager) CompactReplicated(commit uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.active || m.replSeq == m.replBase || commit < m.replSeq || m.wal.Size() <= compactBytes {
		return
	}
	if err := m.compactLocked(); err != nil {
		m.logf("follower compaction: %v", err)
	}
}

// foldLocked rebuilds the in-memory state from the directory — the one
// fold Open and TruncateReplicated share: the snapshot, every intact log
// record over it, the (seq, term) tip and the compaction horizon, then
// each done job's Result from its durable tallies. It returns the offset
// past the last intact record and whether bytes after it were dropped.
// Callers hold m.mu (or have exclusive access during Open).
func (m *Manager) foldLocked() (int64, bool, error) {
	m.jobs = make(map[string]*jobState)
	m.nextID = 1
	snapSeq, snapTerm, err := m.loadSnapshot()
	if err != nil {
		return 0, false, err
	}
	records, off, truncated, err := readLog(m.cfg.Dir)
	if err != nil {
		return 0, false, err
	}
	base, baseTerm := readBaseSeq(m.cfg.Dir)
	term := baseTerm
	for _, payload := range records {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// An intact frame with unreadable JSON: skip it, keep folding.
			m.logf("recovery: skipping undecodable wal record: %v", err)
			continue
		}
		m.apply(rec)
		term = rec.RTerm
	}
	// Every intact frame consumed one sequence number when it was
	// appended, decodable or not: the log holds base+1 … base+len(records).
	// A snapshot ahead of the base was written without the log reset that
	// follows it — a compaction a crash cut short, or a close by an earlier
	// version of this package, which snapshotted there — and the records
	// it covers are folded, so it is the horizon.
	m.logBase = base
	m.replBase, m.replBaseTerm = base, baseTerm
	if snapSeq >= base {
		m.replBase, m.replBaseTerm = snapSeq, max(snapTerm, baseTerm)
	}
	m.replSeq, m.replTerm = m.replBase, m.replBaseTerm
	if tip := base + uint64(len(records)); tip > m.replBase {
		m.replSeq, m.replTerm = tip, term
	}
	// ID order, so any reconstruction log lines replay identically.
	for _, js := range m.ordered() {
		m.rebuildResult(js)
	}
	return off, truncated, nil
}

// rebuildResult reconstructs a done job's final Result (yields, Wilson
// CI) from its durable tallies. A done job short of its cap can only have
// stopped early; the flag is reconstructible from durable state alone.
func (m *Manager) rebuildResult(js *jobState) {
	if js.job.State != StateDone || js.job.Result != nil {
		return
	}
	res, err := finishedResult(js.job.Spec.Mode, js.job.Counts, js.job.Completed)
	if err != nil {
		m.logf("recovery: job %s result reconstruction: %v", js.job.ID, err)
		return
	}
	if js.job.Completed < js.job.Spec.Samples {
		res.Requested = js.job.Spec.Samples
		res.StoppedEarly = true
	}
	js.job.Result = &res
}

// loadSnapshot reads jobs.snap into the state map and returns the
// (sequence, term) it covers. A missing snapshot is an empty store; an
// unreadable one is logged and treated as empty (the log replay still
// applies whatever it holds).
func (m *Manager) loadSnapshot() (seq, term uint64, err error) {
	data, err := os.ReadFile(m.snap)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("jobs: read snapshot: %w", err)
	}
	var st persistedState
	if err := json.Unmarshal(data, &st); err != nil {
		m.logf("recovery: snapshot unreadable, starting from wal alone: %v", err)
		return 0, 0, nil
	}
	if st.NextID > m.nextID {
		m.nextID = st.NextID
	}
	for _, pj := range st.Jobs {
		js := &jobState{
			wire: pj.Spec,
			job: Job{
				ID:        pj.ID,
				State:     pj.State,
				Completed: pj.Completed,
				Counts:    pj.Counts,
				Resumes:   pj.Resumes,
				Error:     pj.Error,
			},
		}
		if pj.SubmittedAt != 0 {
			js.job.SubmittedAt = time.Unix(0, pj.SubmittedAt)
		}
		if pj.FinishedAt != 0 {
			js.job.FinishedAt = time.Unix(0, pj.FinishedAt)
		}
		adoptSpec(js)
		m.jobs[pj.ID] = js
		m.noteID(pj.ID)
	}
	return st.ReplicaSeq, st.ReplicaTerm, nil
}

// adoptSpec decodes a folded job's persisted spec. A spec that no longer
// decodes — disk corruption, an incompatible parameter schema, or a sweep
// job of an older build — fails the job where it stands, on every replica
// alike: it never runs, its tallies are dropped, and later state and
// checkpoint records cannot revive it (the first terminal state wins).
// Activation then records the failure durably.
func adoptSpec(js *jobState) {
	spec, err := js.wire.toSpec()
	if err != nil {
		//yaplint:allow waldur derived from the durable submit record alone, so every fold repeats it
		js.job.State, js.job.Error, js.job.Completed, js.job.Counts = StateFailed, err.Error(), 0, sim.Counts{}
		return
	}
	js.job.Spec = spec
	js.job.ParamsHash = spec.Params.HashString()
}

// apply folds one WAL record into the state map. Application is
// idempotent and monotone: records the snapshot already covers, or that
// arrive out of order after a partial compaction, never regress state.
func (m *Manager) apply(rec walRecord) {
	switch rec.Type {
	case recSubmit:
		if rec.Spec == nil || rec.ID == "" {
			return
		}
		if _, ok := m.jobs[rec.ID]; ok {
			return // snapshot already covers it
		}
		js := &jobState{wire: *rec.Spec, job: Job{ID: rec.ID, State: StatePending}}
		if rec.At != 0 {
			js.job.SubmittedAt = time.Unix(0, rec.At)
		}
		adoptSpec(js)
		m.jobs[rec.ID] = js
		m.noteID(rec.ID)
	case recState:
		js, ok := m.jobs[rec.ID]
		if !ok {
			return // orphan record for a job the snapshot GC'd
		}
		if rec.State.rank() < js.job.State.rank() {
			return
		}
		if js.job.State.Terminal() && rec.State != js.job.State {
			return // first terminal state wins; a correct log never hits this
		}
		js.job.State = rec.State
		if rec.Resumes > js.job.Resumes {
			js.job.Resumes = rec.Resumes
		}
		if rec.Error != "" {
			js.job.Error = rec.Error
		}
		if rec.State.Terminal() {
			if rec.At != 0 {
				js.job.FinishedAt = time.Unix(0, rec.At)
			}
			if rec.Counts != nil && rec.Completed >= js.job.Completed {
				js.job.Completed = rec.Completed
				js.job.Counts = *rec.Counts
			}
		}
	case recCheckpoint:
		js, ok := m.jobs[rec.ID]
		if !ok || js.job.State.Terminal() || rec.Counts == nil {
			return
		}
		// Checkpoints carry cumulative tallies, so folding is taking the
		// furthest one.
		if rec.Completed > js.job.Completed {
			js.job.Completed = rec.Completed
			js.job.Counts = *rec.Counts
		}
	case recGC:
		delete(m.jobs, rec.ID)
	case recNoop:
		// No state change; the record exists so the log has an entry of the
		// appending leader's term (see the recNoop doc).
	}
}

// noteID keeps the persistent allocator ahead of every ID ever seen.
func (m *Manager) noteID(id string) {
	n, ok := parseID(id)
	if ok && n >= m.nextID {
		m.nextID = n + 1
	}
}

func parseID(id string) (uint64, bool) {
	s, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func formatID(n uint64) string { return fmt.Sprintf("job-%06d", n) }

// ordered returns the jobs sorted by ID. Callers hold m.mu (or have
// exclusive access during recovery).
func (m *Manager) ordered() []*jobState {
	out := make([]*jobState, len(m.jobs))
	i := 0
	for _, js := range m.jobs { //yaplint:allow determinism collection feeds the sort below; the result is order-independent
		out[i] = js
		i++
	}
	sort.Slice(out, func(a, b int) bool { return out[a].job.ID < out[b].job.ID })
	return out
}

// validateSpec checks a submission and resolves defaults into it.
func (m *Manager) validateSpec(spec Spec) (Spec, error) {
	if spec.Mode != "w2w" && spec.Mode != "d2w" {
		return Spec{}, fmt.Errorf("jobs: mode must be \"w2w\" or \"d2w\", got %q", spec.Mode)
	}
	if spec.Samples <= 0 {
		return Spec{}, fmt.Errorf("jobs: samples must be positive, got %d", spec.Samples)
	}
	if err := spec.Params.Validate(); err != nil {
		return Spec{}, fmt.Errorf("jobs: invalid params: %w", err)
	}
	if spec.Workers < 0 || spec.CheckpointEvery < 0 {
		return Spec{}, errors.New("jobs: workers and checkpoint_every must be non-negative")
	}
	if spec.Epsilon < 0 || spec.MinSamples < 0 {
		return Spec{}, errors.New("jobs: epsilon and min_samples must be non-negative")
	}
	// Resolve the checkpoint cadence now and persist it with the spec: the
	// checkpoint ladder decides where the early-stop rule is evaluated, so
	// it must not shift if the manager default changes between a crash and
	// the resume.
	if spec.CheckpointEvery == 0 {
		spec.CheckpointEvery = m.cfg.checkpointEvery()
	}
	return spec, nil
}

// Submit validates, durably logs and enqueues a job, returning its
// pending Job. The submit record is fsync'd before Submit returns: an
// accepted job survives any crash after the 202 goes out. Under
// replication, Submit additionally waits for quorum acknowledgement — a
// job is never reported accepted unless a majority of the replica set
// holds its submit record, so no elected successor can forget it.
func (m *Manager) Submit(spec Spec) (Job, error) {
	spec, err := m.validateSpec(spec)
	if err != nil {
		return Job{}, invalidSpecError{err}
	}
	wire, err := specToWire(spec)
	if err != nil {
		return Job{}, invalidSpecError{err}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Job{}, ErrClosed
	}
	if !m.active {
		m.mu.Unlock()
		return Job{}, ErrNotLeader
	}
	if m.live() >= m.cfg.maxQueued() || len(m.queue) >= cap(m.queue) {
		m.mu.Unlock()
		return Job{}, ErrQueueFull
	}
	id := formatID(m.nextID)
	js := &jobState{wire: wire, job: Job{
		ID:          id,
		Spec:        spec,
		ParamsHash:  spec.Params.HashString(),
		State:       StatePending,
		SubmittedAt: m.clock(),
	}}
	if err := m.appendLocked(walRecord{Type: recSubmit, ID: id, Spec: &wire, At: js.job.SubmittedAt.UnixNano()}); err != nil {
		m.mu.Unlock()
		if errors.As(err, new(recordTooLargeError)) {
			err = invalidSpecError{err}
		}
		return Job{}, err
	}
	m.nextID++
	m.jobs[id] = js
	m.stats.Submitted++
	job := js.job
	seq := m.replSeq
	repl := m.cfg.Replicator
	if repl == nil {
		m.pending = append(m.pending, id)
		m.queue <- struct{}{} // capacity checked above; sends only happen under m.mu
		m.mu.Unlock()
		return job, nil
	}
	m.mu.Unlock()

	// The record is durable and shipping, but the job is not schedulable
	// yet: dispatch waits for the quorum ack. A quorum-failed submit then
	// annuls a job that never started — the rejection the client is about
	// to see cannot race a locally completed run it would double on retry.
	if err := repl.WaitQuorum(context.Background(), seq); err != nil {
		m.annulUnacked(id)
		return Job{}, fmt.Errorf("jobs: submit not acknowledged by quorum: %w", err)
	}
	m.mu.Lock()
	if m.active && !js.job.State.Terminal() && !m.pendingLocked(id) {
		m.pending = append(m.pending, id)
		select {
		case m.queue <- struct{}{}:
		default: // full only when tokens already outnumber pending jobs
		}
	}
	m.mu.Unlock()
	return job, nil
}

// pendingLocked reports whether id is already on the dispatch list — a
// demotion/promotion cycle between a submit and its quorum ack re-admits
// every non-terminal job, and a duplicate entry would double-run it.
// Callers hold m.mu.
func (m *Manager) pendingLocked(id string) bool {
	for _, p := range m.pending {
		if p == id {
			return true
		}
	}
	return false
}

// annulUnacked durably cancels a job whose submit record never reached
// quorum, so the rejection Submit is about to return stays true: the job
// will not run here and a retry cannot double-run the work. If the store
// was deposed while waiting, nothing is written — the annulment record
// would carry the old reign's term anyway, and the new leader's history
// truncates the whole unacked suffix, job and all.
func (m *Manager) annulUnacked(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.active {
		return
	}
	js, ok := m.jobs[id]
	if !ok || js.job.State.Terminal() {
		return
	}
	js.cancelRequested = true
	if js.cancel != nil { // a runner already picked it up; it cancels durably
		js.cancel()
		return
	}
	m.finishLocked(js, StateCanceled, "submit not acknowledged by quorum; annulled", nil)
}

// live counts non-terminal jobs. Callers hold m.mu.
func (m *Manager) live() int {
	n := 0
	for _, js := range m.jobs { //yaplint:allow determinism commutative integer count; no order-dependent effect
		if !js.job.State.Terminal() {
			n++
		}
	}
	return n
}

// Get returns a copy of the job, or ErrNotFound.
func (m *Manager) Get(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	return js.job, nil
}

// List returns copies of every tracked job, sorted by ID.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	ordered := m.ordered()
	out := make([]Job, len(ordered))
	for i, js := range ordered {
		out[i] = js.job
	}
	return out
}

// Cancel stops a job. A pending job is canceled durably on the spot; a
// running job is interrupted at its next sample boundary and canceled by
// its runner (the returned copy still shows it running). Canceling a
// terminal job returns ErrTerminal with the job's final state.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Job{}, ErrClosed
	}
	if !m.active {
		return Job{}, ErrNotLeader
	}
	js, ok := m.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	switch {
	case js.job.State.Terminal():
		return js.job, fmt.Errorf("%w (%s)", ErrTerminal, js.job.State)
	case js.cancel != nil: // running: the runner owns the terminal record
		js.cancelRequested = true
		js.cancel()
	default: // pending: cancel durably right here
		js.cancelRequested = true
		m.finishLocked(js, StateCanceled, "", nil)
	}
	return js.job, nil
}

// Stats returns a point-in-time counter/gauge snapshot.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	for _, js := range m.jobs { //yaplint:allow determinism commutative counter folds; telemetry only
		switch js.job.State {
		case StatePending:
			s.Pending++
		case StateRunning:
			s.Running++
		default:
			s.Terminal++
		}
		s.Subscribers += len(js.subs) //yaplint:allow determinism commutative integer gauge; telemetry only, never feeds control flow
	}
	return s
}

// eventBuffer is each subscriber channel's capacity. A consumer that falls
// further behind loses the oldest events first; since events are cumulative
// snapshots, catching up never requires history.
const eventBuffer = 16

// Subscribe registers a convergence-stream subscriber for a job and
// returns its event channel plus a cancel func that must be called when
// done. afterSeq is the last event Seq the caller has already seen (0 for
// a fresh subscription): unless the job's current sequence is exactly
// afterSeq, the current snapshot is delivered immediately, so a
// reconnecting subscriber — even one whose seq numbers came from a
// previous daemon incarnation — always converges on current state without
// replaying history. A terminal job always delivers its snapshot, whatever
// afterSeq: a terminal job never publishes again (and one recovered from
// disk has seq 0, indistinguishable from "nothing seen"), so skipping the
// snapshot would leave the subscriber waiting forever; the duplicate frame
// is harmless because events are cumulative. The channel is never closed;
// a terminal Job in an event tells the consumer the stream is complete.
func (m *Manager) Subscribe(id string, afterSeq int) (<-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, nil, ErrClosed
	}
	js, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Event, eventBuffer)
	if js.subs == nil {
		js.subs = make(map[chan Event]struct{})
	}
	js.subs[ch] = struct{}{}
	if js.seq != afterSeq || js.job.State.Terminal() {
		ch <- m.eventLocked(js) // buffered and freshly created: never blocks
	}
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if cur, ok := m.jobs[id]; ok {
			delete(cur.subs, ch)
		}
	}
	return ch, cancel, nil
}

// eventLocked builds the job's current snapshot event without bumping seq.
// Callers hold m.mu.
func (m *Manager) eventLocked(js *jobState) Event {
	return Event{
		Seq:      js.seq,
		Job:      js.job,
		Estimate: converge.EstimateOf(js.job.Counts.Survived, js.job.Counts.Dies),
	}
}

// publishLocked emits the job's current state to every subscriber,
// dropping each channel's oldest event under backpressure. Callers hold
// m.mu.
func (m *Manager) publishLocked(js *jobState) {
	js.seq++
	ev := m.eventLocked(js)
	for ch := range js.subs { //yaplint:allow determinism subscriber channels are independent; delivery order between them is unobservable
		select {
		case ch <- ev:
			continue
		default:
		}
		select { // full: evict the oldest (superseded) event and retry
		case <-ch:
		default:
		}
		select {
		case ch <- ev:
		default:
		}
	}
}

// Close stops the runner pool and the GC loop, waits for them and closes
// the log; every record is already durable, so nothing is written. Jobs
// interrupted mid-run stay durably running — indistinguishable from a
// crash — and resume from their last checkpoint at the next Open.
func (m *Manager) Close() error {
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.active = false
	cancel := m.runCancel
	m.runCancel = nil
	m.mu.Unlock()

	if cancel != nil { // nil when the store never activated (pure follower)
		cancel()
	}
	m.wg.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wal.Close()
}

// appendLocked durably logs one record. Callers hold m.mu (or have
// exclusive access during recovery). The HookJobsWAL fault hook fires
// first, so chaos drills can fail or delay durability deterministically.
func (m *Manager) appendLocked(rec walRecord) error {
	if err := m.fireWALHook(); err != nil {
		return fmt.Errorf("jobs: wal append: %w", err)
	}
	if m.cfg.Replicator != nil {
		// Stamp the record with the reign's term — the identity the
		// log-matching check compares across replicas. The reign term, not
		// any later-observed one: a deposed leader still draining appends
		// must keep stamping the term it was elected under, so (seq, term)
		// never names two different records.
		rec.RTerm = m.cfg.Replicator.LeaderTerm()
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encode wal record: %w", err)
	}
	if err := m.walAppendLocked(payload); err != nil {
		return err
	}
	m.replSeq++
	m.replTerm = rec.RTerm
	m.stats.WALRecords++
	if rec.Type == recCheckpoint {
		m.stats.Checkpoints++
	}
	if m.cfg.Replicator != nil {
		// Hand the fsync'd bytes to the replication pipeline. Ship only
		// enqueues (backlog ring + sender wakeup), so holding m.mu here is
		// fine and establishes the one legal lock order: Manager → replica.
		m.cfg.Replicator.Ship(m.replSeq, payload)
	}
	return nil
}

// compactLocked folds the log into the snapshot and is the only writer of
// jobs.snap: the snapshot of the tip first, then the log reset, then the
// base. A crash between two steps leaves a directory foldLocked reads
// back to the same state. Callers hold m.mu (or have exclusive access
// during Open).
func (m *Manager) compactLocked() error {
	if err := m.writeSnapshotLocked(); err != nil {
		return err
	}
	return m.resetLogLocked()
}

// resetLogLocked empties the log once the snapshot covers the tip and
// durably records the tip as the new base, so recovery keeps numbering
// replicated records correctly. When the base write fails, the next
// append retries it and fails while it still cannot. Callers hold m.mu
// (or have exclusive access during Open).
func (m *Manager) resetLogLocked() error {
	if err := m.wal.TruncateTail(0); err != nil {
		return err
	}
	m.logBase = m.replSeq
	m.replBase, m.replBaseTerm = m.replSeq, m.replTerm
	m.baseUnwritten = true
	return m.writeBaseLocked()
}

// writeBaseLocked records the emptied log's base in jobs.seq. Callers
// hold m.mu.
func (m *Manager) writeBaseLocked() error {
	if err := writeBaseSeq(m.cfg.Dir, m.replBase, m.replBaseTerm); err != nil {
		return fmt.Errorf("jobs: record wal base sequence: %w", err)
	}
	m.baseUnwritten = false
	return nil
}

// walAppendLocked appends one encoded record to the log, recording a
// pending base first. Callers hold m.mu.
func (m *Manager) walAppendLocked(payload []byte) error {
	if m.baseUnwritten {
		if err := m.writeBaseLocked(); err != nil {
			return err
		}
	}
	return m.wal.Append(payload)
}

// fireWALHook fires HookJobsWAL, converting an injected panic into an
// error: the hook fires under m.mu, where unwinding would leave no one to
// release the lock or fail the job.
func (m *Manager) fireWALHook() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("wal hook panic: %v", rec)
		}
	}()
	return m.cfg.Faults.Fire(context.Background(), faultinject.HookJobsWAL)
}

// finishLocked moves a job to a terminal state, durably when possible.
// Callers hold m.mu. A WAL failure while recording the transition is
// logged and the in-memory state still advances: the worst outcome of
// losing a terminal record is re-running the tail of the job after a
// restart, never wrong results.
func (m *Manager) finishLocked(js *jobState, state State, errText string, res *sim.Result) {
	finishedAt := m.clock()
	rec := walRecord{Type: recState, ID: js.job.ID, State: state, Error: errText, At: finishedAt.UnixNano()}
	if state == StateDone {
		c := js.job.Counts
		rec.Completed, rec.Counts = js.job.Completed, &c
	}
	// Durable record first, in-memory transition second: a crash between
	// the two replays the same terminal state instead of forgetting it.
	// (On append failure the state still advances — see the policy above.)
	if err := m.appendLocked(rec); err != nil {
		m.logf("job %s: recording %s state: %v", js.job.ID, state, err)
	}
	js.job.State = state
	js.job.Error = errText
	js.job.FinishedAt = finishedAt
	js.job.Result = res
	switch state {
	case StateDone:
		m.stats.Done++
	case StateFailed:
		m.stats.Failed++
		if errText != "" {
			m.logf("job %s failed: %s", js.job.ID, errText)
		}
	case StateCanceled:
		m.stats.Canceled++
	}
	m.publishLocked(js)
}

// runner is one worker of the bounded pool: dequeue the highest effective
// priority job, execute in checkpoint-sized slices, repeat. ctx and queue
// are the activation's own — a demotion tears them down and a later
// promotion starts fresh ones, so pools never overlap.
func (m *Manager) runner(ctx context.Context, queue chan struct{}) {
	defer m.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-queue:
			if id, ok := m.takeJob(); ok {
				m.runJob(ctx, id)
			}
		}
	}
}

// takeJob pops the pending job with the highest effective priority:
// Spec.Priority plus one level per PriorityAging of queue wait, ties
// broken by lowest ID (submission order). The aging bonus grows without
// bound, so a steady stream of high-priority submissions delays a
// low-priority job but can never starve it.
func (m *Manager) takeJob() (string, bool) {
	now := m.clock()
	aging := m.cfg.priorityAging()
	m.mu.Lock()
	defer m.mu.Unlock()
	best := -1
	var bestEff int
	for i, id := range m.pending {
		js, ok := m.jobs[id]
		if !ok {
			continue // GC'd while queued; still consume the slot
		}
		eff := js.job.Spec.Priority
		if !js.job.SubmittedAt.IsZero() {
			eff += int(now.Sub(js.job.SubmittedAt) / aging)
		}
		if best == -1 || eff > bestEff || (eff == bestEff && id < m.pending[best]) {
			best, bestEff = i, eff
		}
	}
	if best == -1 {
		m.pending = nil
		return "", false
	}
	id := m.pending[best]
	m.pending = append(m.pending[:best], m.pending[best+1:]...)
	return id, true
}

// errSettled ends a run whose job went terminal under it (see
// commitLocked); settle leaves such a job as it is.
var errSettled = errors.New("jobs: run settled by its checkpoint")

// runJob executes one job from its last durable checkpoint to the end,
// through sim.RunSlices on the multiples of its checkpoint cadence: each
// whole slice is folded in with sim.Merge — the same arithmetic as the
// dist coordinator — and made durable as a cumulative checkpoint record
// before the stop rule sees it. The boundaries and the tallies at them
// are the same on every run and across crash/resume, so the final Result
// is bit-identical to an uninterrupted single-process run (Elapsed
// excepted, as everywhere) and a resumed job stops at exactly the sample
// index the uninterrupted one would have.
func (m *Manager) runJob(ctx context.Context, id string) {
	// An injected panic at HookJobsRun (or a genuine bug in the slice
	// path) costs this job a failure, not the whole daemon. Code holding
	// m.mu never panics (see fireWALHook), so re-locking here is safe.
	defer func() {
		if rec := recover(); rec != nil {
			m.mu.Lock()
			if js, ok := m.jobs[id]; ok && !js.job.State.Terminal() {
				js.cancel = nil
				m.finishLocked(js, StateFailed, fmt.Sprintf("runner panicked: %v", rec), nil)
			}
			m.mu.Unlock()
		}
	}()
	m.mu.Lock()
	js, ok := m.jobs[id]
	if !ok || js.job.State.Terminal() {
		m.mu.Unlock()
		return // canceled (or GC'd) while queued
	}
	if ctx.Err() != nil || !m.active {
		// The activation is ending (Close or Demote), and runner's select
		// may still have taken a queue token: leave the job as it is. The
		// next activation re-enqueues it, and a pending job does not read
		// as resumed.
		m.mu.Unlock()
		return
	}
	if js.job.State == StatePending {
		// Durable append before the in-memory transition: a crash in
		// between replays pending→running from the WAL instead of losing it.
		if err := m.appendLocked(walRecord{Type: recState, ID: id, State: StateRunning}); err != nil {
			m.finishLocked(js, StateFailed, fmt.Sprintf("recording running state: %v", err), nil)
			m.mu.Unlock()
			return
		}
		js.job.State = StateRunning
		m.publishLocked(js)
	}
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	js.cancel = cancel
	spec := js.job.Spec
	base := baseResult(spec.Mode, js.job.Counts, js.job.Completed)
	m.mu.Unlock()

	// Submit resolves CheckpointEvery into the persisted spec; the fallback
	// only covers records written before it did so.
	every := spec.CheckpointEvery
	if every <= 0 {
		every = m.cfg.checkpointEvery()
	}
	run := m.cfg.Run
	if run == nil {
		run = sim.LocalRunner()
	}
	slice := func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
		if err := m.cfg.Faults.Fire(ctx, faultinject.HookJobsRun); err != nil {
			return sim.Result{}, fmt.Errorf("slice at sample %d: %w", opts.FirstSample, err)
		}
		res, err := run(ctx, mode, opts)
		switch {
		case err != nil:
			return sim.Result{}, fmt.Errorf("slice at sample %d: %w", opts.FirstSample, err)
		case res.Partial && ctx.Err() == nil:
			// No deadline and no cancellation, yet the slice is partial —
			// a distributed runner degraded. The tallies cannot be trusted
			// to be contiguous, so fail rather than checkpoint them.
			return sim.Result{}, fmt.Errorf("slice at sample %d returned partial tallies (%d/%d)",
				opts.FirstSample, res.Completed, res.Requested)
		}
		return res, nil
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = m.cfg.SimWorkers
	}
	opts := sim.Options{Params: spec.Params, Seed: spec.Seed, Workers: workers, Faults: m.cfg.Faults}
	if spec.Mode == "d2w" {
		opts.Dies = spec.Samples
	} else {
		opts.Wafers = spec.Samples
	}
	rule := converge.Rule{Epsilon: spec.Epsilon, MinSamples: spec.MinSamples}
	res, err := sim.RunSlices(jobCtx, slice, spec.Mode, opts, base,
		func(done int) int { return (done/every + 1) * every },
		func(acc sim.Result) (bool, error) {
			m.mu.Lock()
			defer m.mu.Unlock()
			if acc.Completed > js.job.Completed && !m.commitLocked(js, acc) {
				return false, errSettled
			}
			return rule.ShouldStop(acc.Completed, converge.EstimateOf(acc.Counts.Survived, acc.Counts.Dies)), nil
		})
	m.settle(jobCtx, js, err, res)
}

// commitLocked makes a run's progress durable: it appends the cumulative
// checkpoint record of acc, applies it and publishes the new state. It
// reports false when the run must end instead: the job went terminal while
// the slice ran (a durable cancel won the race), or the append failed,
// which fails the job. Callers hold m.mu.
func (m *Manager) commitLocked(js *jobState, acc sim.Result) bool {
	if js.job.State.Terminal() {
		return false
	}
	c := acc.Counts
	rec := walRecord{Type: recCheckpoint, ID: js.job.ID, Completed: acc.Completed, Counts: &c}
	if err := m.appendLocked(rec); err != nil {
		m.finishLocked(js, StateFailed, fmt.Sprintf("checkpoint at sample %d: %v", acc.Completed, err), nil)
		return false
	}
	m.apply(rec)
	m.publishLocked(js)
	return true
}

// settle ends a run once its slice loop returns. A job that is already
// terminal (see commitLocked) stays as it is. An interrupted run — jobCtx
// fired — becomes a durable canceled state when a user asked for it; a
// manager shutdown leaves the job durably running so the next Open
// resumes it from the last checkpoint, deliberately indistinguishable
// from a crash. Either way the in-flight slice is discarded: its partial
// tallies may cover NON-contiguous samples (workers stride the index
// space), so they are never checkpointed. Otherwise err fails the job,
// or the job is done with res. A stopped-early res keeps Requested at the
// submitted cap: the skipped samples were saved, not lost.
func (m *Manager) settle(jobCtx context.Context, js *jobState, err error, res sim.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js.cancel = nil
	switch {
	case js.job.State.Terminal():
	case jobCtx.Err() != nil:
		if js.cancelRequested {
			m.finishLocked(js, StateCanceled, "", nil)
		}
	case err != nil:
		m.finishLocked(js, StateFailed, err.Error(), nil)
	default:
		if res.StoppedEarly {
			m.stats.EarlyStops++
			m.stats.SamplesSaved += uint64(res.Requested - res.Completed)
		}
		m.finishLocked(js, StateDone, "", &res)
	}
}

// gcLoop drops terminal jobs whose results have outlived ResultTTL.
func (m *Manager) gcLoop(ctx context.Context) {
	defer m.wg.Done()
	ticker := time.NewTicker(gcInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			m.gcPass()
		}
	}
}

// gcPass removes expired terminal jobs, durably (a gc record per drop,
// then a compacting snapshot when anything was dropped).
func (m *Manager) gcPass() {
	ttl := m.cfg.resultTTL()
	if ttl <= 0 {
		return
	}
	now := m.clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	removed := 0
	for _, js := range m.ordered() {
		if !js.job.State.Terminal() || js.job.FinishedAt.IsZero() {
			continue
		}
		if now.Sub(js.job.FinishedAt) < ttl {
			continue
		}
		if err := m.appendLocked(walRecord{Type: recGC, ID: js.job.ID, At: now.UnixNano()}); err != nil {
			m.logf("gc: recording removal of %s: %v", js.job.ID, err)
			continue
		}
		delete(m.jobs, js.job.ID)
		m.stats.GCRemoved++
		removed++
	}
	// Compact when jobs were dropped, or when the log outgrew its budget.
	if removed > 0 || m.wal.Size() > compactBytes {
		if err := m.compactLocked(); err != nil {
			m.logf("gc: compaction: %v", err)
		}
	}
}

// writeSnapshotLocked persists the full state atomically; compactLocked
// is its one caller. Callers hold m.mu (or have exclusive access during
// Open).
func (m *Manager) writeSnapshotLocked() error {
	st := persistedState{NextID: m.nextID, ReplicaSeq: m.replSeq, ReplicaTerm: m.replTerm}
	ordered := m.ordered()
	st.Jobs = make([]persistedJob, len(ordered))
	for i, js := range ordered {
		pj := persistedJob{
			ID:        js.job.ID,
			Spec:      js.wire,
			State:     js.job.State,
			Completed: js.job.Completed,
			Counts:    js.job.Counts,
			Resumes:   js.job.Resumes,
			Error:     js.job.Error,
		}
		if !js.job.SubmittedAt.IsZero() {
			pj.SubmittedAt = js.job.SubmittedAt.UnixNano()
		}
		if !js.job.FinishedAt.IsZero() {
			pj.FinishedAt = js.job.FinishedAt.UnixNano()
		}
		st.Jobs[i] = pj
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encode snapshot: %w", err)
	}
	return writeFileAtomic(m.snap, data)
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Printf("jobs: "+format, args...)
	}
}
