package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yap/internal/sim"
)

// captureReplicator records every shipped record so tests can re-feed the
// exact bytes to a follower store.
type captureReplicator struct {
	mu      sync.Mutex
	shipped []struct {
		seq     uint64
		payload []byte
	}
	quorumErr error
	term      uint64
}

func (c *captureReplicator) Ship(seq uint64, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := append([]byte(nil), payload...)
	c.shipped = append(c.shipped, struct {
		seq     uint64
		payload []byte
	}{seq, p})
}

func (c *captureReplicator) WaitQuorum(ctx context.Context, seq uint64) error {
	return c.quorumErr
}

func (c *captureReplicator) LeaderTerm() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.term
}

func (c *captureReplicator) records() []struct {
	seq     uint64
	payload []byte
} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]struct {
		seq     uint64
		payload []byte
	}(nil), c.shipped...)
}

// TestFollowerAppliesShippedRecords is the replication core property: a
// leader's durable record stream, applied byte for byte to a follower
// store, leaves the follower holding the identical job state — and a
// promoted follower serves it.
func TestFollowerAppliesShippedRecords(t *testing.T) {
	ship := &captureReplicator{}
	leader, err := Open(Config{Dir: t.TempDir(), Replicator: ship, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6, 2)
	job, err := leader.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, leader, job.ID)
	if final.State != StateDone {
		t.Fatalf("leader job state %s: %s", final.State, final.Error)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	follower, err := Open(Config{Dir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if follower.Active() {
		t.Fatal("follower opened active")
	}
	if _, err := follower.Submit(spec); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower Submit error = %v, want ErrNotLeader", err)
	}
	for _, rec := range ship.records() {
		applied, _, err := follower.ApplyReplicated(rec.seq, 0, rec.payload, RecordCRC(rec.payload))
		if err != nil {
			t.Fatalf("apply seq %d: %v", rec.seq, err)
		}
		if applied != rec.seq {
			t.Fatalf("applied seq %d, want %d", applied, rec.seq)
		}
	}
	got, err := follower.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != final.State || got.Completed != final.Completed || got.Counts != final.Counts {
		t.Fatalf("follower state diverged: got %+v want %+v", got, final)
	}
	if got.Result == nil {
		t.Fatal("follower did not reconstruct the terminal result")
	}
	if !reflect.DeepEqual(stripElapsed(*got.Result), stripElapsed(*final.Result)) {
		t.Fatalf("follower result %+v != leader result %+v", got.Result, final.Result)
	}

	// Promotion turns the follower into a servable leader.
	if err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if !follower.Active() {
		t.Fatal("promoted follower not active")
	}
	if _, err := follower.Submit(testSpec(2, 2)); err != nil {
		t.Fatalf("promoted follower rejects submits: %v", err)
	}
}

// TestFollowerRejectsCorruptShipments: truncated or bit-flipped shipped
// records must be rejected before anything reaches the follower's WAL —
// and the store must keep accepting the intact stream afterwards.
func TestFollowerRejectsCorruptShipments(t *testing.T) {
	ship := &captureReplicator{}
	leader, err := Open(Config{Dir: t.TempDir(), Replicator: ship, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := leader.Submit(testSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, leader, job.ID)
	leader.Close()
	recs := ship.records()
	if len(recs) < 3 {
		t.Fatalf("need >=3 shipped records, got %d", len(recs))
	}

	follower, err := Open(Config{Dir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	good := recs[0]
	if _, _, err := follower.ApplyReplicated(good.seq, 0, good.payload, RecordCRC(good.payload)); err != nil {
		t.Fatal(err)
	}

	next := recs[1]
	// Bit-flipped payload with the original checksum: reject.
	flipped := append([]byte(nil), next.payload...)
	flipped[0] ^= 0x01
	if _, _, err := follower.ApplyReplicated(next.seq, 0, flipped, RecordCRC(next.payload)); err == nil {
		t.Fatal("bit-flipped record accepted")
	}
	// Truncated payload: reject.
	if _, _, err := follower.ApplyReplicated(next.seq, 0, next.payload[:len(next.payload)/2], RecordCRC(next.payload)); err == nil {
		t.Fatal("truncated record accepted")
	}
	// Matching CRC but not JSON: reject without poisoning the store.
	junk := []byte("not json at all")
	if _, _, err := follower.ApplyReplicated(next.seq, 0, junk, RecordCRC(junk)); err == nil {
		t.Fatal("undecodable record accepted")
	}
	// A gap must be refused with the follower's current sequence.
	far := recs[2]
	cur, _, err := follower.ApplyReplicated(far.seq+100, 0, far.payload, RecordCRC(far.payload))
	if !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap error = %v, want ErrReplicaGap", err)
	}
	if cur != good.seq {
		t.Fatalf("gap response sequence %d, want %d", cur, good.seq)
	}

	// The intact stream still applies — none of the rejects poisoned it.
	for _, rec := range recs[1:] {
		if _, _, err := follower.ApplyReplicated(rec.seq, 0, rec.payload, RecordCRC(rec.payload)); err != nil {
			t.Fatalf("post-reject apply seq %d: %v", rec.seq, err)
		}
	}
	got, err := follower.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("follower final state %s", got.State)
	}

	// Nothing but the intact records may have reached the follower's WAL:
	// a restart over the same directory must replay cleanly to the same
	// sequence.
	seq := follower.ReplSeq()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(Config{Dir: follower.cfg.Dir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.ReplSeq() != seq {
		t.Fatalf("reopened follower seq %d, want %d", reopened.ReplSeq(), seq)
	}
	if reopened.Stats().WALTruncated != 0 {
		t.Fatal("rejected shipments left torn bytes in the follower WAL")
	}
}

// TestReplSeqSurvivesRestart: the replication sequence number is derived
// from the snapshot plus replayed records — no extra fsyncs — and must be
// stable across restart and compaction.
func TestReplSeqSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ship := &captureReplicator{}
	m, err := Open(Config{Dir: dir, Replicator: ship, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(testSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, job.ID)
	seq := m.ReplSeq()
	recs := ship.records()
	if seq == 0 || uint64(len(recs)) != seq {
		t.Fatalf("leader seq %d, shipped %d", seq, len(recs))
	}
	if recs[len(recs)-1].seq != seq {
		t.Fatalf("last shipped seq %d, want %d", recs[len(recs)-1].seq, seq)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.ReplSeq() != seq {
		t.Fatalf("restarted seq %d, want %d", m2.ReplSeq(), seq)
	}
}

// TestSubmitNotAcknowledgedByQuorum: when the replicator cannot reach
// quorum, Submit must report failure — the acceptance criterion that a
// quorum-unacked submit is never reported accepted.
func TestSubmitNotAcknowledgedByQuorum(t *testing.T) {
	ship := &captureReplicator{quorumErr: errors.New("no quorum")}
	m, err := Open(Config{Dir: t.TempDir(), Replicator: ship})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit(testSpec(2, 2)); err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("Submit with failing quorum = %v, want quorum error", err)
	}
}

// TestQuorumFailureAnnulsSubmit: a quorum-failed submit must not leave
// the job durably queued and running locally — the rejection the client
// sees has to stay true, so a retry cannot double-run the work.
func TestQuorumFailureAnnulsSubmit(t *testing.T) {
	dir := t.TempDir()
	ship := &captureReplicator{quorumErr: errors.New("no quorum")}
	m, err := Open(Config{
		Dir:        dir,
		Replicator: ship,
		Runners:    1,
		// Hold any picked-up job until its context is canceled, so the
		// annulment always races against a genuinely running job.
		Run: func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec(2, 2)); err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("Submit with failing quorum = %v, want quorum error", err)
	}
	list := m.List()
	if len(list) != 1 {
		t.Fatalf("store holds %d jobs after rejected submit, want the 1 annulled job", len(list))
	}
	id := list[0].ID
	final := waitTerminal(t, m, id)
	if final.State != StateCanceled {
		t.Fatalf("annulled job state %s (%s), want canceled", final.State, final.Error)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// The annulment is durable: a restart must not resurrect and run it.
	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j, err := m2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateCanceled {
		t.Fatalf("reopened annulled job state %s, want canceled", j.State)
	}
}

// TestFollowerTruncatesConflictingSuffix is the jobs-store half of the
// log-safety repair: a follower holding a suffix from a dead leader's
// reign refuses records whose PrevTerm disagrees with its tip, physically
// truncates the conflict away, and rebuilds to the surviving prefix — then
// accepts the new reign's history and converges on it bit for bit.
func TestFollowerTruncatesConflictingSuffix(t *testing.T) {
	// Two detached leaders produce two term-stamped histories.
	shipA := &captureReplicator{term: 1}
	leaderA, err := Open(Config{Dir: t.TempDir(), Replicator: shipA, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobA, err := leaderA.Submit(testSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, leaderA, jobA.ID)
	leaderA.Close()
	recsA := shipA.records()

	shipB := &captureReplicator{term: 2}
	leaderB, err := Open(Config{Dir: t.TempDir(), Replicator: shipB, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := leaderB.Submit(testSpec(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	finalB := waitTerminal(t, leaderB, jobB.ID)
	leaderB.Close()
	recsB := shipB.records()

	dir := t.TempDir()
	follower, err := Open(Config{Dir: dir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	// Apply reign A in full, threading the prev-term chain.
	prev := uint64(0)
	for _, rec := range recsA {
		if _, _, err := follower.ApplyReplicated(rec.seq, prev, rec.payload, RecordCRC(rec.payload)); err != nil {
			t.Fatalf("apply A seq %d: %v", rec.seq, err)
		}
		prev = 1
	}
	seq, term := follower.ReplState()
	if seq != uint64(len(recsA)) || term != 1 {
		t.Fatalf("follower tip (%d, %d), want (%d, 1)", seq, term, len(recsA))
	}

	// A record whose PrevTerm names a different reign at the tip is a
	// conflict, not a gap: it must be refused without touching the WAL.
	if _, _, err := follower.ApplyReplicated(seq+1, 2, recsB[0].payload, RecordCRC(recsB[0].payload)); !errors.Is(err, ErrReplicaConflict) {
		t.Fatalf("conflicting PrevTerm error = %v, want ErrReplicaConflict", err)
	}

	// Partial truncation: drop the last two records and re-apply them.
	keep := seq - 2
	gotSeq, gotTerm, err := follower.TruncateReplicated(keep)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != keep || gotTerm != 1 {
		t.Fatalf("truncated tip (%d, %d), want (%d, 1)", gotSeq, gotTerm, keep)
	}
	for _, rec := range recsA[keep:] {
		if _, _, err := follower.ApplyReplicated(rec.seq, 1, rec.payload, RecordCRC(rec.payload)); err != nil {
			t.Fatalf("re-apply A seq %d: %v", rec.seq, err)
		}
	}

	// Full truncation, then reign B's history replaces reign A's.
	if _, _, err := follower.TruncateReplicated(0); err != nil {
		t.Fatal(err)
	}
	if got := follower.ReplSeq(); got != 0 {
		t.Fatalf("fully truncated follower at seq %d", got)
	}
	prev = 0
	for _, rec := range recsB {
		if _, _, err := follower.ApplyReplicated(rec.seq, prev, rec.payload, RecordCRC(rec.payload)); err != nil {
			t.Fatalf("apply B seq %d: %v", rec.seq, err)
		}
		prev = 2
	}
	got, err := follower.Get(jobB.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Result == nil {
		t.Fatalf("follower job after truncate+reapply: %+v", got)
	}
	if !reflect.DeepEqual(stripElapsed(*got.Result), stripElapsed(*finalB.Result)) {
		t.Fatalf("follower result %+v != reign-B result %+v", got.Result, finalB.Result)
	}
	if follower.Stats().Truncations != 2 {
		t.Fatalf("follower counted %d truncations, want 2", follower.Stats().Truncations)
	}

	// The truncation is physical: a restart over the same directory
	// replays to reign B's tip, not reign A's.
	seqB, termB := follower.ReplState()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(Config{Dir: dir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if s, tm := reopened.ReplState(); s != seqB || tm != termB {
		t.Fatalf("reopened tip (%d, %d), want (%d, %d)", s, tm, seqB, termB)
	}
}

// TestDemoteInterruptsAndPromoteResumes: demotion stops the runner pool
// mid-job (durably running, like a crash) and re-promotion resumes from
// the last durable checkpoint with a bit-identical result.
func TestDemoteInterruptsAndPromoteResumes(t *testing.T) {
	spec := testSpec(8, 2)
	want := stripElapsed(baseline(t, spec))

	// The second slice holds until the demotion cancels it, so the demote
	// always lands mid-run, never after the job finished.
	var held atomic.Bool
	run := func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
		if opts.FirstSample > 0 && held.CompareAndSwap(false, true) {
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		}
		return sim.LocalRunner()(ctx, mode, opts)
	}
	m, err := Open(Config{Dir: t.TempDir(), Runners: 1, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first durable checkpoint, then demote mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := m.Get(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.Completed >= 2 || j.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never checkpointed")
		}
		time.Sleep(time.Millisecond)
	}
	m.Demote()
	if m.Active() {
		t.Fatal("store active after demote")
	}
	j, err := m.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateRunning {
		t.Fatalf("demoted mid-run job state %s, want running", j.State)
	}
	if err := m.Promote(); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, job.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job state %s: %s", final.State, final.Error)
	}
	if final.Resumes < 1 {
		t.Errorf("resumed job reports %d resumes", final.Resumes)
	}
	if got := stripElapsed(*final.Result); !reflect.DeepEqual(got, want) {
		t.Fatalf("result after demote/promote diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplicatedStreamIsReplayableJSON guards the wire contract: every
// shipped payload is exactly one walRecord JSON document.
func TestReplicatedStreamIsReplayableJSON(t *testing.T) {
	ship := &captureReplicator{term: 3}
	m, err := Open(Config{Dir: t.TempDir(), Replicator: ship, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	job, err := m.Submit(testSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, job.ID)
	for i, rec := range ship.records() {
		var wr walRecord
		if err := json.Unmarshal(rec.payload, &wr); err != nil {
			t.Fatalf("shipped record %d is not a walRecord: %v", i, err)
		}
		if wr.Type == "" {
			t.Fatalf("shipped record %d has no type", i)
		}
		if rec.seq != uint64(i)+1 {
			t.Fatalf("shipped record %d has seq %d", i, rec.seq)
		}
		if wr.RTerm != 3 {
			t.Fatalf("shipped record %d stamped with term %d, want the leader's term 3", i, wr.RTerm)
		}
	}
}
