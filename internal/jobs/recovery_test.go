package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"yap/internal/sim"
)

// reignRecords runs a term-1 leader through the given jobs, one after
// another, and returns the exact record stream it appended: the reign's
// no-op, then per job its submit, running, checkpoint and done records.
func reignRecords(t *testing.T, specs ...Spec) [][]byte {
	t.Helper()
	ship := &captureReplicator{term: 1}
	leader, err := Open(Config{Dir: t.TempDir(), Replicator: ship})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		job, err := leader.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, leader, job.ID); final.State != StateDone {
			t.Fatalf("reign job %s: %s (%s)", job.ID, final.State, final.Error)
		}
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, rec := range ship.records() {
		out = append(out, rec.payload)
	}
	return out
}

// applyAll feeds records to a follower store as sequence numbers
// first, first+1, …, all of the term-1 reign.
func applyAll(t *testing.T, m *Manager, first uint64, recs [][]byte) {
	t.Helper()
	for i, p := range recs {
		seq, prev := first+uint64(i), uint64(1)
		if seq == 1 {
			prev = 0
		}
		if _, _, err := m.ApplyReplicated(seq, prev, p, RecordCRC(p)); err != nil {
			t.Fatalf("apply seq %d: %v", seq, err)
		}
	}
}

// storeState is what every crash-window case must agree on: the log tip
// and the job set with each job's durable progress.
type storeState struct {
	Seq, Term uint64
	Jobs      []jobSummary
}

type jobSummary struct {
	ID        string
	State     State
	Completed int
	Counts    sim.Counts
	Result    *sim.Result
}

func stateOf(m *Manager) storeState {
	seq, term := m.ReplState()
	st := storeState{Seq: seq, Term: term}
	for _, j := range m.List() {
		s := jobSummary{ID: j.ID, State: j.State, Completed: j.Completed, Counts: j.Counts}
		if j.Result != nil {
			r := stripElapsed(*j.Result)
			s.Result = &r
		}
		st.Jobs = append(st.Jobs, s)
	}
	return st
}

// uninterrupted is the reference: a follower that applied recs and was
// never restarted.
func uninterrupted(t *testing.T, recs [][]byte) storeState {
	t.Helper()
	m, err := Open(Config{Dir: t.TempDir(), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	applyAll(t, m, 1, recs)
	return stateOf(m)
}

// reopen opens dir as a follower or a standalone store and checks it
// folds to want.
func reopen(t *testing.T, dir string, follower bool, want storeState) *Manager {
	t.Helper()
	m, err := Open(Config{Dir: dir, Follower: follower})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if got := stateOf(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened (follower=%v):\n got %+v\nwant %+v", follower, got, want)
	}
	return m
}

// TestRestartedFollowerTruncatesDeadReign: a follower that applied a
// reign's suffix, was closed and reopened, can still truncate that suffix
// away — a graceful restart must not fold records the new leader may
// override into a snapshot.
func TestRestartedFollowerTruncatesDeadReign(t *testing.T) {
	recs := reignRecords(t, testSpec(4, 2))
	if len(recs) != 6 {
		t.Fatalf("reign appended %d records, want 6", len(recs))
	}
	dir := t.TempDir()
	f, err := Open(Config{Dir: dir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, f, 1, recs)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f, err = Open(Config{Dir: dir, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if s, tm := f.ReplState(); s != 6 || tm != 1 {
		t.Fatalf("restarted follower tip (%d, %d), want (6, 1)", s, tm)
	}
	s, tm, err := f.TruncateReplicated(0)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 || tm != 0 {
		t.Fatalf("truncated tip (%d, %d), want (0, 0)", s, tm)
	}
	if _, err := f.Get("job-000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("truncated job still served: %v", err)
	}
}

// TestCrashWindowSnapshotBeforeLogReset is compaction cut between its
// snapshot and its log reset: the snapshot covers every record the log
// holds. The store reopens to the same tip and jobs, and a follower
// refuses to truncate into records the snapshot already folded.
func TestCrashWindowSnapshotBeforeLogReset(t *testing.T) {
	recs := reignRecords(t, testSpec(4, 2), testSpec(4, 2))
	const k = 6 // the first job's records
	build := func(t *testing.T) string {
		dir := t.TempDir()
		m, err := Open(Config{Dir: dir, Follower: true})
		if err != nil {
			t.Fatal(err)
		}
		applyAll(t, m, 1, recs[:k])
		m.mu.Lock()
		err = m.writeSnapshotLocked()
		m.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	want := uninterrupted(t, recs[:k])

	reopen(t, build(t), false, want)

	dir := build(t)
	f := reopen(t, dir, true, want)
	if _, _, err := f.TruncateReplicated(3); !errors.Is(err, ErrNeedsResync) {
		t.Fatalf("truncation below the snapshot: %v, want ErrNeedsResync", err)
	}
	if got := stateOf(f); !reflect.DeepEqual(got, want) {
		t.Fatalf("refused truncation changed the store:\n got %+v\nwant %+v", got, want)
	}
	applyAll(t, f, k+1, recs[k:])
	f.Close()
	reopen(t, dir, true, uninterrupted(t, recs))
}

// TestCrashWindowLogResetBeforeBase is compaction cut between its log
// reset and its base write: the log is empty and jobs.seq still names the
// old base. Records a follower appends afterwards must keep their
// sequence numbers across the next restart.
func TestCrashWindowLogResetBeforeBase(t *testing.T) {
	recs := reignRecords(t, testSpec(4, 2), testSpec(4, 2))
	const k = 6
	build := func(t *testing.T) string {
		dir := t.TempDir()
		m, err := Open(Config{Dir: dir, Follower: true})
		if err != nil {
			t.Fatal(err)
		}
		applyAll(t, m, 1, recs[:k])
		m.mu.Lock()
		err = m.writeSnapshotLocked()
		if err == nil {
			err = m.wal.TruncateTail(0)
		}
		m.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	want := uninterrupted(t, recs[:k])

	reopen(t, build(t), false, want)

	dir := build(t)
	f := reopen(t, dir, true, want)
	applyAll(t, f, k+1, recs[k:])
	f.Close()
	reopen(t, dir, true, uninterrupted(t, recs))
}

// TestMigratesOldLayout: directories in the older segmented layout
// (jobs.wal, then jobs-NNNNNN.wal) open to exactly the records that
// layout replayed — every intact record up to the first corrupt frame —
// as standalone and as follower stores, and leave only jobs.log behind.
func TestMigratesOldLayout(t *testing.T) {
	recs := reignRecords(t, testSpec(4, 2), testSpec(4, 2))
	if len(recs) != 11 {
		t.Fatalf("reign appended %d records, want 11", len(recs))
	}
	corrupt := frames(recs[6])
	corrupt[len(corrupt)-2] ^= 0xff
	torn := frames(recs[0])[:5]
	cases := []struct {
		name  string
		files map[string][]byte
		kept  int // records the older layout replayed
	}{
		{"torn last segment", map[string][]byte{
			"jobs.wal":        frames(recs[:4]...),
			"jobs-000001.wal": frames(recs[4:8]...),
			"jobs-000002.wal": append(frames(recs[8:]...), torn...),
		}, 11},
		{"corrupt middle segment", map[string][]byte{
			"jobs.wal":        frames(recs[:4]...),
			"jobs-000001.wal": append(append(frames(recs[4:6]...), corrupt...), frames(recs[7])...),
			"jobs-000002.wal": frames(recs[8:]...),
		}, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := uninterrupted(t, recs[:tc.kept])
			for _, follower := range []bool{false, true} {
				dir := t.TempDir()
				for name, data := range tc.files {
					writeFile(t, filepath.Join(dir, name), data)
				}
				m := reopen(t, dir, follower, want)
				if m.Stats().WALTruncated != 1 {
					t.Errorf("dropped bytes not counted as a truncation")
				}
				assertOnlyLog(t, dir)
			}
		})
	}
}

// TestMigrationLeftoversRemoved: jobs.log beside files of the older
// layout means the migration committed and crashed before removing them.
// They are removed and not replayed a second time.
func TestMigrationLeftoversRemoved(t *testing.T) {
	recs := reignRecords(t, testSpec(4, 2), testSpec(4, 2))
	want := uninterrupted(t, recs)
	for _, follower := range []bool{false, true} {
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, logName), frames(recs...))
		writeFile(t, filepath.Join(dir, "jobs.wal"), frames(recs[:4]...))
		writeFile(t, filepath.Join(dir, "jobs-000001.wal"), frames(recs[4:]...))
		reopen(t, dir, follower, want)
		assertOnlyLog(t, dir)
		if follower {
			if _, err := os.Stat(filepath.Join(dir, snapName)); err == nil {
				t.Error("follower wrote a snapshot at Open")
			}
		}
	}
}
