package jobs

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"yap/internal/core"
	"yap/internal/sim"
)

// testdata/legacy-sweep holds, byte for byte, what a build that still ran
// parameter-sweep jobs wrote for one store under a term-1 reign: its
// record stream (records.jsonl, one record per line, the reign's no-op
// first) and the snapshot that build compacted the same records into
// (jobs.snap). The store holds:
//
//	job-000001  sweep, done (eval w2w, 2 points)
//	job-000002  w2w simulate testSpec(4, 2), running, checkpointed at 2
//	job-000003  sweep, running, checkpointed at point 1 of 2
//	job-000004  sweep, pending (priority 3)
const legacyDir = "testdata/legacy-sweep"

var legacySweepIDs = []string{"job-000001", "job-000003", "job-000004"}

const legacySimulateID = "job-000002"

func legacyRecords(t testing.TB) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(legacyDir, "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// sliceSpy is a SliceRunner that records the first sample of every slice
// it runs before running it in process.
type sliceSpy struct {
	mu    sync.Mutex
	first []int
}

func (s *sliceSpy) run(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
	s.mu.Lock()
	s.first = append(s.first, opts.FirstSample)
	s.mu.Unlock()
	return sim.LocalRunner()(ctx, mode, opts)
}

// checkLegacySweepsFailed: every sweep job reads failed, names the batch
// endpoint, and carries neither progress nor a result.
func checkLegacySweepsFailed(t *testing.T, m *Manager, when string) {
	t.Helper()
	for _, id := range legacySweepIDs {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("%s: %s: %v", when, id, err)
		}
		if j.State != StateFailed || !strings.Contains(j.Error, "/v1/evaluate/batch") || j.Result != nil || j.Completed != 0 {
			t.Errorf("%s: sweep job %s reads %s, completed %d, result %v, error %q; want failed naming /v1/evaluate/batch",
				when, id, j.State, j.Completed, j.Result != nil, j.Error)
		}
	}
}

// checkLegacyRun: the simulate job resumed once from its checkpoint and
// finished bit-identical to an uninterrupted run, and the only slice any
// job ran is its remaining one — nothing ran a sweep job.
func checkLegacyRun(t *testing.T, m *Manager, spy *sliceSpy) {
	t.Helper()
	j := waitTerminal(t, m, legacySimulateID)
	want := stripElapsed(baseline(t, testSpec(4, 2)))
	if j.State != StateDone || j.Result == nil {
		t.Fatalf("simulate job %s (error %q), want done", j.State, j.Error)
	}
	if got := stripElapsed(*j.Result); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed simulate result differs from an uninterrupted run:\n got %+v\nwant %+v", got, want)
	}
	if j.Resumes != 1 {
		t.Errorf("simulate job resumes %d, want 1", j.Resumes)
	}
	spy.mu.Lock()
	defer spy.mu.Unlock()
	if !reflect.DeepEqual(spy.first, []int{2}) {
		t.Errorf("slices ran from samples %v, want only the simulate job's [2]", spy.first)
	}
}

// TestLegacySweepJobsReadFailed: a store or a replicated record stream
// written by a build that ran sweep jobs still opens. Every sweep job in
// it reads failed, never runs and never folds into a result — on a leader
// over the log or the snapshot, and on a follower fed the records through
// ApplyReplicated, before and after Promote — while the simulate job
// beside them resumes and finishes bit-identical.
func TestLegacySweepJobsReadFailed(t *testing.T) {
	recs := legacyRecords(t)
	if len(recs) != 13 {
		t.Fatalf("%d legacy records, want 13", len(recs))
	}
	snap, err := os.ReadFile(filepath.Join(legacyDir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []struct {
		name  string
		build func(t *testing.T, dir string)
	}{
		{"log", func(t *testing.T, dir string) {
			writeFile(t, filepath.Join(dir, logName), frames(recs...))
		}},
		{"snapshot", func(t *testing.T, dir string) {
			writeFile(t, filepath.Join(dir, snapName), snap)
			if err := writeBaseSeq(dir, uint64(len(recs)), 1); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(store.name, func(t *testing.T) {
			dir := t.TempDir()
			store.build(t, dir)
			spy := &sliceSpy{}
			m, err := Open(Config{Dir: dir, Run: spy.run})
			if err != nil {
				t.Fatal(err)
			}
			checkLegacySweepsFailed(t, m, "leader")
			checkLegacyRun(t, m, spy)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			// The failures are durable: a restart reads them back, each
			// with the finish time the TTL collector keys on.
			m2, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			checkLegacySweepsFailed(t, m2, "restarted")
			for _, id := range legacySweepIDs {
				if j, _ := m2.Get(id); j.FinishedAt.IsZero() {
					t.Errorf("restarted: sweep job %s has no finish time", id)
				}
			}
		})
	}
	t.Run("follower", func(t *testing.T) {
		spy := &sliceSpy{}
		m, err := Open(Config{Dir: t.TempDir(), Follower: true, Run: spy.run})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		applyAll(t, m, 1, recs)
		checkLegacySweepsFailed(t, m, "follower")
		if err := m.Promote(); err != nil {
			t.Fatal(err)
		}
		checkLegacySweepsFailed(t, m, "promoted")
		checkLegacyRun(t, m, spy)
	})
}

// TestSweepSpecValidation: the store refuses a sweep spec as invalid and
// logs nothing for it.
func TestSweepSpecValidation(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seq, term := m.ReplState()
	if _, err := m.Submit(Spec{Mode: "sweep", Params: core.Baseline(), Samples: 1}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("sweep spec: %v, want ErrInvalidSpec", err)
	}
	if s, tm := m.ReplState(); s != seq || tm != term {
		t.Errorf("refused sweep moved the log tip (%d, %d) -> (%d, %d)", seq, term, s, tm)
	}
}
