package jobs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"yap/internal/sim"
)

// FuzzReplaySegment throws arbitrary bytes at the WAL frame walker — the
// code every recovery and every replicated follower store trusts with
// on-disk and on-wire input. Whatever the input, the walker must not
// panic, must return records that re-frame to a clean prefix of the
// input, and must report truncation exactly when bytes were dropped.
func FuzzReplaySegment(f *testing.F) {
	f.Add([]byte{})
	f.Add(frames([]byte(`{"t":"submit","id":"job-000001"}`)))
	f.Add(frames([]byte("a"), []byte("bb"), []byte("ccc")))
	f.Add(frames([]byte("intact"))[:10]) // torn mid-record
	f.Add(append(frames([]byte("ok")), 0xde, 0xad, 0xbe, 0xef, 9, 9, 9, 9, 9))
	corrupt := frames([]byte("flip-me"))
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		records, off, truncated := replaySegment(data)
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("clean offset %d outside [0, %d]", off, len(data))
		}
		if truncated != (off < int64(len(data))) {
			t.Fatalf("truncated=%v but offset %d of %d bytes", truncated, off, len(data))
		}
		// Re-framing the recovered records must reproduce data[:off] bit
		// for bit — replay never invents or reorders records.
		reframed := frames(records...)
		if !bytes.Equal(reframed, data[:off]) {
			t.Fatalf("records do not re-frame to the clean prefix: %d records, offset %d", len(records), off)
		}
		for _, rec := range records {
			if len(rec) == 0 || len(rec) > MaxRecordBytes {
				t.Fatalf("replayed record of %d bytes escaped the frame bounds", len(rec))
			}
		}
	})
}

// FuzzApplyReplicated throws arbitrary records at a follower store's
// record decode and apply path: what reaches it from disk after an
// upgrade, or from a leader on another build during a rolling upgrade.
// Over a fixed simulate submit, applying the fuzzed record must not
// panic, and the store reopened from disk must fold to the same tip and
// the same state, progress, tallies, error and result presence for every
// job. The seeds are an older build's record stream, sweep-job submits,
// checkpoints and done records included. The store is never promoted: a
// fuzzed spec's workers × checkpoint_every could start that many
// goroutines.
func FuzzApplyReplicated(f *testing.F) {
	for _, rec := range legacyRecords(f) {
		f.Add(rec)
	}
	wire, err := specToWire(testSpec(4, 2))
	if err != nil {
		f.Fatal(err)
	}
	submit, err := json.Marshal(walRecord{Type: recSubmit, ID: "job-000001", Spec: &wire})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		m, err := Open(Config{Dir: dir, Follower: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.ApplyReplicated(1, 0, submit, RecordCRC(submit)); err != nil {
			t.Fatal(err)
		}
		m.ApplyReplicated(2, 0, payload, RecordCRC(payload)) //nolint:errcheck // a refused record is a valid outcome
		want := foldedState(m)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		m, err = Open(Config{Dir: dir, Follower: true})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if got := foldedState(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened store folds differently from the applied one:\n got %+v\nwant %+v", got, want)
		}
	})
}

// foldedJob is what FuzzApplyReplicated compares per job.
type foldedJob struct {
	ID        string
	State     State
	Completed int
	Counts    sim.Counts
	Error     string
	Result    bool
}

func foldedState(m *Manager) (out struct {
	Seq, Term uint64
	Jobs      []foldedJob
}) {
	out.Seq, out.Term = m.ReplState()
	for _, j := range m.List() {
		out.Jobs = append(out.Jobs, foldedJob{j.ID, j.State, j.Completed, j.Counts, j.Error, j.Result != nil})
	}
	return out
}
