package jobs

import (
	"encoding/json"
	"testing"

	"yap/internal/sim"
)

// checkpointPayload builds a representative checkpoint record — the
// dominant write on the hot path (one per CheckpointEvery samples).
func checkpointPayload(b *testing.B) []byte {
	b.Helper()
	c := sim.Counts{Dies: 148000, OverlayPass: 147200, DefectPass: 146950, RecessPass: 147990, Survived: 146300}
	payload, err := json.Marshal(walRecord{Type: recCheckpoint, ID: "job-000042", Completed: 1000, Counts: &c})
	if err != nil {
		b.Fatal(err)
	}
	return payload
}

// BenchmarkJobsCheckpointWrite measures one durable checkpoint append —
// frame, CRC, write, fsync. This bounds how small CheckpointEvery can be
// pushed before durability dominates simulation.
func BenchmarkJobsCheckpointWrite(b *testing.B) {
	w, err := openWAL(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := checkpointPayload(b)
	b.SetBytes(int64(walHeaderSize + len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJobsWALReplay measures recovery cost: replaying a 1000-record
// log (frame parse + CRC verify per record), the fixed price every Open
// pays before the daemon can serve.
func BenchmarkJobsWALReplay(b *testing.B) {
	dir := b.TempDir()
	w, err := openWAL(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	payload := checkpointPayload(b)
	for i := 0; i < 1000; i++ {
		if err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()
	b.SetBytes(int64(1000 * (walHeaderSize + len(payload))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records, _, truncated, err := readLog(dir)
		if err != nil || truncated || len(records) != 1000 {
			b.Fatalf("replay: %d records truncated=%v err=%v", len(records), truncated, err)
		}
	}
}
