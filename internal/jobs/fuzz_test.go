package jobs

import (
	"bytes"
	"testing"
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
