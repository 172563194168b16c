package jobs

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frames encodes payloads in the on-disk record framing.
func frames(payloads ...[]byte) []byte {
	var buf bytes.Buffer
	for _, p := range payloads {
		var hdr [walHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], RecordCRC(p))
		buf.Write(hdr[:])
		buf.Write(p)
	}
	return buf.Bytes()
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// payloads returns n distinct test records.
func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = bytes.Repeat([]byte{byte('a' + i)}, 16+i)
	}
	return out
}

// assertOnlyLog fails unless dir holds jobs.log and none of the older
// layout's files.
func assertOnlyLog(t *testing.T, dir string) {
	t.Helper()
	old, err := oldLogFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 0 {
		t.Errorf("old wal files left behind: %v", old)
	}
	if _, err := os.Stat(filepath.Join(dir, logName)); err != nil {
		t.Errorf("no %s after migration: %v", logName, err)
	}
}

func TestWALAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte(`{"t":"submit"}`), []byte(`{"t":"state"}`), bytes.Repeat([]byte("x"), 4096)}
	for _, p := range want {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, off, truncated, err := readLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("clean log reported truncated")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d records, want %d identical ones", len(got), len(want))
	}
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if off != fi.Size() {
		t.Errorf("clean offset %d != file size %d", off, fi.Size())
	}
}

func TestWALReplayMissingDirIsEmpty(t *testing.T) {
	recs, off, truncated, err := readLog(filepath.Join(t.TempDir(), "nonexistent"))
	if err != nil || len(recs) != 0 || off != 0 || truncated {
		t.Fatalf("missing dir: recs=%d off=%d truncated=%v err=%v", len(recs), off, truncated, err)
	}
}

// TestWALLegacySingleFileReplay covers stores written before segment
// rotation: a bare jobs.wal migrates into jobs.log, keeps accepting
// appends after its records, and is removed.
func TestWALLegacySingleFileReplay(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "jobs.wal"), frames([]byte("old-one"), []byte("old-two")))
	if truncated, err := migrateLog(dir); err != nil || truncated {
		t.Fatalf("legacy migration: truncated=%v err=%v", truncated, err)
	}
	assertOnlyLog(t, dir)
	recs, off, truncated, err := readLog(dir)
	if err != nil || truncated || len(recs) != 2 {
		t.Fatalf("legacy replay: %d records truncated=%v err=%v", len(recs), truncated, err)
	}
	w, err := openWAL(dir, off)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("new-three")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, _, _, err = readLog(dir)
	want := [][]byte{[]byte("old-one"), []byte("old-two"), []byte("new-three")}
	if err != nil || !reflect.DeepEqual(recs, want) {
		t.Fatalf("legacy+append replay: %q err=%v", recs, err)
	}
}

// TestWALMigratesSegmentsInOrder is the older layout's replay order: the
// single jobs.wal first, then the numbered segments by number (not by
// name: jobs-1000000.wal follows jobs-999999.wal), each record once. A
// torn frame at the end of the last segment is dropped and reported.
func TestWALMigratesSegmentsInOrder(t *testing.T) {
	dir := t.TempDir()
	p := payloads(7)
	writeFile(t, filepath.Join(dir, "jobs.wal"), frames(p[0], p[1]))
	writeFile(t, filepath.Join(dir, "jobs-000001.wal"), frames(p[2], p[3]))
	writeFile(t, filepath.Join(dir, "jobs-999999.wal"), frames(p[4]))
	torn := frames(p[6])
	writeFile(t, filepath.Join(dir, "jobs-1000000.wal"), append(frames(p[5]), torn[:len(torn)-3]...))
	truncated, err := migrateLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Error("torn last segment not reported")
	}
	assertOnlyLog(t, dir)
	recs, _, truncated, err := readLog(dir)
	if err != nil || truncated {
		t.Fatalf("migrated replay: truncated=%v err=%v", truncated, err)
	}
	if !reflect.DeepEqual(recs, p[:6]) {
		t.Fatalf("migrated %d records, want the 6 intact ones in segment order", len(recs))
	}
}

// TestWALCorruptionDiscardsLaterSegments checks the ordering rule the
// migration keeps: a corrupt record in an earlier segment invalidates
// everything after it, including whole later segments.
func TestWALCorruptionDiscardsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	p := payloads(6)
	writeFile(t, filepath.Join(dir, "jobs-000001.wal"), frames(p[0], p[1]))
	second := frames(p[2], p[3], p[4])
	second[2*walHeaderSize+len(p[2])+len(p[3])-1] ^= 0xff // last byte of p[3]
	writeFile(t, filepath.Join(dir, "jobs-000002.wal"), second)
	writeFile(t, filepath.Join(dir, "jobs-000003.wal"), frames(p[5]))
	truncated, err := migrateLog(dir)
	if err != nil {
		t.Fatalf("migration must not fail on corruption: %v", err)
	}
	if !truncated {
		t.Fatal("corruption not reported")
	}
	assertOnlyLog(t, dir)
	recs, off, _, err := readLog(dir)
	if err != nil || !reflect.DeepEqual(recs, p[:3]) {
		t.Fatalf("migrated %d records (err %v), want the 3 before the corruption", len(recs), err)
	}
	w, err := openWAL(dir, off)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("healed")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs2, _, truncated2, err := readLog(dir)
	if err != nil || truncated2 || len(recs2) != 4 {
		t.Fatalf("post-heal replay: %d records truncated=%v err=%v", len(recs2), truncated2, err)
	}
}

func TestWALReplayTruncatesCorruptTail(t *testing.T) {
	a, b := []byte("record-one"), []byte("record-two")
	tamper := []struct {
		name   string
		mangle func(data []byte) []byte
	}{
		{"torn frame", func(data []byte) []byte {
			return data[:len(data)-3] // cut mid-payload of the last record
		}},
		{"flipped payload byte", func(data []byte) []byte {
			data[len(data)-1] ^= 0xff // CRC mismatch on the last record
			return data
		}},
		{"insane length", func(data []byte) []byte {
			// Corrupt the second record's length field far past the bound.
			off := walHeaderSize + len(a)
			binary.LittleEndian.PutUint32(data[off:off+4], MaxRecordBytes+1)
			return data
		}},
		{"trailing garbage header", func(data []byte) []byte {
			return append(data, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5)
		}},
	}
	for _, tc := range tamper {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeFile(t, filepath.Join(dir, logName), tc.mangle(frames(a, b)))
			recs, off, truncated, err := readLog(dir)
			if err != nil {
				t.Fatalf("replay must not fail on corruption: %v", err)
			}
			if !truncated {
				t.Error("corrupt tail not reported")
			}
			if len(recs) < 1 || !bytes.Equal(recs[0], a) {
				t.Fatalf("first record lost: %d replayed", len(recs))
			}
			// Appending after reopening at the clean position must yield a
			// fully intact log again.
			w, err := openWAL(dir, off)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append([]byte("record-three")); err != nil {
				t.Fatal(err)
			}
			w.Close()
			recs2, _, truncated2, err := readLog(dir)
			if err != nil || truncated2 {
				t.Fatalf("post-heal replay: truncated=%v err=%v", truncated2, err)
			}
			if len(recs2) != len(recs)+1 {
				t.Errorf("post-heal records %d, want %d", len(recs2), len(recs)+1)
			}
		})
	}
}

func TestWALRejectsOversizedAndEmptyRecords(t *testing.T) {
	w, err := openWAL(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
	if err := w.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Error("oversized record accepted")
	}
	if err := w.Append(make([]byte, MaxRecordBytes)); err != nil {
		t.Errorf("record at the bound refused: %v", err)
	}
}

// TestWALResetEmptiesLog is compaction's log reset: TruncateTail(0)
// drops every record and appending restarts at the front of the file.
func TestWALResetEmptiesLog(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(6) {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.TruncateTail(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, _, _, err := readLog(dir)
	if err != nil || len(recs) != 1 || string(recs[0]) != "kept" {
		t.Fatalf("after reset: %q err=%v", recs, err)
	}
}

// TestWALSizeTracksLog: Size is the log's byte length through appends,
// a tail truncation and a reopen — the figure compaction triggers on.
func TestWALSizeTracksLog(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := payloads(6)
	var sizes []int64
	var total int64
	for _, rec := range p {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		total += int64(walHeaderSize + len(rec))
		sizes = append(sizes, total)
	}
	if got := w.Size(); got != total {
		t.Errorf("Size() = %d after appends, want %d", got, total)
	}
	if err := w.TruncateTail(2); err != nil {
		t.Fatal(err)
	}
	if got := w.Size(); got != sizes[1] {
		t.Errorf("Size() = %d after keeping 2 records, want %d", got, sizes[1])
	}
	if err := w.TruncateTail(3); err == nil {
		t.Error("truncation keeping more records than the log holds accepted")
	}
	w.Close()
	recs, off, _, err := readLog(dir)
	if err != nil || !reflect.DeepEqual(recs, p[:2]) {
		t.Fatalf("after truncation: %d records err=%v", len(recs), err)
	}
	w2, err := openWAL(dir, off)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Size(); got != sizes[1] {
		t.Errorf("Size() = %d after reopen, want %d", got, sizes[1])
	}
}

// TestParseSegName pins which names the migration treats as the older
// layout's log files, and their replay order.
func TestParseSegName(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"jobs-000002.wal", "jobs-000001.wal", "jobs.wal", "jobs-123456.wal",
		"jobs-.wal", "jobs-xyz.wal", "jobs-+1.wal", "000003.wal", "other-000001.wal",
		"jobs-000001.snap", logName, snapName,
	} {
		writeFile(t, filepath.Join(dir, name), nil)
	}
	got, err := oldLogFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range got {
		names = append(names, filepath.Base(path))
	}
	want := []string{"jobs.wal", "jobs-000001.wal", "jobs-000002.wal", "jobs-123456.wal"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("old log files %q, want %q", names, want)
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, snapName)
	if err := writeFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2" {
		t.Errorf("read %q, want v2", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp files left behind: %d entries", len(entries))
	}
}
