// Package jobs is the durable asynchronous Monte-Carlo job subsystem: a
// write-ahead log plus snapshot store persists job specs, state
// transitions and periodic raw-tally checkpoints, and a bounded runner
// pool executes jobs in checkpoint-sized slices of the global sample
// index space. Because every sample draws from its own (seed, global
// index) stream and sim.Merge folds integer tallies exactly, a job that
// is interrupted at any durable checkpoint — daemon crash, SIGKILL,
// graceful restart — resumes from its last checkpointed index and
// finishes with a Result bit-identical (Elapsed excluded, as everywhere
// in the repo's merge contract) to an uninterrupted single-process run.
//
// Durability layout (one directory per Manager):
//
//	jobs.log   one append-only file of length-prefixed, CRC-32-checked,
//	           fsync'd records
//	jobs.snap  atomic-rename JSON snapshot of every live job + ID counter
//	jobs.seq   the replication (sequence, term) the log's first record
//	           follows
//
// Compaction is the only writer of jobs.snap: it writes the snapshot,
// then empties the log, then records the new base in jobs.seq, so a
// snapshot never covers records above the base except in the crash window
// between its first two steps, which recovery recognises. Recovery folds
// the log over the snapshot (record application is idempotent and
// monotone, so replaying records the snapshot already covers is
// harmless), truncates a corrupt or torn tail instead of failing,
// compacts, and re-enqueues every non-terminal job. A directory written
// in the older segmented layout (jobs.wal, jobs-NNNNNN.wal) is migrated
// into jobs.log once, at Open. The package sits in the yaplint
// determinism tree: nothing in the replayed path reads the wall clock —
// timestamps are telemetry carried in records, produced by the injected
// Clock at append time.
//
// The same record stream doubles as the replication feed of
// internal/replica: Config.Replicator observes every durable append on a
// leader, and ApplyReplicated lands the identical bytes in a follower's
// log, so replicated state machines stay bit-identical.
package jobs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	logName  = "jobs.log"
	snapName = "jobs.snap"
	// baseSeqName persists the replication sequence number at the last log
	// reset: every record currently in the log carries base+1, base+2, …
	// in append order.
	baseSeqName = "jobs.seq"

	// MaxRecordBytes bounds one WAL record. Records are small JSON blobs
	// (a spec with its embedded parameter sets is the largest); anything
	// beyond this is refused at append and treated as corruption at replay.
	MaxRecordBytes = 4 << 20

	// compactBytes is the log size past which the GC pass and follower
	// compaction fold the log into the snapshot.
	compactBytes = 16 << 20
)

// walHeaderSize is the per-record framing: uint32 payload length plus
// uint32 CRC-32 (IEEE) of the payload, both little-endian.
const walHeaderSize = 8

// RecordCRC is the checksum shipped alongside a replicated record so a
// follower can reject bytes mangled in transit before they reach its own
// durable log — the same CRC-32 (IEEE) the on-disk framing uses.
func RecordCRC(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// wal is the append side of the log: every Append writes one framed
// record and fsyncs before returning, so a record that Append reported
// durable survives a crash immediately after.
type wal struct {
	path string

	mu   sync.Mutex
	f    *os.File //yaplint:guardedby mu
	size int64    //yaplint:guardedby mu
}

// openWAL opens the log in dir for appending at off — the end of the last
// intact record readLog found — truncating the file there, so a torn tail
// is physically discarded before new records land after it.
func openWAL(dir string, off int64) (*wal, error) {
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open wal: %w", err)
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: truncate wal tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: seek wal: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{path: path, f: f, size: off}, nil
}

// recordTooLargeError refuses a record over MaxRecordBytes.
type recordTooLargeError struct{ size int }

func (e recordTooLargeError) Error() string {
	return fmt.Sprintf("jobs: wal record of %d bytes exceeds the %d-byte bound", e.size, MaxRecordBytes)
}

// Append durably writes one record: frame + payload in a single write,
// then fsync. An error leaves the caller free to retry or to fail the
// operation the record was logging; a torn write from a crash mid-call is
// healed by replay truncation at the next open.
func (w *wal) Append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("jobs: empty wal record")
	}
	if len(payload) > MaxRecordBytes {
		return recordTooLargeError{len(payload)}
	}
	buf := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[walHeaderSize:], payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("jobs: append wal record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("jobs: fsync wal: %w", err)
	}
	w.size += int64(len(buf))
	return nil
}

// Size reports the log's length in bytes — the quantity size-triggered
// compaction thresholds against.
func (w *wal) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// TruncateTail physically discards every record after the first keep, at
// a record frame, and fsyncs: a crash leaves either the old log or the
// shortened one. keep == 0 is compaction's reset of the log; keep > 0 is
// the follower side of replication conflict repair, where a new leader's
// history overrides a suffix this store appended under a deposed one.
// Appending resumes at the cut.
func (w *wal) TruncateTail(keep int) error {
	if keep < 0 {
		return errors.New("jobs: negative wal truncation")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var off int64
	if keep > 0 {
		data, err := os.ReadFile(w.path)
		if err != nil {
			return fmt.Errorf("jobs: read wal for truncation: %w", err)
		}
		records, _, _ := replaySegment(data)
		if keep > len(records) {
			return fmt.Errorf("jobs: wal truncation keeps %d records but the log holds %d", keep, len(records))
		}
		for _, rec := range records[:keep] {
			off += walHeaderSize + int64(len(rec))
		}
	}
	if err := w.f.Truncate(off); err != nil {
		return fmt.Errorf("jobs: truncate wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("jobs: fsync truncated wal: %w", err)
	}
	if _, err := w.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("jobs: seek truncated wal: %w", err)
	}
	w.size = off
	return nil
}

func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// readLog reads every intact record of the log in dir in append order. It
// never fails on corruption: a record whose frame is torn (crash
// mid-write), whose length is insane, or whose CRC disagrees ends the
// replay there, off is the offset just past the last intact record, and
// truncated reports that bytes after it were dropped. Pass off to openWAL
// so the tail is physically removed. A missing log is empty.
func readLog(dir string) (records [][]byte, off int64, truncated bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("jobs: read wal: %w", err)
	}
	records, off, truncated = replaySegment(data)
	return records, off, truncated, nil
}

// replaySegment is the one frame walker: every recovery, truncation and
// migration reads the log through it. It returns the intact records, the
// offset past the last one, and whether trailing bytes were dropped.
func replaySegment(data []byte) (records [][]byte, cleanOffset int64, truncated bool) {
	off := 0
	for off+walHeaderSize <= len(data) {
		n := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > MaxRecordBytes || off+walHeaderSize+int(n) > len(data) {
			break
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		records = append(records, payload)
		off += walHeaderSize + int(n)
	}
	return records, int64(off), off < len(data)
}

// migrateLog moves a log written in the older segmented layout into
// jobs.log. That layout kept a single jobs.wal, later numbered
// jobs-NNNNNN.wal segments, and replayed jobs.wal first, then the segments
// by number, up to the first corrupt frame. migrateLog writes exactly
// those intact records, in that order, with writeFileAtomic: its rename is
// the commit point, so old files found beside jobs.log are leftovers of a
// finished migration and are only removed. It reports whether bytes past
// a corrupt frame were dropped.
func migrateLog(dir string) (truncated bool, err error) {
	old, err := oldLogFiles(dir)
	if err != nil || len(old) == 0 {
		return false, err
	}
	switch _, err := os.Stat(filepath.Join(dir, logName)); {
	case errors.Is(err, fs.ErrNotExist):
		var intact []byte
		for _, path := range old {
			data, err := os.ReadFile(path)
			if err != nil {
				return false, fmt.Errorf("jobs: read old wal: %w", err)
			}
			_, off, torn := replaySegment(data)
			intact = append(intact, data[:off]...)
			if torn {
				truncated = true
				break
			}
		}
		if err := writeFileAtomic(filepath.Join(dir, logName), intact); err != nil {
			return false, err
		}
	case err != nil:
		return false, fmt.Errorf("jobs: stat wal: %w", err)
	}
	for _, path := range old {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return false, fmt.Errorf("jobs: remove migrated wal: %w", err)
		}
	}
	return truncated, syncDir(dir)
}

// oldLogFiles lists the segmented layout's log files in dir in its replay
// order: jobs.wal, then jobs-NNNNNN.wal by number.
func oldLogFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: list dir: %w", err)
	}
	var files []string
	type numbered struct {
		n    uint64
		path string
	}
	var segs []numbered
	for _, e := range entries {
		name := e.Name()
		if name == "jobs.wal" {
			files = append(files, filepath.Join(dir, name))
			continue
		}
		digits, pre := strings.CutPrefix(name, "jobs-")
		digits, suf := strings.CutSuffix(digits, ".wal")
		if n, err := strconv.ParseUint(digits, 10, 64); pre && suf && err == nil {
			segs = append(segs, numbered{n, filepath.Join(dir, name)})
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].n < segs[b].n })
	for _, s := range segs {
		files = append(files, s.path)
	}
	return files, nil
}

// readBaseSeq loads the WAL base sequence and the term of the record at
// it; a missing or unreadable file is base 0 (pre-replication stores),
// and a file from before term tracking reports term 0.
func readBaseSeq(dir string) (seq, term uint64) {
	data, err := os.ReadFile(filepath.Join(dir, baseSeqName))
	if err != nil {
		return 0, 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0, 0
	}
	seq, err = strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return 0, 0
	}
	if len(fields) > 1 {
		term, _ = strconv.ParseUint(fields[1], 10, 64) //nolint:errcheck // malformed term reads as 0, like a pre-term file
	}
	return seq, term
}

// writeBaseSeq durably records the WAL base sequence and the term of the
// record at it after a reset, atomically, so (seq, term) are always
// internally consistent whatever crash window they are read back from.
func writeBaseSeq(dir string, seq, term uint64) error {
	content := strconv.FormatUint(seq, 10) + " " + strconv.FormatUint(term, 10) + "\n"
	return writeFileAtomic(filepath.Join(dir, baseSeqName), []byte(content))
}

// writeFileAtomic writes data to path via a temp file in the same
// directory, fsyncs the file, renames it into place and fsyncs the
// directory — the file either fully exists or the old one survives.
func writeFileAtomic(path string, data []byte) error {
	dir, name := filepath.Dir(path), filepath.Base(path)
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("jobs: create %s temp: %w", name, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("jobs: write %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobs: fsync %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobs: close %s temp: %w", name, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("jobs: rename %s into place: %w", name, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed or just-created entry is
// durable. Filesystems that refuse to fsync a directory are tolerated —
// the data files themselves are already synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("jobs: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("jobs: fsync dir: %w", err)
	}
	return nil
}
