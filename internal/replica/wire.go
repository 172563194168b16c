package replica

import "yap/internal/jobs"

// MaxMessageBytes bounds one encoded Message, and with it the body of
// POST /v1/replica: the largest record the WAL accepts, base64-encoded as
// JSON encodes Payload, plus room for the envelope's other fields and the
// sender's URL.
const MaxMessageBytes = (jobs.MaxRecordBytes+2)/3*4 + 64<<10

// Message kinds carried over POST /v1/replica. The wire surface is two
// verbs: "append" ships one durable WAL record (or, with Seq 0, a bare
// heartbeat renewing the leader's lease), and "vote" solicits a ballot
// during an election.
const (
	KindAppend = "append"
	KindVote   = "vote"
)

// Message is one replication RPC. Exactly the fields for its Kind are
// set; Payload is the leader's WAL record byte for byte, so a follower
// that accepts it appends the identical bytes the leader fsync'd —
// replica state machines stay bit-identical by construction.
type Message struct {
	Kind string `json:"kind"`
	// Term is the sender's current election term.
	Term uint64 `json:"term"`
	// From is the sender's advertised base URL; followers adopt it as the
	// leader URL on accepted appends so clients can be redirected.
	From string `json:"from"`

	// Seq is the replication sequence number of Payload; 0 marks a pure
	// heartbeat carrying no record.
	Seq uint64 `json:"seq,omitempty"`
	// CRC is the IEEE CRC32 of Payload, checked before the record touches
	// the follower's WAL.
	CRC uint32 `json:"crc,omitempty"`
	// Payload is the WAL record exactly as the leader appended it.
	Payload []byte `json:"payload,omitempty"`
	// PrevTerm is the term of the leader's record at Seq-1 — the
	// log-matching check: a follower whose record at Seq-1 carries a
	// different term holds a conflicting suffix and must truncate it
	// before this record can land.
	PrevTerm uint64 `json:"prev_term,omitempty"`
	// CommitSeq is the leader's committed sequence — the highest record a
	// quorum is known to hold. Followers may fold records at or below it
	// into their snapshot (they can never be truncated away) and must
	// never truncate below it.
	CommitSeq uint64 `json:"commit_seq,omitempty"`

	// LastSeq/LastTerm are the sender's log-tip position. On a vote
	// solicitation voters refuse candidates whose (LastTerm, LastSeq) is
	// behind their own — a stale replica can never win an election and
	// roll back acknowledged records. On a heartbeat they let a follower
	// whose log extends past the leader's detect the divergence.
	LastSeq  uint64 `json:"last_seq,omitempty"`
	LastTerm uint64 `json:"last_term,omitempty"`
}

// Reply answers one Message.
type Reply struct {
	// Term is the receiver's term after processing; a reply term above the
	// sender's deposes it.
	Term uint64 `json:"term"`
	// OK reports an append accepted (record landed, or heartbeat seen).
	OK bool `json:"ok,omitempty"`
	// Seq is the receiver's replication sequence after processing. On a
	// rejected append it tells the leader exactly where to rewind its
	// cursor; on a heartbeat it tells the leader how far behind the
	// follower is.
	Seq uint64 `json:"seq,omitempty"`
	// LastTerm is the term of the receiver's record at Seq — the other
	// half of the ack: the leader only counts an acknowledgement toward
	// quorum when (Seq, LastTerm) names a record it also holds, so a
	// diverged replica's acks can never commit bytes the leader doesn't
	// have.
	LastTerm uint64 `json:"last_term,omitempty"`
	// Granted reports a vote ballot granted.
	Granted bool `json:"granted,omitempty"`
	// Diverged reports a conflict below the receiver's compaction horizon:
	// record-by-record repair is impossible and the replica needs a full
	// resync; the leader stalls it instead of retrying.
	Diverged bool `json:"diverged,omitempty"`
	// Reason carries the rejection cause, for logs.
	Reason string `json:"reason,omitempty"`
}
