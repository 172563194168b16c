// Package replica is the replicated job control plane: a quorum of yap
// daemons holding bit-identical copies of one jobs store, with a single
// elected leader running jobs and every durable WAL record shipped to
// followers before a submit is reported accepted.
//
// The protocol is a deliberately small Raft subset shaped around the jobs
// WAL. The leader's store appends a record, fsyncs it, and hands the
// exact bytes to the node (jobs.Replicator.Ship); per-peer senders
// deliver records strictly in sequence over POST /v1/replica; followers
// CRC-check and append the identical bytes through
// jobs.Manager.ApplyReplicated, so every replica's state machine is the
// same pure function of the same byte stream. Submits block on quorum
// acknowledgement — a job the caller saw accepted exists on a majority
// and survives the leader's disk.
//
// Log safety follows Raft's core rules. Every record is stamped with the
// election term of the reign that appended it, and each shipped append
// carries the term of the record before it (PrevTerm): a follower whose
// record at that position carries a different term holds a suffix from a
// dead reign and truncates it — physically, at a WAL record boundary —
// before the new history lands, so replicas converge byte for byte after
// any sequence of failovers. A leader counts a peer's acknowledgement
// toward quorum only when the (seq, term) the peer reports names a record
// the leader also holds, and the commit point only advances once a record
// of the current term reaches a majority (the prior-term-commit rule), so
// a diverged replica's acks can never commit bytes the leader doesn't
// have. A freshly promoted leader appends a no-op record so its term has
// a log entry immediately.
//
// Elections are deterministic given a clock: a follower campaigns when
// the leader's lease lapses, at an instant staggered by its rank in the
// sorted member list (rank × heartbeat), so the healthy cluster elects
// its lowest-ranked live member without randomized timers. Ballots refuse
// candidates whose (last term, last seq) log position is behind the
// voter's — vote evaluation is serialized with record application, so the
// position a ballot is judged against can never go stale mid-grant — and
// the winner therefore holds every quorum-acknowledged record; on
// promotion it resumes unfinished jobs from their last durable checkpoint
// exactly as a restart would — the crash-resume bit-identity contract
// carries over to failover.
//
// The wall clock is read only through the node's injected clock (tests
// drive elections virtually); nothing in the record path depends on time.
package replica

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"yap/internal/faultinject"
	"yap/internal/jobs"
)

// Role is a node's position in the current term.
type Role int

const (
	RoleFollower Role = iota
	RoleCandidate
	RoleLeader
)

func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleCandidate:
		return "candidate"
	case RoleLeader:
		return "leader"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Sentinel errors.
var (
	// ErrNoQuorum reports a submit (or other quorum wait) that could not be
	// acknowledged by a majority before the quorum timeout.
	ErrNoQuorum = errors.New("replica: quorum not reached")
	// ErrClosed reports an operation on a closed node.
	ErrClosed = errors.New("replica: node closed")
	// ErrDeposed fails pending quorum waits when leadership is lost mid-wait.
	// A transient cluster condition, not a client error: the submission was
	// annulled locally and a retry against the new leader is safe.
	ErrDeposed = errors.New("replica: leadership lost")
)

// Config configures a Node.
type Config struct {
	// Dir holds the node's election state file (replica.state). Usually the
	// jobs directory; must be per-node.
	Dir string
	// Self is this node's advertised base URL — its identity in the member
	// list and the leader URL clients are redirected to.
	Self string
	// Peers are the other members' advertised base URLs. Empty peers is
	// single-node mode: the node is immediately leader, no goroutines run
	// and quorum is trivially satisfied locally.
	Peers []string
	// Transport delivers messages to peers; required when Peers is
	// non-empty. Tests inject an in-process transport.
	Transport Transport
	// Jobs configures the underlying store. Dir is required; Follower and
	// Replicator are owned by the node and overwritten.
	Jobs jobs.Config
	// Lease is how long a follower trusts the leader after the last
	// heartbeat or append (default 2s). An election is due at
	// lastBeat + Lease + rank×Heartbeat, rank being this node's index in
	// the sorted member list — a deterministic stagger instead of a
	// randomized timeout.
	Lease time.Duration
	// Heartbeat is the idle append cadence renewing the lease (default
	// Lease/8).
	Heartbeat time.Duration
	// QuorumTimeout bounds how long a submit waits for majority
	// acknowledgement (default 2×Lease). Three consecutive quorum timeouts
	// depose the leader: it cannot durably accept work, so it must stop
	// claiming to.
	QuorumTimeout time.Duration
	// Clock supplies the time for leases, staggers and quorum deadlines;
	// nil uses the wall clock. Injected by tests to drive elections
	// deterministically.
	Clock func() time.Time
	// Faults optionally arms deterministic fault injection at
	// HookReplicaShip (per shipment attempt) and HookReplicaElect (per vote
	// solicitation).
	Faults *faultinject.Injector
	// Logger receives role transitions and replication trouble; nil
	// discards.
	Logger *log.Logger
}

func (c Config) lease() time.Duration {
	if c.Lease > 0 {
		return c.Lease
	}
	return 2 * time.Second
}

func (c Config) heartbeat() time.Duration {
	if c.Heartbeat > 0 {
		return c.Heartbeat
	}
	return c.lease() / 8
}

func (c Config) quorumTimeout() time.Duration {
	if c.QuorumTimeout > 0 {
		return c.QuorumTimeout
	}
	return 2 * c.lease()
}

// maxBacklog bounds the in-memory ship backlog. A peer that falls more
// than this many records behind (or behind the WAL compaction horizon)
// is stalled: it keeps its durable state but stops receiving appends
// until operator intervention — full-state resync is future work.
const maxBacklog = 8192

// quorumStrikes is how many consecutive quorum timeouts a leader absorbs
// before deposing itself.
const quorumStrikes = 3

// entry is one backlogged record awaiting shipment. term is the election
// term the record was appended under — the identity the log-matching
// check compares, and what a peer's acknowledgement is verified against.
type entry struct {
	seq     uint64
	crc     uint32
	term    uint64
	payload []byte
}

// waiter is one blocked quorum wait.
type waiter struct {
	seq      uint64
	deadline time.Time
	ch       chan error // buffered(1); owned by WaitQuorum
}

// Stats is a point-in-time snapshot for /metrics.
type Stats struct {
	Role      Role
	Term      uint64
	LeaderURL string
	// Seq is the latest local replication sequence; CommitSeq the highest
	// sequence acknowledged by a quorum (equal to Seq on a healthy
	// cluster, and always equal in single-node mode).
	Seq       uint64
	CommitSeq uint64
	Peers     int
	// StalledPeers counts peers beyond catch-up reach.
	StalledPeers int
	// Elections counts campaigns this node started; ShipErrors failed
	// shipment attempts; VotesGranted ballots granted to others;
	// QuorumTimeouts expired quorum waits; Truncations conflicting WAL
	// suffixes this store discarded to converge on a new leader's history.
	Elections      uint64
	ShipErrors     uint64
	VotesGranted   uint64
	QuorumTimeouts uint64
	Truncations    uint64
}

// Node is one member of the replicated control plane. It owns its jobs
// store: followers' stores stay passive until this node wins an election.
//
// Lock order: n.applyMu → jobs.Manager internals → n.mu (Ship is called
// under the Manager's lock and takes n.mu; the vote/append handlers take
// applyMu before touching either). Consequently no method may call into
// the Manager while holding n.mu; handlers capture n.mu state, release,
// then touch the store.
type Node struct {
	cfg       Config
	mgr       *jobs.Manager
	self      string
	peers     []string // sorted
	rank      int      // index of self in the sorted member list
	quorum    int      // majority of peers+self
	lease     time.Duration
	beat      time.Duration
	quorumTO  time.Duration
	clock     func() time.Time
	transport Transport
	logger    *log.Logger
	faults    *faultinject.Injector
	wake      map[string]chan struct{} // per-peer sender wakeups
	cancel    context.CancelFunc
	wg        sync.WaitGroup

	// applyMu serializes vote evaluation with record application and
	// truncation: a ballot is judged against the store's (seq, term) tip,
	// and that tip must not move between the read and the grant — otherwise
	// a follower could ack an append to the old leader while granting a
	// ballot computed from the pre-append position, breaking quorum
	// intersection. Taken before the Manager's locks and before n.mu.
	applyMu sync.Mutex

	mu        sync.Mutex
	closed    bool      //yaplint:guardedby mu
	role      Role      //yaplint:guardedby mu
	term      uint64    //yaplint:guardedby mu
	votedFor  string    //yaplint:guardedby mu
	leaderURL string    //yaplint:guardedby mu
	lastBeat  time.Time //yaplint:guardedby mu
	// latest is the newest local sequence the leader has offered to ship;
	// backlog[i] holds sequence backlogBase+i, and basePrevTerm is the term
	// of the record just below the backlog (what PrevTerm of the first
	// backlogged record must carry). lastTerm is the term of the record at
	// latest.
	latest       uint64  //yaplint:guardedby mu
	lastTerm     uint64  //yaplint:guardedby mu
	backlog      []entry //yaplint:guardedby mu
	backlogBase  uint64  //yaplint:guardedby mu
	basePrevTerm uint64  //yaplint:guardedby mu
	// reignTerm is the term this node last won (or holds, single-node) —
	// the stamp for every record the reign appends, stable even after a
	// higher term is observed. reignFirst is the first sequence of the
	// reign (latest+1 at promotion): commitSeq, the monotone commit point,
	// only advances when a quorum position reaches reignFirst — committing
	// a prior reign's records by counting is the classic Raft figure-8
	// unsafety.
	reignTerm   uint64            //yaplint:guardedby mu
	reignFirst  uint64            //yaplint:guardedby mu
	commitSeq   uint64            //yaplint:guardedby mu
	acks        map[string]uint64 //yaplint:guardedby mu — peer -> highest verified acknowledged seq
	cursors     map[string]uint64 //yaplint:guardedby mu — peer -> next seq to send
	stalled     map[string]bool   //yaplint:guardedby mu
	waiters     []waiter          //yaplint:guardedby mu
	quorumFails int               //yaplint:guardedby mu
	stats       Stats             //yaplint:guardedby mu
}

// Open builds the node and its jobs store. With peers, the store opens in
// follower mode and stays passive until this node wins an election;
// without peers the node is immediately the (sole) leader.
func Open(cfg Config) (*Node, error) {
	if len(cfg.Peers) > 0 {
		if cfg.Self == "" {
			return nil, errors.New("replica: peers configured without a self URL")
		}
		if cfg.Transport == nil {
			return nil, errors.New("replica: peers configured without a transport")
		}
	}
	if cfg.Dir == "" {
		cfg.Dir = cfg.Jobs.Dir
	}
	if cfg.Dir == "" {
		return nil, errors.New("replica: no state directory")
	}

	n := &Node{
		cfg:       cfg,
		self:      cfg.Self,
		lease:     cfg.lease(),
		beat:      cfg.heartbeat(),
		quorumTO:  cfg.quorumTimeout(),
		clock:     cfg.Clock,
		transport: cfg.Transport,
		logger:    cfg.Logger,
		faults:    cfg.Faults,
		wake:      make(map[string]chan struct{}),
		acks:      make(map[string]uint64),
		cursors:   make(map[string]uint64),
		stalled:   make(map[string]bool),
	}
	if n.clock == nil {
		n.clock = time.Now
	}
	n.peers = append([]string(nil), cfg.Peers...)
	sort.Strings(n.peers)
	members := append([]string{n.self}, n.peers...)
	sort.Strings(members)
	for i, m := range members {
		if m == n.self {
			n.rank = i
		}
	}
	n.quorum = len(members)/2 + 1

	st, err := loadElection(cfg.Dir)
	if err != nil {
		return nil, err
	}
	n.term = st.Term
	n.votedFor = st.VotedFor

	jcfg := cfg.Jobs
	jcfg.Follower = len(n.peers) > 0
	if len(n.peers) > 0 {
		jcfg.Replicator = n
	}
	mgr, err := jobs.Open(jcfg)
	if err != nil {
		return nil, err
	}
	n.mgr = mgr

	if len(n.peers) == 0 {
		n.role = RoleLeader
		n.leaderURL = n.self
		n.reignTerm = n.term
		return n, nil
	}

	n.role = RoleFollower
	n.lastBeat = n.clock()
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	for _, p := range n.peers {
		w := make(chan struct{}, 1)
		n.wake[p] = w
		n.wg.Add(1)
		go n.sender(ctx, p, w)
	}
	n.wg.Add(1)
	go n.electionLoop(ctx)
	return n, nil
}

// Jobs exposes the underlying store (for the HTTP service). Submits on a
// follower's store fail with jobs.ErrNotLeader; callers redirect using
// LeaderURL.
func (n *Node) Jobs() *jobs.Manager { return n.mgr }

// IsLeader reports whether this node currently leads.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == RoleLeader
}

// LeaderURL is the advertised URL of the leader this node last heard
// from ("" when unknown, e.g. mid-election).
func (n *Node) LeaderURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderURL
}

// Stats snapshots the node for /metrics.
func (n *Node) Stats() Stats {
	seq := n.mgr.ReplSeq()
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.stats
	st.Role = n.role
	st.Term = n.term
	st.LeaderURL = n.leaderURL
	st.Seq = seq
	if len(n.peers) > 0 {
		// Leader: the gated commit point. Follower: the highest commit the
		// leader has advertised over heartbeats/appends.
		st.CommitSeq = n.commitSeq
	} else {
		st.CommitSeq = seq
	}
	st.Peers = len(n.peers)
	st.StalledPeers = len(n.stalled)
	return st
}

// Close shuts the node down: pending quorum waits fail, sender and
// election goroutines join, then the store closes.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.failWaitersLocked(ErrClosed)
	n.mu.Unlock()
	if n.cancel != nil {
		n.cancel()
	}
	n.wg.Wait()
	return n.mgr.Close()
}

// --- jobs.Replicator ---

// Ship enqueues one just-fsync'd record for the peer senders. Called
// under the Manager's lock: it must only enqueue and wake, never block.
func (n *Node) Ship(seq uint64, payload []byte) {
	e := entry{seq: seq, crc: jobs.RecordCRC(payload), payload: append([]byte(nil), payload...)}
	n.mu.Lock()
	if n.closed || n.role != RoleLeader {
		// A store appending while this node is not leader is the promotion
		// window (role flips to leader before Promote so this cannot happen)
		// or a bug; dropping the enqueue is safe either way — the record is
		// durable locally and the backlog reseeds from the WAL tail on the
		// next promotion.
		n.mu.Unlock()
		return
	}
	e.term = n.reignTerm // the Manager stamped the record with LeaderTerm()
	if len(n.backlog) == 0 {
		n.backlogBase = seq
	}
	n.backlog = append(n.backlog, e)
	n.latest = seq
	n.lastTerm = e.term
	n.pruneBacklogLocked()
	n.mu.Unlock()
	n.wakeSenders()
}

// LeaderTerm reports the term of the current (or last) reign — what the
// Manager stamps appended records with. Called under the Manager's lock;
// only reads node state.
func (n *Node) LeaderTerm() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reignTerm
}

// WaitQuorum blocks until seq is acknowledged by a majority, the quorum
// timeout lapses, or leadership is lost. Called by the store without its
// lock held.
func (n *Node) WaitQuorum(ctx context.Context, seq uint64) error {
	n.mu.Lock()
	if n.quorum <= 1 {
		n.mu.Unlock()
		return nil
	}
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.role != RoleLeader {
		n.mu.Unlock()
		return ErrDeposed
	}
	if n.commitSeq >= seq {
		n.mu.Unlock()
		return nil
	}
	w := waiter{seq: seq, deadline: n.clock().Add(n.quorumTO), ch: make(chan error, 1)}
	n.waiters = append(n.waiters, w)
	n.mu.Unlock()
	n.wakeSenders()
	select {
	case err := <-w.ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- message handling (receiver side) ---

// Handle processes one incoming replication message; the HTTP service
// (and the in-process test transport) routes POST /v1/replica here.
func (n *Node) Handle(ctx context.Context, msg Message) Reply {
	switch msg.Kind {
	case KindVote:
		return n.handleVote(msg)
	case KindAppend:
		return n.handleAppend(ctx, msg)
	default:
		n.mu.Lock()
		term := n.term
		n.mu.Unlock()
		return Reply{Term: term, Reason: fmt.Sprintf("unknown kind %q", msg.Kind)}
	}
}

func (n *Node) handleVote(msg Message) Reply {
	// applyMu freezes the store's log tip for the whole grant decision: no
	// append can land between reading the position and casting the ballot,
	// so a granted vote really vouches for everything this store holds —
	// the quorum-intersection property elections depend on.
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	seq, lterm := n.mgr.ReplState() // before n.mu: no Manager calls under the node lock
	demote := false
	n.mu.Lock()
	if n.closed || msg.Term < n.term {
		r := Reply{Term: n.term, Reason: "stale term"}
		n.mu.Unlock()
		return r
	}
	if msg.Term > n.term {
		demote = n.adoptTermLocked(msg.Term, "")
	}
	// The Raft up-to-date rule, lexicographic on (last term, last seq): a
	// candidate whose tip term is higher holds the newer history even with
	// a shorter log — length only breaks ties within a term.
	upToDate := msg.LastTerm > lterm || (msg.LastTerm == lterm && msg.LastSeq >= seq)
	grant := n.role != RoleLeader &&
		(n.votedFor == "" || n.votedFor == msg.From) &&
		upToDate
	if grant && n.votedFor != msg.From {
		n.votedFor = msg.From
		if err := n.persistLocked(); err != nil {
			// A ballot that cannot be durably recorded must not be cast.
			n.votedFor = ""
			grant = false
			n.logf("replica: persisting ballot: %v", err)
		}
	}
	if grant {
		n.lastBeat = n.clock() // granting defers our own campaign
		n.stats.VotesGranted++
	}
	r := Reply{Term: n.term, Granted: grant}
	if !grant && r.Reason == "" {
		r.Reason = "ballot refused"
	}
	n.mu.Unlock()
	if demote {
		n.mgr.Demote()
	}
	return r
}

func (n *Node) handleAppend(ctx context.Context, msg Message) Reply {
	// Serialized with vote grants (see handleVote): a position vouched for
	// by a ballot cannot move while the ballot is being decided.
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	demote := false
	n.mu.Lock()
	if n.closed || msg.Term < n.term {
		r := Reply{Term: n.term, Reason: "stale term"}
		n.mu.Unlock()
		return r
	}
	if msg.Term > n.term {
		demote = n.adoptTermLocked(msg.Term, msg.From)
	} else if n.role == RoleLeader {
		// Two leaders at one term would mean the election protocol failed;
		// refuse loudly rather than corrupt either log.
		r := Reply{Term: n.term, Reason: "split leadership"}
		n.mu.Unlock()
		return r
	}
	n.role = RoleFollower
	n.leaderURL = msg.From
	n.lastBeat = n.clock()
	if msg.CommitSeq > n.commitSeq {
		n.commitSeq = msg.CommitSeq
	}
	term := n.term
	n.mu.Unlock()
	if demote {
		n.mgr.Demote()
	}
	if msg.Seq == 0 { // heartbeat
		if msg.CommitSeq > 0 {
			n.mgr.CompactReplicated(msg.CommitSeq)
		}
		seq, lterm := n.mgr.ReplState()
		return Reply{Term: term, OK: true, Seq: seq, LastTerm: lterm}
	}
	if cur, _ := n.mgr.ReplState(); msg.Seq <= cur {
		// Our log extends to or past the incoming record: the suffix from
		// msg.Seq on was appended under a dead reign and the elected
		// leader's history overrides it. Truncate to just below the record
		// so it can land; committed records are never lost — a conflicting
		// suffix is uncommitted by definition, and matching records are
		// re-shipped byte-identically.
		if r, done := n.truncateTo(term, msg.Seq-1); done {
			return r
		}
	}
	cur, lterm, err := n.mgr.ApplyReplicated(msg.Seq, msg.PrevTerm, msg.Payload, msg.CRC)
	if err != nil {
		if errors.Is(err, jobs.ErrReplicaConflict) {
			// Our tip record disagrees with the leader's at the same seq:
			// drop it and report the rewound position; the leader re-ships
			// from there, stepping back once per conflicting record until
			// the logs agree.
			if cur == 0 {
				return Reply{Term: term, Seq: cur, LastTerm: lterm, Diverged: true, Reason: err.Error()}
			}
			if r, done := n.truncateTo(term, cur-1); done {
				return r
			}
			cur, lterm = n.mgr.ReplState()
			return Reply{Term: term, Seq: cur, LastTerm: lterm, Reason: err.Error()}
		}
		return Reply{Term: term, Seq: cur, LastTerm: lterm, Reason: err.Error()}
	}
	if msg.CommitSeq > 0 {
		n.mgr.CompactReplicated(msg.CommitSeq)
	}
	return Reply{Term: term, OK: true, Seq: cur, LastTerm: lterm}
}

// truncateTo discards the store's records above toSeq. It returns a reply
// and true when the truncation itself must answer the append — a failure,
// or a conflict below the compaction horizon (Diverged: the replica needs
// a full resync). On success it returns false and the caller proceeds
// with the incoming record.
func (n *Node) truncateTo(term, toSeq uint64) (Reply, bool) {
	cur, lterm, err := n.mgr.TruncateReplicated(toSeq)
	if err != nil {
		if errors.Is(err, jobs.ErrNeedsResync) {
			return Reply{Term: term, Seq: cur, LastTerm: lterm, Diverged: true, Reason: err.Error()}, true
		}
		return Reply{Term: term, Seq: cur, LastTerm: lterm, Reason: err.Error()}, true
	}
	n.mu.Lock()
	n.stats.Truncations++
	n.mu.Unlock()
	n.logf("replica: truncated conflicting wal suffix to seq %d (term %d)", cur, lterm)
	return Reply{}, false
}

// adoptTermLocked moves to a higher term as a follower, reporting whether
// the caller must demote the store (outside n.mu). It deliberately does
// NOT reset the election timer: only leader contact or a granted ballot
// defers a campaign. (If a refused solicitation reset the timer, a
// stale-logged low-rank node campaigning on its stagger would push every
// caught-up node's due time forward forever — a deterministic livelock
// with no leader.)
func (n *Node) adoptTermLocked(term uint64, leader string) bool {
	wasLeader := n.role == RoleLeader
	n.term = term
	n.votedFor = ""
	n.role = RoleFollower
	n.leaderURL = leader
	if wasLeader {
		n.failWaitersLocked(ErrDeposed)
	}
	if err := n.persistLocked(); err != nil {
		n.logf("replica: persisting term %d: %v", term, err)
	}
	return wasLeader
}

// --- leader side: shipping ---

func (n *Node) sender(ctx context.Context, peer string, wake chan struct{}) {
	defer n.wg.Done()
	t := time.NewTicker(n.beat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-wake:
		case <-t.C:
		}
		for n.shipOne(ctx, peer) {
		}
	}
}

// shipOne sends the peer's next record (or a heartbeat when it is caught
// up) and digests the reply; it reports whether more records are pending
// so the sender drains without waiting for the next tick.
func (n *Node) shipOne(ctx context.Context, peer string) bool {
	n.mu.Lock()
	if n.closed || n.role != RoleLeader {
		n.mu.Unlock()
		return false
	}
	term := n.term
	cursor := n.cursors[peer]
	msg := Message{Kind: KindAppend, Term: term, From: n.self, CommitSeq: n.commitSeq}
	more := false
	switch {
	case cursor == 0:
		// fresh leadership: the peer's position is unknown until its first
		// heartbeat reply, so probe instead of guessing
		msg.LastSeq, msg.LastTerm = n.latest, n.lastTerm
	case cursor > n.latest || len(n.backlog) == 0:
		// caught up (or nothing to ship yet): bare heartbeat
		msg.LastSeq, msg.LastTerm = n.latest, n.lastTerm
	case cursor >= n.backlogBase:
		e := n.backlog[cursor-n.backlogBase]
		msg.Seq, msg.CRC, msg.Payload = e.seq, e.crc, e.payload
		if cursor == n.backlogBase {
			msg.PrevTerm = n.basePrevTerm
		} else {
			msg.PrevTerm = n.backlog[cursor-n.backlogBase-1].term
		}
		more = cursor < n.latest
	default:
		if !n.stalled[peer] {
			n.stalled[peer] = true
			n.logf("replica: peer %s fell behind the backlog horizon (cursor %d < base %d); stalled until resync", peer, cursor, n.backlogBase)
		}
		n.mu.Unlock()
		return false
	}
	n.mu.Unlock()

	if err := n.faults.Fire(ctx, faultinject.HookReplicaShip); err != nil {
		n.noteShipError()
		return false
	}
	reply, err := n.transport.Send(ctx, peer, msg)
	if err != nil {
		n.noteShipError()
		return false
	}

	demote := false
	n.mu.Lock()
	switch {
	case n.closed || n.role != RoleLeader || n.term != term:
		more = false
	case reply.Term > n.term:
		demote = n.adoptTermLocked(reply.Term, "")
		more = false
	case msg.Seq != 0 && reply.OK:
		if n.ackVerifiedLocked(peer, reply.Seq, reply.LastTerm) {
			n.cursors[peer] = reply.Seq + 1
			delete(n.stalled, peer)
		}
		more = n.cursors[peer] != 0 && n.cursors[peer] <= n.latest
	case msg.Seq != 0: // rejected append
		if reply.Diverged {
			// The conflict reaches below the peer's compaction horizon:
			// record-by-record repair is impossible, only a full resync can
			// bring it back. Stall rather than loop.
			if !n.stalled[peer] {
				n.stalled[peer] = true
				n.logf("replica: peer %s diverged beyond repair (%s); stalled until resync", peer, reply.Reason)
			}
		} else {
			// Rewind to the peer's (possibly just-truncated) position and
			// re-approach on the next wake, not in a hot loop.
			n.cursors[peer] = reply.Seq + 1
		}
		more = false
	case reply.OK: // heartbeat reply: learn the peer's position
		if n.ackVerifiedLocked(peer, reply.Seq, reply.LastTerm) {
			if n.cursors[peer] == 0 || n.cursors[peer] > reply.Seq+1 {
				n.cursors[peer] = reply.Seq + 1
			}
		}
		more = n.cursors[peer] != 0 && n.cursors[peer] <= n.latest
	}
	n.mu.Unlock()
	if demote {
		n.mgr.Demote()
	}
	return more && !demote
}

// ackVerifiedLocked decides whether a peer's acknowledgement of position
// seq (whose record term it reports as lterm) counts toward quorum: only
// when (seq, lterm) names a record this leader also holds. A diverged
// peer — its log extends past ours, or its record at seq carries a
// different term — gets its cursor pointed at the first record whose
// shipment will surface the conflict (triggering follower-side
// truncation) and its ack is refused, so a replica holding different
// bytes can never help commit them. Reports whether the ack was counted;
// on refusal the cursor has already been repositioned. Callers hold n.mu.
func (n *Node) ackVerifiedLocked(peer string, seq, lterm uint64) bool {
	if seq == 0 {
		return true // empty position: nothing to verify, nothing to ack
	}
	if seq > n.latest {
		// The peer's log extends past ours: its suffix is from a dead
		// reign. Serve it our tip record; landing it forces truncation.
		c := n.latest
		if c < n.backlogBase {
			c = n.backlogBase
		}
		n.cursors[peer] = c
		return false
	}
	switch {
	case seq >= n.backlogBase && seq-n.backlogBase < uint64(len(n.backlog)):
		if n.backlog[seq-n.backlogBase].term != lterm {
			// Same position, different record: re-ship ours from seq so the
			// peer truncates its conflicting copy.
			n.cursors[peer] = seq
			return false
		}
	case seq == n.backlogBase-1 && n.backlogBase > 0:
		if n.basePrevTerm != lterm {
			n.cursors[peer] = seq // below the backlog: the stall path catches it
			return false
		}
	default:
		// Below the horizon minus one: unverifiable, and useless for commit
		// anyway (commit only advances within the current reign). Let the
		// cursor land below the backlog so the stall path reports it.
		n.cursors[peer] = seq + 1
		return false
	}
	if seq > n.acks[peer] {
		n.acks[peer] = seq
		n.advanceCommitLocked()
	}
	return true
}

func (n *Node) noteShipError() {
	n.mu.Lock()
	n.stats.ShipErrors++
	n.mu.Unlock()
}

func (n *Node) wakeSenders() {
	for _, w := range n.wake { //yaplint:allow determinism non-blocking wakeup fan-out; delivery order is irrelevant
		select {
		case w <- struct{}{}:
		default:
		}
	}
}

// quorumPosLocked is the highest sequence a majority holds: the
// (quorum-1)th largest among self (latest, durable locally) and each
// peer's verified acknowledged sequence.
func (n *Node) quorumPosLocked() uint64 {
	positions := make([]uint64, 0, len(n.peers)+1)
	positions = append(positions, n.latest)
	for _, p := range n.peers {
		positions = append(positions, n.acks[p])
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] > positions[j] })
	return positions[n.quorum-1]
}

// advanceCommitLocked moves the monotone commit point to the quorum
// position — but only once that position has reached the current reign's
// first record. Counting a majority on a prior reign's records alone is
// the Raft figure-8 unsafety: such a record can still be overwritten by a
// later leader. Once a current-term record has majority, everything below
// it is committed transitively. Callers hold n.mu.
func (n *Node) advanceCommitLocked() {
	p := n.quorumPosLocked()
	if p >= n.reignFirst && p > n.commitSeq {
		n.commitSeq = p
		n.flushWaitersLocked()
	}
}

func (n *Node) flushWaitersLocked() {
	kept := n.waiters[:0]
	for _, w := range n.waiters {
		if w.seq <= n.commitSeq {
			w.ch <- nil
			n.quorumFails = 0
			continue
		}
		kept = append(kept, w)
	}
	n.waiters = kept
}

func (n *Node) failWaitersLocked(err error) {
	for _, w := range n.waiters {
		w.ch <- err
	}
	n.waiters = nil
}

// pruneBacklogLocked drops fully acknowledged records from the front and
// caps the backlog; peers whose cursor is dropped stall. basePrevTerm
// follows the horizon: it is always the term of the record just below the
// first backlogged one.
func (n *Node) pruneBacklogLocked() {
	minNeeded := n.latest + 1
	for _, p := range n.peers {
		if c := n.cursors[p]; c < minNeeded && !n.stalled[p] {
			minNeeded = c
		}
	}
	if minNeeded > n.backlogBase {
		drop := minNeeded - n.backlogBase
		if drop > uint64(len(n.backlog)) {
			drop = uint64(len(n.backlog))
		}
		if drop > 0 {
			n.basePrevTerm = n.backlog[drop-1].term
		}
		n.backlog = append(n.backlog[:0], n.backlog[drop:]...)
		n.backlogBase += drop
	}
	if over := len(n.backlog) - maxBacklog; over > 0 {
		n.basePrevTerm = n.backlog[over-1].term
		n.backlog = append(n.backlog[:0], n.backlog[over:]...)
		n.backlogBase += uint64(over)
	}
}

// --- elections ---

func (n *Node) electionLoop(ctx context.Context) {
	defer n.wg.Done()
	tick := n.beat / 2
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		n.electionTick(ctx)
	}
}

// electionTick expires quorum waits, deposes a leader that keeps missing
// quorum, and campaigns when the leader's lease has lapsed. All timing
// decisions read the injected clock, so tests drive this deterministically.
func (n *Node) electionTick(ctx context.Context) {
	now := n.clock()
	demote := false
	campaign := false
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	kept := n.waiters[:0]
	for _, w := range n.waiters {
		if now.After(w.deadline) {
			w.ch <- fmt.Errorf("%w: no majority within %v", ErrNoQuorum, n.quorumTO)
			n.stats.QuorumTimeouts++
			n.quorumFails++
			continue
		}
		kept = append(kept, w)
	}
	n.waiters = kept
	if n.role == RoleLeader && n.quorumFails >= quorumStrikes {
		n.logf("replica: deposing self after %d consecutive quorum failures", n.quorumFails)
		n.quorumFails = 0
		n.role = RoleFollower
		n.leaderURL = ""
		n.lastBeat = now
		n.failWaitersLocked(ErrDeposed)
		demote = true
	}
	if n.role != RoleLeader {
		due := n.lastBeat.Add(n.lease + time.Duration(n.rank)*n.beat)
		campaign = !now.Before(due)
	}
	n.mu.Unlock()
	if demote {
		n.mgr.Demote()
	}
	if campaign {
		n.campaign(ctx)
	}
}

// campaign runs one election round: persist a fresh term with a ballot
// for self, solicit votes sequentially, and on majority promote the
// store. Losing leaves the node candidate; the next lapse retries at a
// higher term.
func (n *Node) campaign(ctx context.Context) {
	n.mu.Lock()
	if n.closed || n.role == RoleLeader {
		n.mu.Unlock()
		return
	}
	n.term++
	n.votedFor = n.self
	n.role = RoleCandidate
	n.lastBeat = n.clock() // restart the lapse timer for the retry path
	n.stats.Elections++
	if err := n.persistLocked(); err != nil {
		// A term we cannot persist is a term we must not campaign in.
		n.term--
		n.votedFor = ""
		n.role = RoleFollower
		n.logf("replica: persisting campaign term: %v", err)
		n.mu.Unlock()
		return
	}
	term := n.term
	n.mu.Unlock()

	lastSeq, lastTerm := n.mgr.ReplState()
	votes := 1 // own ballot
	for _, p := range n.peers {
		if err := n.faults.Fire(ctx, faultinject.HookReplicaElect); err != nil {
			continue // injected: this solicitation is lost
		}
		reply, err := n.transport.Send(ctx, p, Message{Kind: KindVote, Term: term, From: n.self, LastSeq: lastSeq, LastTerm: lastTerm})
		if err != nil {
			continue
		}
		n.mu.Lock()
		if reply.Term > n.term {
			n.adoptTermLocked(reply.Term, "") // never leader here, no demote needed
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		if reply.Granted {
			votes++
		}
	}
	if votes < n.quorum {
		n.logf("replica: election term %d lost (%d/%d votes)", term, votes, n.quorum)
		return
	}

	// Won. Seed the ship backlog from the WAL tail before accepting the
	// crown, so followers a few records behind catch up record by record;
	// then flip to leader (Ship starts enqueueing) and only then promote
	// the store — every record the resumed jobs append lands in the
	// backlog, starting with the reign's no-op.
	records, first, tailPrev, err := n.mgr.TailRecords()
	if err != nil {
		n.logf("replica: reading WAL tail after winning term %d: %v", term, err)
		records, first, tailPrev = nil, lastSeq+1, lastTerm
	}
	latest, latestTerm := n.mgr.ReplState()

	n.mu.Lock()
	if n.closed || n.role != RoleCandidate || n.term != term {
		n.mu.Unlock() // deposed while reading the tail
		return
	}
	n.role = RoleLeader
	n.leaderURL = n.self
	n.latest = latest
	n.lastTerm = latestTerm
	n.backlog = n.backlog[:0]
	n.backlogBase = first
	if len(records) > 0 {
		n.basePrevTerm = tailPrev
	} else {
		n.basePrevTerm = latestTerm // empty tail: the backlog starts at latest+1
	}
	for i, rec := range records {
		n.backlog = append(n.backlog, entry{
			seq:     first + uint64(i),
			crc:     jobs.RecordCRC(rec.Payload),
			term:    rec.Term,
			payload: rec.Payload,
		})
	}
	// The reign's identity: every record this leadership appends is
	// stamped with term, and commit only advances once a record at or
	// above reignFirst — necessarily term-stamped — reaches a majority.
	// commitSeq itself is never reset: committed once is committed forever.
	n.reignTerm = term
	n.reignFirst = latest + 1
	n.acks = make(map[string]uint64, len(n.peers))
	n.cursors = make(map[string]uint64, len(n.peers))
	n.stalled = make(map[string]bool)
	n.quorumFails = 0
	n.logf("replica: elected leader for term %d at seq %d", term, latest)
	n.mu.Unlock()

	if err := n.mgr.Promote(); err != nil {
		n.logf("replica: promoting store for term %d: %v", term, err)
		n.mu.Lock()
		if n.role == RoleLeader && n.term == term {
			n.role = RoleFollower
			n.leaderURL = ""
		}
		n.mu.Unlock()
		return
	}
	// A higher term observed while Promote ran means this reign is already
	// over; the role flip happened in adoptTermLocked, but the store was
	// just (re-)activated by our Promote — demote it so two stores never
	// run at once.
	n.mu.Lock()
	deposed := n.role != RoleLeader || n.term != term
	n.mu.Unlock()
	if deposed {
		n.mgr.Demote()
		return
	}
	n.wakeSenders() // heartbeats announce the new leadership immediately
}

func (n *Node) persistLocked() error {
	return saveElection(n.cfg.Dir, persistedElection{Term: n.term, VotedFor: n.votedFor})
}

func (n *Node) logf(format string, args ...any) {
	if n.logger != nil {
		n.logger.Printf(format, args...)
	}
}
