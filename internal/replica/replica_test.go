package replica

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yap/internal/core"
	"yap/internal/jobs"
	"yap/internal/sim"
)

// memNet is an in-process Transport: a cluster without sockets. Downed
// peers return transport errors, like a killed daemon would.
type memNet struct {
	mu    sync.Mutex
	nodes map[string]*Node
	down  map[string]bool
	cut   map[string]bool // symmetric partition: no link to or from
}

func newMemNet() *memNet {
	return &memNet{nodes: make(map[string]*Node), down: make(map[string]bool), cut: make(map[string]bool)}
}

func (t *memNet) add(url string, n *Node) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[url] = n
}

func (t *memNet) setDown(url string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[url] = down
}

// isolate severs every link to and from url — a symmetric partition,
// unlike setDown which only makes url unreachable as a destination.
func (t *memNet) isolate(url string, cut bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cut[url] = cut
}

func (t *memNet) Send(ctx context.Context, peer string, msg Message) (Reply, error) {
	t.mu.Lock()
	n, ok := t.nodes[peer]
	down := t.down[peer] || t.cut[peer] || t.cut[msg.From]
	t.mu.Unlock()
	if !ok || down {
		return Reply{}, fmt.Errorf("memnet: peer %s unreachable", peer)
	}
	return n.Handle(ctx, msg), nil
}

func testSpec(samples, every int) jobs.Spec {
	return jobs.Spec{
		Mode:            "w2w",
		Params:          core.Baseline(),
		Seed:            42,
		Samples:         samples,
		Workers:         2,
		CheckpointEvery: every,
	}
}

func stripElapsed(r sim.Result) sim.Result {
	r.Elapsed = 0
	return r
}

// newCluster opens size nodes over one memNet. Node URLs sort in index
// order, so node 0 has election rank 0.
func newCluster(t *testing.T, size int, mutate func(i int, cfg *Config)) (*memNet, []*Node) {
	t.Helper()
	net := newMemNet()
	urls := make([]string, size)
	for i := range urls {
		urls[i] = fmt.Sprintf("node-%d", i)
	}
	nodes := make([]*Node, size)
	for i, self := range urls {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{
			Self:      self,
			Peers:     peers,
			Transport: net,
			Jobs:      jobs.Config{Dir: t.TempDir(), Runners: 1, CheckpointEvery: 2},
			Lease:     150 * time.Millisecond,
			Heartbeat: 25 * time.Millisecond,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		n, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.add(self, n)
		nodes[i] = n
		t.Cleanup(func() { n.Close() }) //nolint:errcheck // second close is a no-op
	}
	return net, nodes
}

// waitLeader polls until exactly one of the given nodes leads.
func waitLeader(t *testing.T, nodes []*Node) *Node {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var leader *Node
		n := 0
		for _, nd := range nodes {
			if nd.IsLeader() {
				leader = nd
				n++
			}
		}
		if n == 1 {
			return leader
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no single leader emerged")
	return nil
}

// submitToLeader submits following leadership as it moves.
func submitToLeader(t *testing.T, nodes []*Node, spec jobs.Spec) (jobs.Job, *Node) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		leader := waitLeader(t, nodes)
		job, err := leader.Jobs().Submit(spec)
		if err == nil {
			return job, leader
		}
		if errors.Is(err, jobs.ErrNotLeader) || errors.Is(err, ErrDeposed) {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		t.Fatal(err)
	}
	t.Fatal("submit never reached a stable leader")
	return jobs.Job{}, nil
}

func waitTerminal(t *testing.T, m *jobs.Manager, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, err := m.Get(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return jobs.Job{}
}

// TestSingleNodeLeads: a peerless node is its own quorum — immediately
// leader, submits ack locally.
func TestSingleNodeLeads(t *testing.T) {
	n, err := Open(Config{Jobs: jobs.Config{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if !n.IsLeader() {
		t.Fatal("single node is not leader")
	}
	if n.LeaderURL() != "" {
		// no self URL configured; leader URL is simply empty
		t.Fatalf("leader URL %q", n.LeaderURL())
	}
	job, err := n.Jobs().Submit(testSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, n.Jobs(), job.ID); final.State != jobs.StateDone {
		t.Fatalf("job state %s: %s", final.State, final.Error)
	}
}

// TestClusterElectsAndReplicates: three nodes elect one leader; a
// quorum-acked job lands on every replica bit-identically.
func TestClusterElectsAndReplicates(t *testing.T) {
	_, nodes := newCluster(t, 3, nil)
	job, leader := submitToLeader(t, nodes, testSpec(6, 2))
	final := waitTerminal(t, leader.Jobs(), job.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("leader job state %s: %s", final.State, final.Error)
	}

	// Followers converge: identical state, counts and reconstructed result.
	deadline := time.Now().Add(15 * time.Second)
	for _, nd := range nodes {
		if nd == leader {
			continue
		}
		for {
			j, err := nd.Jobs().Get(job.ID)
			if err == nil && j.State == jobs.StateDone && j.Result != nil {
				if j.Counts != final.Counts || j.Completed != final.Completed {
					t.Fatalf("follower diverged: %+v vs %+v", j, final)
				}
				if !reflect.DeepEqual(stripElapsed(*j.Result), stripElapsed(*final.Result)) {
					t.Fatalf("follower result diverged:\n got %+v\nwant %+v", j.Result, final.Result)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower %s never converged (err %v)", nd.self, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got := nd.LeaderURL(); got != leader.self {
			t.Errorf("follower %s sees leader %q, want %q", nd.self, got, leader.self)
		}
		if _, err := nd.Jobs().Submit(testSpec(2, 2)); !errors.Is(err, jobs.ErrNotLeader) {
			t.Errorf("follower %s accepted a submit (err %v)", nd.self, err)
		}
	}
}

// TestFailoverAtEveryCheckpoint is the acceptance property: SIGKILL the
// leader while a job is paused at each checkpoint boundary in turn; a
// follower must take over and finish the job with the result an
// uninterrupted run produces, bit for bit.
func TestFailoverAtEveryCheckpoint(t *testing.T) {
	spec := testSpec(6, 2)
	wantRes, err := sim.RunW2WContext(context.Background(), sim.Options{
		Params:  spec.Params,
		Seed:    spec.Seed,
		Wafers:  spec.Samples,
		Workers: spec.Workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := stripElapsed(wantRes)

	for _, killAt := range []int{0, 2, 4} {
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			var armed atomic.Bool
			armed.Store(true)
			paused := make(chan struct{}, 1)
			pauseRun := func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
				if armed.Load() && opts.FirstSample == killAt {
					select {
					case paused <- struct{}{}:
					default:
					}
					<-ctx.Done() // hold the slice until the leader dies
					return sim.Result{}, ctx.Err()
				}
				return sim.RunW2WContext(ctx, opts)
			}
			net, nodes := newCluster(t, 3, func(i int, cfg *Config) {
				cfg.Jobs.Run = pauseRun
			})

			job, leader := submitToLeader(t, nodes, spec)
			select {
			case <-paused:
			case <-time.After(15 * time.Second):
				t.Fatal("job never reached the kill point")
			}

			// Kill the leader: unreachable to peers, then torn down.
			net.setDown(leader.self, true)
			armed.Store(false)
			if err := leader.Close(); err != nil {
				t.Fatal(err)
			}

			var survivors []*Node
			for _, nd := range nodes {
				if nd != leader {
					survivors = append(survivors, nd)
				}
			}
			successor := waitLeader(t, survivors)
			final := waitTerminal(t, successor.Jobs(), job.ID)
			if final.State != jobs.StateDone {
				t.Fatalf("failover job state %s: %s", final.State, final.Error)
			}
			if final.Result == nil {
				t.Fatal("failover job has no result")
			}
			if got := stripElapsed(*final.Result); !reflect.DeepEqual(got, want) {
				t.Fatalf("failover result diverged from uninterrupted run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestSubmitWithoutQuorumFails: with every follower unreachable, a submit
// must be reported failed — never silently accepted — and the leader must
// eventually depose itself.
func TestSubmitWithoutQuorumFails(t *testing.T) {
	net, nodes := newCluster(t, 3, func(i int, cfg *Config) {
		cfg.QuorumTimeout = 200 * time.Millisecond
	})
	leader := waitLeader(t, nodes)
	for _, nd := range nodes {
		if nd != leader {
			net.setDown(nd.self, true)
		}
	}
	for i := 0; i < quorumStrikes; i++ {
		_, err := leader.Jobs().Submit(testSpec(2, 2))
		if err == nil {
			t.Fatal("quorum-unacked submit reported accepted")
		}
		if !strings.Contains(err.Error(), "quorum") && !errors.Is(err, ErrDeposed) && !errors.Is(err, jobs.ErrNotLeader) {
			t.Fatalf("submit error %v does not name the quorum failure", err)
		}
		if errors.Is(err, ErrDeposed) || errors.Is(err, jobs.ErrNotLeader) {
			break
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for leader.IsLeader() {
		if time.Now().After(deadline) {
			t.Fatal("leader kept claiming leadership without quorum")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeterministicElectionStagger: with an injected clock, election
// timing is a pure function of rank — the lowest-ranked node campaigns
// and wins before any other node even starts.
func TestDeterministicElectionStagger(t *testing.T) {
	var clockMu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}

	_, nodes := newCluster(t, 3, func(i int, cfg *Config) {
		cfg.Clock = clock
		cfg.Lease = 10 * time.Second
		cfg.Heartbeat = time.Second
	})
	ctx := context.Background()

	// Just past node 0's due time (lease + 0×heartbeat) but before node 1's.
	advance(10*time.Second + 100*time.Millisecond)
	for _, nd := range nodes {
		nd.electionTick(ctx)
	}
	if !nodes[0].IsLeader() {
		t.Fatal("rank-0 node did not win the staggered election")
	}
	for i, nd := range nodes[1:] {
		if nd.IsLeader() {
			t.Fatalf("node %d led out of turn", i+1)
		}
		if nd.Stats().Elections != 0 {
			t.Fatalf("node %d campaigned despite the stagger", i+1)
		}
	}
	if nodes[0].Stats().Elections != 1 {
		t.Fatalf("rank-0 node ran %d elections, want 1", nodes[0].Stats().Elections)
	}

	// Replay determinism: the same advance on a fresh cluster yields the
	// same leader at the same term.
	if nodes[0].Stats().Term != 1 {
		t.Fatalf("leader term %d, want 1", nodes[0].Stats().Term)
	}
}

// TestVoteRefusedToStaleLog: a voter never elects a candidate whose
// replicated log is behind its own — acknowledged records survive
// failover.
func TestVoteRefusedToStaleLog(t *testing.T) {
	net := newMemNet()
	n, err := Open(Config{
		Self:      "voter",
		Peers:     []string{"candidate"},
		Transport: net,
		Jobs:      jobs.Config{Dir: t.TempDir()},
		Lease:     time.Hour, // no background elections during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Feed the voter two records via a detached leader store.
	ship := &captureShip{}
	leader, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Replicator: ship, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := leader.Submit(testSpec(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, leader, job.ID)
	leader.Close()
	recs := ship.records()
	for _, rec := range recs {
		if _, _, err := n.Jobs().ApplyReplicated(rec.seq, 0, rec.payload, jobs.RecordCRC(rec.payload)); err != nil {
			t.Fatal(err)
		}
	}
	seq := n.Jobs().ReplSeq()
	if seq == 0 {
		t.Fatal("voter applied no records")
	}

	behind := n.Handle(context.Background(), Message{Kind: KindVote, Term: 5, From: "candidate", LastSeq: seq - 1})
	if behind.Granted {
		t.Fatal("ballot granted to a candidate with a stale log")
	}
	caught := n.Handle(context.Background(), Message{Kind: KindVote, Term: 6, From: "candidate", LastSeq: seq})
	if !caught.Granted {
		t.Fatalf("ballot refused to a caught-up candidate: %s", caught.Reason)
	}
	// A higher last term dominates a longer log: a candidate holding
	// fewer records from a newer reign is the safer leader, because the
	// voter's longer same-term suffix can never have been committed.
	newer := n.Handle(context.Background(), Message{Kind: KindVote, Term: 7, From: "candidate", LastSeq: 0, LastTerm: 1})
	if !newer.Granted {
		t.Fatalf("ballot refused to a candidate with a newer last term: %s", newer.Reason)
	}
	// The ballot is durable: a restart must not re-vote in term 7.
	if st, err := loadElection(n.cfg.Dir); err != nil || st.Term != 7 || st.VotedFor != "candidate" {
		t.Fatalf("persisted election state %+v (err %v)", st, err)
	}
}

// TestDivergedLeaderRejoins: an isolated leader keeps appending records
// no quorum ever saw — a quorum-failed submit and its annulment. After
// the majority elects a successor and moves history forward, the old
// leader rejoins, truncates its conflicting suffix, and converges on the
// new reign's log bit for bit (the high-severity review finding: without
// term-tagged truncation this divergence was silent and permanent).
func TestDivergedLeaderRejoins(t *testing.T) {
	net, nodes := newCluster(t, 3, func(i int, cfg *Config) {
		cfg.QuorumTimeout = 200 * time.Millisecond
	})
	old := waitLeader(t, nodes)

	// A quorum-committed job first: the shared prefix every reign keeps.
	shared, _ := submitToLeader(t, nodes, testSpec(2, 2))
	waitTerminal(t, old.Jobs(), shared.ID)

	// Sever every link to and from the leader. Its next submit cannot
	// reach quorum: the record lands in its WAL — and the annulment
	// right behind it — a suffix no other replica will ever hold.
	net.isolate(old.self, true)
	if _, err := old.Jobs().Submit(testSpec(4, 2)); err == nil {
		t.Fatal("isolated leader reported a submit accepted")
	}

	// The survivors elect a successor and move history forward — with a
	// different spec than the annulled submit, so the diverged replica's
	// local result can never pass for the successor's by coincidence.
	var rest []*Node
	for _, nd := range nodes {
		if nd != old {
			rest = append(rest, nd)
		}
	}
	job, successor := submitToLeader(t, rest, testSpec(6, 2))
	final := waitTerminal(t, successor.Jobs(), job.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("successor job state %s: %s", final.State, final.Error)
	}

	// Rejoin: the old leader must shed its reign's unacked suffix and
	// converge on the successor's history.
	net.isolate(old.self, false)
	deadline := time.Now().Add(20 * time.Second)
	for {
		j, err := old.Jobs().Get(job.ID)
		if err == nil && j.State == jobs.StateDone && j.Result != nil &&
			reflect.DeepEqual(stripElapsed(*j.Result), stripElapsed(*final.Result)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("diverged leader never converged (err %v, job %+v)", err, j)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if old.Stats().Truncations == 0 {
		t.Fatal("rejoining leader converged without truncating its diverged suffix")
	}
}

// captureShip records shipped records (jobs.Replicator for tests).
type captureShip struct {
	mu      sync.Mutex
	shipped []shippedRec
}

type shippedRec struct {
	seq     uint64
	payload []byte
}

func (c *captureShip) Ship(seq uint64, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shipped = append(c.shipped, shippedRec{seq, append([]byte(nil), payload...)})
}

func (c *captureShip) WaitQuorum(ctx context.Context, seq uint64) error { return nil }

func (c *captureShip) LeaderTerm() uint64 { return 0 }

func (c *captureShip) records() []shippedRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]shippedRec(nil), c.shipped...)
}

// TestTermPersistsAcrossRestart: a node that campaigned remembers its
// term after reopening — it can never hand out two ballots in one term.
func TestTermPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	net := newMemNet() // candidate's peer is never reachable
	open := func() *Node {
		n, err := Open(Config{
			Self:      "a",
			Peers:     []string{"b"},
			Transport: net,
			Dir:       dir,
			Jobs:      jobs.Config{Dir: t.TempDir()},
			Lease:     20 * time.Millisecond,
			Heartbeat: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := open()
	deadline := time.Now().Add(10 * time.Second)
	for n.Stats().Elections == 0 {
		if time.Now().After(deadline) {
			t.Fatal("node never campaigned")
		}
		time.Sleep(2 * time.Millisecond)
	}
	term := n.Stats().Term
	if term == 0 {
		t.Fatal("campaign did not raise the term")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n2 := open()
	defer n2.Close()
	if got := n2.Stats().Term; got < term {
		t.Fatalf("reopened node forgot its term: %d < %d", got, term)
	}
}

// TestHeartbeatsSuppressElections: a healthy leader's lease renewals keep
// followers passive indefinitely. A follower may have campaigned in the
// startup election it lost, so the check is that no follower's election
// count grows once the leader is in place.
func TestHeartbeatsSuppressElections(t *testing.T) {
	_, nodes := newCluster(t, 3, nil)
	leader := waitLeader(t, nodes)
	before := make([]uint64, len(nodes))
	for i, nd := range nodes {
		before[i] = nd.Stats().Elections
	}
	time.Sleep(600 * time.Millisecond) // four lease windows
	if again := waitLeader(t, nodes); again != leader {
		t.Fatalf("leadership moved from %s to %s without a failure", leader.self, again.self)
	}
	for i, nd := range nodes {
		if after := nd.Stats().Elections; nd != leader && after != before[i] {
			t.Fatalf("follower %s campaigned under a live leader: %d elections before the window, %d after", nd.self, before[i], after)
		}
	}
}
