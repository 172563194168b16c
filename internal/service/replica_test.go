package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"yap/internal/jobs"
	"yap/internal/replica"
)

// unreachableTransport fails every send — a follower node behind it never
// hears from (or elects) anyone, which pins its role for the test.
type unreachableTransport struct{}

func (unreachableTransport) Send(ctx context.Context, peer string, msg replica.Message) (replica.Reply, error) {
	return replica.Reply{}, errors.New("unreachable")
}

// newFollowerServer builds a Server embedded in a 3-member replica set
// whose peers never answer: the node stays a follower for the whole test
// (the lease is a minute, so no campaign fires either).
func newFollowerServer(t *testing.T) (*Server, *replica.Node) {
	t.Helper()
	node, err := replica.Open(replica.Config{
		Dir:       t.TempDir(),
		Self:      "http://self.test",
		Peers:     []string{"http://peer-b.test", "http://peer-c.test"},
		Transport: unreachableTransport{},
		Jobs:      jobs.Config{Dir: t.TempDir(), SimWorkers: 2},
		Lease:     time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return New(Config{Jobs: node.Jobs(), Replica: node}), node
}

func TestReplicaDisabledWithoutNode(t *testing.T) {
	s := New(Config{})
	w := post(t, s, "/v1/replica", `{"kind": "append", "term": 1, "from": "http://x"}`)
	if w.Code != http.StatusNotFound || errorCode(t, w) != "replica_disabled" {
		t.Fatalf("without node: status %d code %q, want 404 replica_disabled", w.Code, errorCode(t, w))
	}
}

func TestReplicaEndpointAndNotLeaderRedirect(t *testing.T) {
	s, node := newFollowerServer(t)

	// Before any leader contact, a mutation still answers 409 — with no
	// leader_url yet (an election could be in flight).
	w := post(t, s, "/v1/jobs", `{"wafers": 2}`)
	if w.Code != http.StatusConflict || errorCode(t, w) != "not_leader" {
		t.Fatalf("follower submit: status %d code %q, want 409 not_leader", w.Code, errorCode(t, w))
	}

	// A leader heartbeat over the HTTP endpoint: the reply carries the
	// follower's replication position and the node learns the leader URL.
	w = post(t, s, "/v1/replica", `{"kind": "append", "term": 5, "from": "http://leader.test"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("heartbeat status %d: %s", w.Code, w.Body)
	}
	var rep replica.Reply
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.Term != 5 || rep.Seq != 0 {
		t.Fatalf("heartbeat reply %+v, want OK at term 5 seq 0", rep)
	}
	if got := node.LeaderURL(); got != "http://leader.test" {
		t.Fatalf("leader URL %q", got)
	}

	// Mutations now point the client at the leader. Reads keep answering
	// locally — a follower serves its replicated state.
	w = post(t, s, "/v1/jobs", `{"wafers": 2}`)
	if w.Code != http.StatusConflict || errorCode(t, w) != "not_leader" {
		t.Fatalf("follower submit: status %d code %q", w.Code, errorCode(t, w))
	}
	var resp ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error.LeaderURL != "http://leader.test" {
		t.Fatalf("not_leader leader_url %q, want the heartbeat's from URL", resp.Error.LeaderURL)
	}
	if w := del(t, s, "/v1/jobs/job-000001"); w.Code != http.StatusConflict || errorCode(t, w) != "not_leader" {
		t.Fatalf("follower cancel: status %d code %q, want 409 not_leader", w.Code, errorCode(t, w))
	}
	if w := get(t, s, "/v1/jobs"); w.Code != http.StatusOK {
		t.Fatalf("follower list: status %d, want 200 (reads are local)", w.Code)
	}

	// A stale-term message is rejected in the Reply body, not via HTTP.
	w = post(t, s, "/v1/replica", `{"kind": "append", "term": 1, "from": "http://old.test"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("stale append status %d", w.Code)
	}
	rep = replica.Reply{} // rejection replies omit zero fields
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.Reason == "" {
		t.Fatalf("stale append reply %+v, want rejection with reason", rep)
	}

	// The replica counters join /metrics.
	w = get(t, s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	for _, metric := range []string{"yapserve_replica_role", "yapserve_replica_term 5", "yapserve_replica_peers 2"} {
		if !strings.Contains(w.Body.String(), metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
}

// TestReplicaAcceptsRecordAtWALBound: /v1/replica bodies are bounded by
// the largest record the WAL accepts, not by the 1 MiB client request
// limit, so an append whose record sits exactly at the bound lands on the
// follower.
func TestReplicaAcceptsRecordAtWALBound(t *testing.T) {
	s, node := newFollowerServer(t)
	payload := []byte(`{"t":"noop"`)
	payload = append(payload, bytes.Repeat([]byte(" "), jobs.MaxRecordBytes-len(payload)-1)...)
	payload = append(payload, '}')
	body, err := json.Marshal(replica.Message{
		Kind: replica.KindAppend, Term: 1, From: "http://leader.test",
		Seq: 1, CRC: jobs.RecordCRC(payload), Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := post(t, s, "/v1/replica", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("append of a %d-byte record (%d-byte body): status %d: %.200s", len(payload), len(body), w.Code, w.Body)
	}
	var rep replica.Reply
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.Seq != 1 {
		t.Fatalf("append reply %+v, want OK at seq 1", rep)
	}
	if seq := node.Jobs().ReplSeq(); seq != 1 {
		t.Fatalf("follower store at seq %d, want 1", seq)
	}
}

// TestSweepJobSubmitValidation: a parameter sweep is not a job. The sweep
// mode answers invalid_mode and points the client at the batch endpoint,
// and the sweep fields are unknown fields of the simulate body.
func TestSweepJobSubmitValidation(t *testing.T) {
	s := newJobsServer(t, Config{})
	cases := []struct {
		name, body, code string
	}{
		{"sweep mode", `{"mode": "sweep"}`, "invalid_mode"},
		{"sweep with points", `{"mode": "sweep", "points": [{}]}`, "invalid_json"},
		{"points on simulate", `{"mode": "w2w", "wafers": 2, "points": [{}]}`, "invalid_json"},
		{"eval on simulate", `{"mode": "w2w", "wafers": 2, "eval": "w2w"}`, "invalid_json"},
	}
	for _, tc := range cases {
		w := post(t, s, "/v1/jobs", tc.body)
		if w.Code != http.StatusBadRequest || errorCode(t, w) != tc.code {
			t.Errorf("%s: status %d code %q, want 400 %s", tc.name, w.Code, errorCode(t, w), tc.code)
		}
		if tc.code == "invalid_mode" && !strings.Contains(w.Body.String(), "/v1/evaluate/batch") {
			t.Errorf("%s: %s does not name /v1/evaluate/batch", tc.name, w.Body)
		}
	}
}
