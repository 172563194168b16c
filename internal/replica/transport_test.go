package replica_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"yap/internal/replica"
	"yap/internal/service"
)

// TestHTTPTransportRoundTrip: an append and a vote cross real HTTP to the
// peer's replication endpoint intact, and its reply comes back intact.
func TestHTTPTransportRoundTrip(t *testing.T) {
	var (
		mu  sync.Mutex
		got []replica.Message
	)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != replica.ReplicaPath {
			t.Errorf("request %s %s, want POST %s", r.Method, r.URL.Path, replica.ReplicaPath)
		}
		var msg replica.Message
		if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
			t.Errorf("decoding message: %v", err)
		}
		mu.Lock()
		got = append(got, msg)
		mu.Unlock()
		reply := replica.Reply{Term: msg.Term, Seq: msg.Seq, LastTerm: msg.Term, OK: msg.Kind == replica.KindAppend,
			Granted: msg.Kind == replica.KindVote, Reason: "seen " + msg.Kind}
		if err := json.NewEncoder(w).Encode(reply); err != nil {
			t.Errorf("encoding reply: %v", err)
		}
	}))
	defer peer.Close()

	tr := &replica.HTTPTransport{}
	ctx := context.Background()
	sent := []replica.Message{
		{Kind: replica.KindAppend, Term: 3, From: "http://leader.test", Seq: 7, CRC: 0xdeadbeef,
			Payload: []byte{0, 1, 2, 0xff}, PrevTerm: 2, CommitSeq: 6},
		{Kind: replica.KindVote, Term: 4, From: "http://candidate.test", LastSeq: 7, LastTerm: 3},
	}
	want := []replica.Reply{
		{Term: 3, OK: true, Seq: 7, LastTerm: 3, Reason: "seen append"},
		{Term: 4, Granted: true, LastTerm: 4, Reason: "seen vote"},
	}
	for i, msg := range sent {
		reply, err := tr.Send(ctx, peer.URL+"/", msg)
		if err != nil {
			t.Fatalf("%s: %v", msg.Kind, err)
		}
		if !reflect.DeepEqual(reply, want[i]) {
			t.Errorf("%s: reply %+v, want %+v", msg.Kind, reply, want[i])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, sent) {
		t.Errorf("peer received %+v, want %+v", got, sent)
	}
}

// TestHTTPTransportNon200IsError: a daemon that is not a cluster member
// answers 404 replica_disabled, which Send reports as an error rather
// than as a reply.
func TestHTTPTransportNon200IsError(t *testing.T) {
	peer := httptest.NewServer(service.New(service.Config{}))
	defer peer.Close()
	_, err := (&replica.HTTPTransport{}).Send(context.Background(), peer.URL,
		replica.Message{Kind: replica.KindAppend, Term: 1, From: "http://leader.test"})
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("err = %v, want an error naming the 404", err)
	}
}

// TestHTTPTransportUnreachablePeer: a peer that is gone is a transport
// error.
func TestHTTPTransportUnreachablePeer(t *testing.T) {
	peer := httptest.NewServer(http.NotFoundHandler())
	url := peer.URL
	peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := (&replica.HTTPTransport{}).Send(ctx, url, replica.Message{Kind: replica.KindVote, Term: 1, From: "http://candidate.test"}); err == nil {
		t.Fatal("send to a closed peer succeeded")
	}
}
