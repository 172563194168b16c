package fleetcache

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"yap/internal/core"
	"yap/internal/faultinject"
)

func jsonReader(raw json.RawMessage) *bytes.Reader { return bytes.NewReader(raw) }

// stubTransport is an in-memory fleet: a peer URL -> key -> entry map
// plus failure knobs, so the peer-fetch tiers are testable without HTTP.
type stubTransport struct {
	mu      sync.Mutex
	entries map[string]map[flightKey]Entry
	err     error // every exchange fails with this when set
	fetches int
	offered chan Entry
}

func newStubTransport() *stubTransport {
	return &stubTransport{
		entries: make(map[string]map[flightKey]Entry),
		offered: make(chan Entry, 64),
	}
}

func (s *stubTransport) seed(peer, mode string, p core.Params, b core.Breakdown) {
	raw, err := json.Marshal(p)
	if err != nil {
		panic(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[peer] == nil {
		s.entries[peer] = make(map[flightKey]Entry)
	}
	h := p.CanonicalHash()
	s.entries[peer][flightKey{mode: mode, hash: h}] = Entry{Mode: mode, Hash: h, Params: raw, Breakdown: b}
}

func (s *stubTransport) FetchCached(ctx context.Context, peer, mode string, hash uint64) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetches++
	if s.err != nil {
		return Entry{}, s.err
	}
	e, ok := s.entries[peer][flightKey{mode: mode, hash: hash}]
	if !ok {
		return Entry{}, fmt.Errorf("stub: %w", ErrPeerMiss)
	}
	return e, nil
}

func (s *stubTransport) OfferCached(ctx context.Context, peer string, e Entry) error {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return s.err
	}
	if s.entries[peer] == nil {
		s.entries[peer] = make(map[flightKey]Entry)
	}
	s.entries[peer][flightKey{mode: e.Mode, hash: e.Hash}] = e
	s.mu.Unlock()
	s.offered <- e
	return nil
}

// ownedBy returns a parameter point whose rendezvous owner is the given
// member, scanning the pitch axis for one.
func ownedBy(t *testing.T, members []string, mode, owner string) core.Params {
	t.Helper()
	for i := 0; i < 256; i++ {
		p := core.Baseline().WithPitch(float64(20+i) * 1e-7)
		if Owner(members, mode, p.CanonicalHash()) == owner {
			return p
		}
	}
	t.Fatalf("no point owned by %s in 256 candidates", owner)
	return core.Params{}
}

func TestEvaluateComputesThenHits(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	p := core.Baseline()
	h := p.CanonicalHash()
	want, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	b, out, err := c.Evaluate(context.Background(), ModeW2W, h, p)
	if err != nil || out != OutcomeComputed || b != want {
		t.Fatalf("first: %v %v %v", b, out, err)
	}
	b, out, err = c.Evaluate(context.Background(), ModeW2W, h, p)
	if err != nil || out != OutcomeLocalHit || b != want {
		t.Fatalf("second: %v %v %v", b, out, err)
	}
	st := c.Stats()
	if st.Computes != 1 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if out.Cached() != true {
		t.Error("local hit not Cached()")
	}
}

func TestEvaluateUnknownMode(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	p := core.Baseline()
	if _, _, err := c.Evaluate(context.Background(), "both", p.CanonicalHash(), p); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestFlightCoalescesThunderingHerd(t *testing.T) {
	// A long injected delay at the flight hook holds the leader's
	// computation open while the herd piles in; exactly one engine
	// computation — counted both by Stats.Computes and by the hook's
	// roll count — must serve every caller.
	inj := faultinject.New(1, faultinject.Rule{
		Hook: faultinject.HookFleetFlight, Mode: faultinject.ModeDelay,
		Probability: 1, Delay: 100 * time.Millisecond,
	})
	c := New(Config{Faults: inj})
	defer c.Close()
	p := core.Baseline()
	h := p.CanonicalHash()
	want, _ := p.EvaluateW2W()

	const herd = 16
	var start, done sync.WaitGroup
	results := make([]core.Breakdown, herd)
	outcomes := make([]Outcome, herd)
	errs := make([]error, herd)
	start.Add(1)
	for i := 0; i < herd; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			results[i], outcomes[i], errs[i] = c.Evaluate(context.Background(), ModeW2W, h, p)
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != want {
			t.Fatalf("caller %d: %v != %v", i, results[i], want)
		}
	}
	st := c.Stats()
	if st.Computes != 1 {
		t.Errorf("computes = %d, want exactly 1", st.Computes)
	}
	if rolls := inj.Stats()[faultinject.HookFleetFlight].Rolls; rolls != 1 {
		t.Errorf("flight hook rolls = %d, want 1", rolls)
	}
	var coalesced int
	for _, o := range outcomes {
		if o == OutcomeCoalesced {
			coalesced++
		}
	}
	if uint64(coalesced) != st.Coalesced {
		t.Errorf("coalesced outcomes %d != stats %d", coalesced, st.Coalesced)
	}
}

func TestFlightPanicContained(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Hook: faultinject.HookFleetFlight, Mode: faultinject.ModePanic, Probability: 1,
	})
	c := New(Config{Faults: inj})
	defer c.Close()
	p := core.Baseline()
	h := p.CanonicalHash()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Evaluate(context.Background(), ModeW2W, h, p)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrFlightPanic) {
			t.Errorf("caller %d: err = %v, want ErrFlightPanic", i, err)
		}
	}
	if st := c.Stats(); st.FlightPanics == 0 {
		t.Error("no flight panics counted")
	}
}

func TestFlightErrorSharedByWaiters(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Hook: faultinject.HookFleetFlight, Mode: faultinject.ModeError, Probability: 1,
	})
	c := New(Config{Faults: inj})
	defer c.Close()
	p := core.Baseline()
	if _, _, err := c.Evaluate(context.Background(), ModeW2W, p.CanonicalHash(), p); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// The failed flight must not poison the key: with the fault gone the
	// next call computes normally.
	c2 := New(Config{})
	defer c2.Close()
	if _, out, err := c2.Evaluate(context.Background(), ModeW2W, p.CanonicalHash(), p); err != nil || out != OutcomeComputed {
		t.Fatalf("retry: %v %v", out, err)
	}
}

func TestPeerFetchFromOwner(t *testing.T) {
	members := []string{"http://a", "http://b"}
	tr := newStubTransport()
	c := New(Config{Self: "http://a", Members: members, Transport: tr})
	defer c.Close()

	p := ownedBy(t, members, ModeW2W, "http://b")
	want, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	tr.seed("http://b", ModeW2W, p, want)

	b, out, err := c.Evaluate(context.Background(), ModeW2W, p.CanonicalHash(), p)
	if err != nil || out != OutcomePeerHit {
		t.Fatalf("fetch: %v %v", out, err)
	}
	if b != want {
		t.Fatalf("peer breakdown %v != local %v (must be bit-identical)", b, want)
	}
	// The fetched entry was adopted: the repeat is a local hit, no
	// second network round-trip.
	if _, out, _ := c.Evaluate(context.Background(), ModeW2W, p.CanonicalHash(), p); out != OutcomeLocalHit {
		t.Errorf("repeat outcome = %v, want local hit", out)
	}
	st := c.Stats()
	if st.PeerHits != 1 || st.Computes != 0 || st.Adopted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPeerFetchRejectsCorruptEntry(t *testing.T) {
	members := []string{"http://a", "http://b"}
	tr := newStubTransport()
	c := New(Config{Self: "http://a", Members: members, Transport: tr})
	defer c.Close()

	p := ownedBy(t, members, ModeW2W, "http://b")
	// Poison the owner: an entry stored under p's key but holding a
	// different parameter set. Verification must reject it and fall back
	// to local compute — never serve the foreign breakdown.
	other := core.Baseline().WithPitch(9e-6)
	raw, _ := json.Marshal(other)
	h := p.CanonicalHash()
	tr.mu.Lock()
	tr.entries["http://b"] = map[flightKey]Entry{
		{mode: ModeW2W, hash: h}: {Mode: ModeW2W, Hash: h, Params: raw, Breakdown: core.Breakdown{Total: -1}},
	}
	tr.mu.Unlock()

	want, _ := p.EvaluateW2W()
	b, out, err := c.Evaluate(context.Background(), ModeW2W, h, p)
	if err != nil || out != OutcomeComputed || b != want {
		t.Fatalf("poisoned fetch: %v %v %v", b, out, err)
	}
	if st := c.Stats(); st.PeerErrors != 1 {
		t.Errorf("peer errors = %d, want 1", st.PeerErrors)
	}
}

func TestComputeOffersEntryToOwner(t *testing.T) {
	members := []string{"http://a", "http://b"}
	tr := newStubTransport()
	c := New(Config{Self: "http://a", Members: members, Transport: tr})
	defer c.Close()

	p := ownedBy(t, members, ModeW2W, "http://b")
	h := p.CanonicalHash()
	want, _ := p.EvaluateW2W()
	if _, out, err := c.Evaluate(context.Background(), ModeW2W, h, p); err != nil || out != OutcomeComputed {
		t.Fatalf("compute: %v %v", out, err)
	}
	// The owner miss degraded to local compute; the computed entry must
	// be offered to the owner asynchronously so the fleet converges on
	// one compute per key.
	select {
	case e := <-tr.offered:
		if e.Hash != h || e.Mode != ModeW2W || e.Breakdown != want {
			t.Errorf("offered entry %+v", e)
		}
		q, err := core.ReadParams(jsonReader(e.Params))
		if err != nil || q.CanonicalHash() != h {
			t.Errorf("offered params do not verify: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no offer reached the owner")
	}
}

func TestDeadPeerDegradesToLocalComputeAndBreaks(t *testing.T) {
	members := []string{"http://a", "http://b"}
	tr := newStubTransport()
	tr.err = errors.New("connection refused")
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := New(Config{
		Self: "http://a", Members: members, Transport: tr,
		BreakerThreshold: 3, BreakerCooldown: 2 * time.Second, Clock: clock,
	})
	defer c.Close()

	// Distinct points all owned by the dead peer: every one must succeed
	// via local compute, never error.
	var pts []core.Params
	for i := 0; i < 512 && len(pts) < 6; i++ {
		p := core.Baseline().WithPitch(float64(20+i) * 1e-7)
		if Owner(members, ModeW2W, p.CanonicalHash()) == "http://b" {
			pts = append(pts, p)
		}
	}
	for i, p := range pts {
		b, out, err := c.Evaluate(context.Background(), ModeW2W, p.CanonicalHash(), p)
		if err != nil || out != OutcomeComputed {
			t.Fatalf("point %d: %v %v", i, out, err)
		}
		want, _ := p.EvaluateW2W()
		if b != want {
			t.Fatalf("point %d: wrong breakdown", i)
		}
	}
	st := c.Stats()
	if st.Computes != uint64(len(pts)) {
		t.Errorf("computes = %d, want %d", st.Computes, len(pts))
	}
	if st.BreakersOpen != 1 {
		t.Errorf("breakers open = %d, want 1", st.BreakersOpen)
	}
	// After three failures the breaker opened; later fetches were shed
	// without touching the transport. (Pushes also hit the same breaker,
	// so just assert the transport saw fewer calls than points.)
	tr.mu.Lock()
	fetches := tr.fetches
	tr.mu.Unlock()
	if fetches >= len(pts) {
		t.Errorf("breaker never sheds: %d fetches for %d points", fetches, len(pts))
	}
}

func TestLookupAndAdopt(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	p := core.Baseline()
	h := p.CanonicalHash()
	if _, ok := c.Lookup(ModeW2W, h); ok {
		t.Fatal("lookup hit an empty cache")
	}
	want, _ := p.EvaluateW2W()
	c.Adopt(ModeW2W, h, p, want)
	e, ok := c.Lookup(ModeW2W, h)
	if !ok || e.Breakdown != want || e.Mode != ModeW2W || e.Hash != h {
		t.Fatalf("lookup: %+v %v", e, ok)
	}
	q, err := core.ReadParams(jsonReader(e.Params))
	if err != nil || !q.Equal(p) {
		t.Fatalf("lookup params do not round-trip: %v", err)
	}
	if st := c.Stats(); st.Adopted != 1 || st.PeerServed != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Lookup never computes: a missing key stays missing.
	if _, ok := c.Lookup(ModeD2W, h); ok {
		t.Error("lookup computed a missing key")
	}
}

// TestEvaluateMatchesEngine: in both modes a computed entry is the
// engine's breakdown bit for bit.
func TestEvaluateMatchesEngine(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	p := core.Baseline().WithPitch(4e-6)
	for _, mode := range []string{ModeW2W, ModeD2W} {
		got, _, err := c.Evaluate(context.Background(), mode, p.CanonicalHash(), p)
		if err != nil {
			t.Fatal(err)
		}
		var want core.Breakdown
		if mode == ModeW2W {
			want, _ = p.EvaluateW2W()
		} else {
			want, _ = p.EvaluateD2W()
		}
		if got != want {
			t.Errorf("%s: %v != %v", mode, got, want)
		}
	}
}

func TestOwnerIsStableAndOrderIndependent(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	perm := []string{"http://c", "http://a", "http://b"}
	ownersSeen := map[string]int{}
	for i := 0; i < 300; i++ {
		h := uint64(i) * 0x9e3779b97f4a7c15
		o1 := Owner(members, ModeW2W, h)
		if o2 := Owner(perm, ModeW2W, h); o1 != o2 {
			t.Fatalf("owner depends on member order: %s vs %s", o1, o2)
		}
		if o3 := Owner(members, ModeW2W, h); o1 != o3 {
			t.Fatalf("owner not stable: %s vs %s", o1, o3)
		}
		ownersSeen[o1]++
	}
	for _, m := range members {
		if ownersSeen[m] == 0 {
			t.Errorf("member %s owns no keys out of 300", m)
		}
	}
	// Removing a member only reassigns that member's keys.
	survivors := []string{"http://a", "http://c"}
	for i := 0; i < 300; i++ {
		h := uint64(i) * 0x9e3779b97f4a7c15
		before := Owner(members, ModeW2W, h)
		after := Owner(survivors, ModeW2W, h)
		if before != "http://b" && before != after {
			t.Fatalf("key %d moved from %s to %s though its owner survived", i, before, after)
		}
	}
	if Owner(nil, ModeW2W, 7) != "" {
		t.Error("empty member list must own nothing")
	}
}
