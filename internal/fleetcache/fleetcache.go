// Package fleetcache is the fleet-shared, deduplicating evaluation tier
// for analytic yield breakdowns. Analytic results are pure functions of
// (mode, core.Params) — identified by core.Params.CanonicalHash — so the
// fleet should compute each distinct point once, not once per daemon and
// certainly not once per request. Three mechanisms stack to get there:
//
//  1. Singleflight. Concurrent identical evaluations on one daemon
//     coalesce onto a single in-flight computation; waiters share the
//     leader's result (and its error — a panicking flight is contained
//     and reported, never propagated as a panic).
//  2. Peer fetch. On a local miss, rendezvous hashing over the member
//     list picks the key's stable owner; a non-owner asks the owner over
//     HTTP (GET /v1/cache/{mode}/{hash}) before computing. Fetched
//     entries carry the full parameter set and are hash- and
//     value-verified before use, so a poisoned or colliding entry can
//     cost a recomputation but never serve a wrong result. Owners that
//     miss are warmed asynchronously: whoever computes a key offers the
//     entry to its owner, so the fleet converges on one compute per key.
//  3. Degradation. Every peer exchange is guarded by a per-peer circuit
//     breaker (internal/resilience) with an injectable clock and a
//     deterministic timeout: a dead or slow owner degrades to local
//     compute, never to a request error.
//
// The local store is the LRU that used to live in internal/service
// (hash-keyed, collision-treated-as-miss), now with hit/miss/eviction
// accounting exposed via Stats. The package sits in the yaplint
// determinism tree: no wall-clock reads (breaker time is injected), no
// ambient randomness (rendezvous scores are FNV-1a), no map iteration
// in any result-affecting path.
package fleetcache

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/resilience"
)

// Evaluation modes. The strings match the service wire protocol and the
// /v1/cache/{mode}/{hash} path segment.
const (
	ModeW2W = "w2w"
	ModeD2W = "d2w"
)

// ErrFlightPanic is wrapped by the error every coalesced caller receives
// when the singleflight leader panicked: containment converts the panic
// into an error so one poisoned parameter point cannot take down every
// request that happened to coalesce onto it.
var ErrFlightPanic = errors.New("fleetcache: panic during coalesced evaluation")

// fetchTimeout bounds each peer exchange.
const fetchTimeout = 150 * time.Millisecond

// Config tunes a Cache. The zero value is a single-member, peer-less
// cache with a 1024-entry LRU — the drop-in replacement for the old
// per-daemon resultCache.
type Config struct {
	// CacheSize is the LRU capacity in entries; 0 means 1024, negative
	// disables local storage (every lookup misses; peer fetch and
	// singleflight still apply).
	CacheSize int
	// Self is this member's advertised base URL, as it appears in
	// Members. Empty means single-member operation (no peer exchange).
	Self string
	// Members is the full fleet — Self included — over which keys are
	// rendezvous-hashed. Order does not matter; duplicates are dropped.
	Members []string
	// Transport performs the peer HTTP exchanges. nil disables peer
	// fetch and push even when Members is populated.
	Transport Transport
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's circuit breaker; 0 means 3, negative disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open peer breaker sheds before
	// probing; 0 means 2s.
	BreakerCooldown time.Duration
	// Clock overrides the breakers' time source, for deterministic
	// tests. nil means the wall clock.
	Clock func() time.Time
	// Faults optionally arms deterministic fault injection at the
	// cache-get/put, flight and peer-exchange hooks; nil disables.
	Faults *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	return c
}

// Outcome classifies how Evaluate produced its breakdown.
type Outcome int

const (
	// OutcomeComputed: this call ran the analytic engine.
	OutcomeComputed Outcome = iota
	// OutcomeLocalHit: served from the local LRU.
	OutcomeLocalHit
	// OutcomePeerHit: fetched from the key's owner peer.
	OutcomePeerHit
	// OutcomeCoalesced: joined another caller's in-flight evaluation.
	OutcomeCoalesced
)

func (o Outcome) String() string {
	switch o {
	case OutcomeComputed:
		return "computed"
	case OutcomeLocalHit:
		return "cache"
	case OutcomePeerHit:
		return "peer"
	case OutcomeCoalesced:
		return "coalesced"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Cached reports whether the outcome avoided running the engine on any
// member (a coalesced waiter avoided a computation too, but the answer
// it received was computed, not cached).
func (o Outcome) Cached() bool {
	return o == OutcomeLocalHit || o == OutcomePeerHit
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Entries is the current LRU population; Members the fleet size
	// (1 when peer exchange is off); BreakersOpen counts peers whose
	// circuit is currently open.
	Entries, Members, BreakersOpen int

	// Local tier.
	Hits, Misses, Evictions, Collisions uint64

	// Flight tier.
	Computes, Coalesced, FlightPanics uint64

	// Peer tier. PeerServed counts lookups answered FOR peers;
	// Adopted counts entries accepted from peers (fetch or push);
	// Pushes/PushDrops count owner-warming offers sent and abandoned.
	PeerHits, PeerMisses, PeerErrors, PeerServed uint64
	Adopted, Pushes, PushDrops                   uint64
}

// Cache is the fleet-shared evaluation tier. Create with New; all
// methods are safe for concurrent use. Close releases the background
// pusher (only started when peer exchange is configured).
type Cache struct {
	cfg     Config
	members []string // sorted, deduped, includes Self
	store   *lru
	flights flightGroup
	// breakers is fixed at construction (peer URL -> breaker) and read
	// concurrently without locking thereafter.
	breakers map[string]*resilience.Breaker

	pushCh chan pushReq
	closed chan struct{}
	wg     sync.WaitGroup

	hits, misses, evictions, collisions atomic.Uint64
	computes, coalesced, flightPanics   atomic.Uint64
	peerHits, peerMisses, peerErrors    atomic.Uint64
	peerServed, adopted                 atomic.Uint64
	pushes, pushDrops                   atomic.Uint64
}

// pushReq is one owner-warming offer queued for the background pusher.
type pushReq struct {
	peer  string
	entry Entry
}

// New returns a ready Cache. Peer exchange activates only when cfg names
// a Transport, a Self and at least one other member; otherwise the cache
// is a purely local tier (plus singleflight).
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{
		cfg:    cfg,
		store:  newLRU(cfg.CacheSize),
		closed: make(chan struct{}),
	}
	c.flights.m = make(map[flightKey]*flight)
	seen := make(map[string]bool, len(cfg.Members))
	for _, m := range cfg.Members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		c.members = append(c.members, m)
	}
	sort.Strings(c.members)
	c.breakers = make(map[string]*resilience.Breaker, len(c.members))
	if cfg.BreakerThreshold > 0 {
		for _, m := range c.members {
			if m == cfg.Self {
				continue
			}
			c.breakers[m] = resilience.NewBreaker(resilience.BreakerConfig{
				Threshold: cfg.BreakerThreshold,
				Cooldown:  cfg.BreakerCooldown,
				Clock:     cfg.Clock,
			})
		}
	}
	if c.peering() {
		c.pushCh = make(chan pushReq, 256)
		c.wg.Add(1)
		go c.pusher()
	}
	return c
}

// peering reports whether peer exchange is configured.
func (c *Cache) peering() bool {
	return c.cfg.Transport != nil && c.cfg.Self != "" && len(c.members) > 1
}

// Close stops the background pusher and waits for an in-progress offer
// to finish. Idempotent is not required; call once, after the HTTP
// server stops. nil-receiver safe.
func (c *Cache) Close() {
	if c == nil {
		return
	}
	close(c.closed)
	c.wg.Wait()
}

// Evaluate returns the analytic breakdown for (mode, p), consulting the
// local LRU, coalescing concurrent identical requests, fetching from the
// key's owner peer, and only then computing. The cache tiers are pure
// optimization: injected faults and dead peers degrade toward local
// compute, never into a spurious error.
func (c *Cache) Evaluate(ctx context.Context, mode string, hash uint64, p core.Params) (core.Breakdown, Outcome, error) {
	if mode != ModeW2W && mode != ModeD2W {
		return core.Breakdown{}, OutcomeComputed, fmt.Errorf("fleetcache: unknown mode %q", mode)
	}
	if err := c.cfg.Faults.Fire(ctx, faultinject.HookCacheGet); err == nil {
		if b, ok, collided := c.store.get(mode, hash, p); ok {
			c.hits.Add(1)
			return b, OutcomeLocalHit, nil
		} else if collided {
			c.collisions.Add(1)
		}
	}
	c.misses.Add(1)
	b, out, err := c.flights.do(ctx, flightKey{mode: mode, hash: hash},
		func(fctx context.Context) (core.Breakdown, Outcome, error) {
			return c.fill(fctx, mode, hash, p)
		})
	switch {
	case out == OutcomeCoalesced:
		c.coalesced.Add(1)
	case errors.Is(err, ErrFlightPanic):
		c.flightPanics.Add(1)
	}
	return b, out, err
}

// fill is the flight leader's miss path: owner fetch, then compute.
func (c *Cache) fill(ctx context.Context, mode string, hash uint64, p core.Params) (core.Breakdown, Outcome, error) {
	if b, ok := c.fetchFromOwner(ctx, mode, hash, p); ok {
		c.adopt(ctx, mode, hash, p, b)
		return b, OutcomePeerHit, nil
	}
	if err := c.cfg.Faults.Fire(ctx, faultinject.HookFleetFlight); err != nil {
		return core.Breakdown{}, OutcomeComputed, err
	}
	var b core.Breakdown
	var err error
	if mode == ModeW2W {
		b, err = p.EvaluateW2W()
	} else {
		b, err = p.EvaluateD2W()
	}
	if err != nil {
		return core.Breakdown{}, OutcomeComputed, err
	}
	c.computes.Add(1)
	if ferr := c.cfg.Faults.Fire(ctx, faultinject.HookCachePut); ferr == nil {
		c.evictions.Add(uint64(c.store.put(mode, hash, p, b)))
	}
	c.offerToOwner(mode, hash, p, b)
	return b, OutcomeComputed, nil
}

// ownerOf resolves the key's rendezvous owner, or "" when peer exchange
// is off or this member owns the key itself.
func (c *Cache) ownerOf(mode string, hash uint64) string {
	if !c.peering() {
		return ""
	}
	owner := Owner(c.members, mode, hash)
	if owner == c.cfg.Self {
		return ""
	}
	return owner
}

// fetchFromOwner consults the key's owner peer. Any failure — open
// breaker, injected fault, timeout, miss, verification failure — reports
// a miss; the caller computes locally.
func (c *Cache) fetchFromOwner(ctx context.Context, mode string, hash uint64, p core.Params) (core.Breakdown, bool) {
	owner := c.ownerOf(mode, hash)
	if owner == "" {
		return core.Breakdown{}, false
	}
	br := c.breakers[owner]
	if br.Allow() != nil {
		c.peerErrors.Add(1)
		return core.Breakdown{}, false
	}
	if err := c.cfg.Faults.Fire(ctx, faultinject.HookFleetFetch); err != nil {
		br.Record(false)
		c.peerErrors.Add(1)
		return core.Breakdown{}, false
	}
	fctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	e, err := c.cfg.Transport.FetchCached(fctx, owner, mode, hash)
	if err != nil {
		if errors.Is(err, ErrPeerMiss) {
			// A miss is a healthy answer: the owner is up, just cold.
			br.Record(true)
			c.peerMisses.Add(1)
		} else {
			br.Record(false)
			c.peerErrors.Add(1)
		}
		return core.Breakdown{}, false
	}
	// Verify before trusting: the entry must decode, its canonical hash
	// must match the key, and — stronger, closing the hash-collision
	// hole — its parameters must equal the ones we were asked about.
	q, err := core.DecodeParams(core.Baseline(), bytes.NewReader(e.Params))
	if err != nil || q.CanonicalHash() != hash || !q.Equal(p) {
		br.Record(false)
		c.peerErrors.Add(1)
		return core.Breakdown{}, false
	}
	br.Record(true)
	c.peerHits.Add(1)
	return e.Breakdown, true
}

// adopt stores a verified peer-sourced entry locally.
func (c *Cache) adopt(ctx context.Context, mode string, hash uint64, p core.Params, b core.Breakdown) {
	if err := c.cfg.Faults.Fire(ctx, faultinject.HookCachePut); err != nil {
		return
	}
	c.evictions.Add(uint64(c.store.put(mode, hash, p, b)))
	c.adopted.Add(1)
}

// offerToOwner queues an owner-warming push for a key this member just
// computed on the owner's behalf. Best-effort: a full queue drops the
// offer (the owner recomputes on its next direct request).
func (c *Cache) offerToOwner(mode string, hash uint64, p core.Params, b core.Breakdown) {
	owner := c.ownerOf(mode, hash)
	if owner == "" {
		return
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return
	}
	req := pushReq{peer: owner, entry: Entry{Mode: mode, Hash: hash, Params: raw, Breakdown: b}}
	select {
	case c.pushCh <- req:
	default:
		c.pushDrops.Add(1)
	}
}

// pusher drains owner-warming offers until Close.
func (c *Cache) pusher() {
	defer c.wg.Done()
	for {
		select {
		case <-c.closed:
			return
		case req := <-c.pushCh:
			c.push(req)
		}
	}
}

// push delivers one owner-warming offer, breaker-guarded and bounded by
// the fetch timeout. The pusher goroutine owns the Background-rooted
// context: offers outlive the request that computed the value.
func (c *Cache) push(req pushReq) {
	br := c.breakers[req.peer]
	if br.Allow() != nil {
		c.pushDrops.Add(1)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
	defer cancel()
	if err := c.cfg.Faults.Fire(ctx, faultinject.HookFleetFetch); err != nil {
		br.Record(false)
		c.pushDrops.Add(1)
		return
	}
	if err := c.cfg.Transport.OfferCached(ctx, req.peer, req.entry); err != nil {
		br.Record(false)
		c.pushDrops.Add(1)
		return
	}
	br.Record(true)
	c.pushes.Add(1)
}

// Lookup serves a peer's GET /v1/cache/{mode}/{hash}: the local LRU
// only — never a computation, never a peer fetch — so lookup storms
// cannot cascade across the fleet.
func (c *Cache) Lookup(mode string, hash uint64) (Entry, bool) {
	p, b, ok := c.store.peek(mode, hash)
	if !ok {
		return Entry{}, false
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return Entry{}, false
	}
	c.peerServed.Add(1)
	return Entry{Mode: mode, Hash: hash, Params: raw, Breakdown: b}, true
}

// Adopt stores an entry pushed by a peer (PUT /v1/cache/{mode}/{hash}).
// The caller has already decoded and hash-verified the parameters.
func (c *Cache) Adopt(mode string, hash uint64, p core.Params, b core.Breakdown) {
	c.evictions.Add(uint64(c.store.put(mode, hash, p, b)))
	c.adopted.Add(1)
}

// Members returns the configured fleet (sorted, Self included).
func (c *Cache) Members() []string {
	out := make([]string, len(c.members))
	copy(out, c.members)
	return out
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Entries:      c.store.len(),
		Members:      len(c.members),
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		Collisions:   c.collisions.Load(),
		Computes:     c.computes.Load(),
		Coalesced:    c.coalesced.Load(),
		FlightPanics: c.flightPanics.Load(),
		PeerHits:     c.peerHits.Load(),
		PeerMisses:   c.peerMisses.Load(),
		PeerErrors:   c.peerErrors.Load(),
		PeerServed:   c.peerServed.Load(),
		Adopted:      c.adopted.Load(),
		Pushes:       c.pushes.Load(),
		PushDrops:    c.pushDrops.Load(),
	}
	if st.Members == 0 {
		st.Members = 1
	}
	for _, m := range c.members {
		if br, ok := c.breakers[m]; ok && br.State() == resilience.BreakerOpen {
			st.BreakersOpen++
		}
	}
	return st
}
