package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen sheds everything until the cooldown passes.
	BreakerOpen
	// BreakerHalfOpen admits one probe; its outcome closes or re-opens.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrBreakerOpen matches (via errors.Is) the typed *BreakerOpenError every
// shed admission returns.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerOpenError reports a shed admission together with how long the
// caller should wait before the breaker will consider a probe.
type BreakerOpenError struct {
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("resilience: circuit breaker open; retry after %v", e.RetryAfter)
}

// Is lets errors.Is(err, ErrBreakerOpen) match the typed error.
func (e *BreakerOpenError) Is(target error) bool { return target == ErrBreakerOpen }

// BreakerConfig tunes a Breaker. The zero value means: open after 5
// consecutive failures, stay open 5s, real clock.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the breaker;
	// 0 means 5.
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe; 0 means 5s.
	Cooldown time.Duration
	// Clock overrides time.Now, for deterministic tests.
	Clock func() time.Time
}

// Breaker is a three-state circuit breaker. Closed, it counts consecutive
// failures reported via Record; at Threshold it opens and Allow sheds with
// a *BreakerOpenError carrying the remaining cooldown. After Cooldown it
// admits a single half-open probe: a success closes the circuit, a
// failure re-opens it for another cooldown.
//
// All methods are safe for concurrent use and nil-receiver safe — a nil
// *Breaker is the disabled state that admits everything.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState //yaplint:guardedby mu
	fails    int          //yaplint:guardedby mu
	openedAt time.Time    //yaplint:guardedby mu
	probing  bool         //yaplint:guardedby mu
	opens    uint64       //yaplint:guardedby mu
}

// NewBreaker returns a closed Breaker with cfg's defaults applied.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Breaker{cfg: cfg}
}

// Allow asks to pass one request. It returns nil to admit (the caller
// must later call Record with the outcome, or Release when it is neutral)
// or a *BreakerOpenError to shed.
func (b *Breaker) Allow() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		remaining := b.openedAt.Add(b.cfg.Cooldown).Sub(b.cfg.Clock())
		if remaining > 0 {
			return &BreakerOpenError{RetryAfter: remaining}
		}
		b.state = BreakerHalfOpen
		b.probing = false
		fallthrough
	case BreakerHalfOpen:
		if b.probing {
			return &BreakerOpenError{RetryAfter: b.cfg.Cooldown}
		}
		b.probing = true
		return nil
	default:
		return nil
	}
}

// Record reports the outcome of an admitted request. A neutral outcome
// (a client-side cancellation, a deadline, a shed) says nothing about the
// protected resource's health: report it with Release instead.
func (b *Breaker) Record(success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if success {
		b.fails = 0
		b.state = BreakerClosed
		b.probing = false
		return
	}
	b.fails++
	switch b.state {
	case BreakerHalfOpen:
		b.trip()
	case BreakerClosed:
		if b.fails >= b.cfg.Threshold {
			b.trip()
		}
	}
}

// Release ends an admitted request whose outcome is neutral. It counts
// neither way, but a half-open probe that ends so frees the probe slot,
// so the next Allow admits a new probe.
func (b *Breaker) Release() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// trip moves to open at the current clock; callers hold b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.Clock()
	b.probing = false
	b.opens++
}

// State returns the current position (re-evaluating an elapsed cooldown
// is Allow's job; State reports the stored position).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens counts closed→open transitions since construction.
func (b *Breaker) Opens() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
