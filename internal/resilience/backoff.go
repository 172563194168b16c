// Package resilience holds the stdlib-only fault-tolerance primitives the
// yapserve stack is built on: capped exponential backoff with
// deterministic jitter (Backoff), a three-state circuit breaker (Breaker)
// and a bounded-queue load shedder (Shedder). The service's worker pool
// sheds instead of queueing unboundedly, and the retrying HTTP client in
// internal/client paces itself with Backoff. The breaker guards two
// places: the service's simulate and shard admission, which fails fast
// after repeated internal simulation failures, and the fleet cache's
// exchanges with each peer, which stop calling a peer that keeps failing.
package resilience

import (
	"context"
	"math"
	"time"

	"yap/internal/randx"
)

// Backoff computes capped exponential retry delays with deterministic
// jitter: Delay(attempt) is a pure function of (Seed, attempt), so a
// replayed chaos run backs off identically. The zero value is usable —
// 100ms base, 10s cap, factor 2, ±10% jitter, seed 0.
type Backoff struct {
	// Base is the attempt-0 delay; 0 means 100ms.
	Base time.Duration
	// Max caps the grown delay; 0 means 10s.
	Max time.Duration
	// Factor is the per-attempt growth; 0 means 2.
	Factor float64
	// Jitter is the fraction of the delay randomized symmetrically around
	// it (0.2 spreads ±10%); 0 means 0.2, negative disables jitter.
	Jitter float64
	// Seed roots the jitter stream. Distinct clients should use distinct
	// seeds so their retries decorrelate.
	Seed uint64
}

// Delay returns the pause before retry number attempt (0-based: the wait
// between the first failure and the second try).
func (b Backoff) Delay(attempt int) time.Duration {
	base, maxd, factor, jitter := b.Base, b.Max, b.Factor, b.Jitter
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if maxd <= 0 {
		maxd = 10 * time.Second
	}
	if factor <= 0 {
		factor = 2
	}
	if jitter == 0 {
		jitter = 0.2
	}
	if attempt < 0 {
		attempt = 0
	}
	d := float64(base) * math.Pow(factor, float64(attempt))
	if d > float64(maxd) {
		d = float64(maxd)
	}
	if jitter > 0 {
		u := randx.Derive(b.Seed, uint64(attempt)).Float64()
		d *= 1 - jitter/2 + jitter*u
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Sleep blocks for d or until ctx fires, returning ctx's error in the
// latter case. It is the context-aware time.Sleep every retry loop in the
// repository uses.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
