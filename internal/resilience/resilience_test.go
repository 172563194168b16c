package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBackoffDeterministicAndCapped(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Seed: 3}
	for attempt := 0; attempt < 12; attempt++ {
		d1, d2 := b.Delay(attempt), b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: jitter not deterministic (%v vs %v)", attempt, d1, d2)
		}
		// ±10% jitter around the capped exponential.
		if lim := time.Duration(float64(b.Max) * 1.1); d1 > lim {
			t.Errorf("attempt %d: delay %v exceeds jittered cap %v", attempt, d1, lim)
		}
		if d1 <= 0 {
			t.Errorf("attempt %d: non-positive delay %v", attempt, d1)
		}
	}
	// Growth: attempt 2 should exceed attempt 0 well beyond jitter.
	if d0, d2 := b.Delay(0), b.Delay(2); d2 < 2*d0 {
		t.Errorf("no exponential growth: Delay(0)=%v Delay(2)=%v", d0, d2)
	}
}

func TestBackoffZeroValueUsable(t *testing.T) {
	var b Backoff
	if d := b.Delay(0); d < 80*time.Millisecond || d > 120*time.Millisecond {
		t.Errorf("zero-value Delay(0) = %v, want ~100ms ±10%%", d)
	}
}

func TestBackoffSeedsDecorrelate(t *testing.T) {
	a := Backoff{Seed: 1}
	b := Backoff{Seed: 2}
	same := true
	for i := 0; i < 8 && same; i++ {
		same = a.Delay(i) == b.Delay(i)
	}
	if same {
		t.Error("distinct seeds produced identical 8-delay sequences")
	}
}

func TestSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("zero sleep errored: %v", err)
	}
}

// fakeClock is a manually advanced clock for breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second, Clock: clk.Now})

	// Closed: admits, and failures below threshold keep it closed.
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker shed: %v", err)
		}
		b.Record(false)
	}
	if s := b.State(); s != BreakerClosed {
		t.Fatalf("state %v before threshold", s)
	}

	// Third consecutive failure trips it.
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(false)
	if s := b.State(); s != BreakerOpen {
		t.Fatalf("state %v after threshold, want open", s)
	}
	err := b.Allow()
	var oe *BreakerOpenError
	if !errors.As(err, &oe) || !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v", err)
	}
	if oe.RetryAfter <= 0 || oe.RetryAfter > time.Second {
		t.Errorf("RetryAfter = %v, want (0, 1s]", oe.RetryAfter)
	}

	// After the cooldown: exactly one probe is admitted.
	clk.Advance(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("post-cooldown probe shed: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second in-flight probe admitted: %v", err)
	}

	// Probe failure re-opens for another full cooldown.
	b.Record(false)
	if s := b.State(); s != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", s)
	}
	clk.Advance(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(true)
	if s := b.State(); s != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", s)
	}
	if n := b.Opens(); n != 2 {
		t.Errorf("Opens() = %d, want 2", n)
	}
}

// TestBreakerNeutralProbeReleases: a half-open probe that ends neutral
// (canceled, deadline, shed) must free the probe slot, or the breaker
// sheds every later request until restart.
func TestBreakerNeutralProbeReleases(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second, Clock: clk.Now})
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(false)
	if s := b.State(); s != BreakerOpen {
		t.Fatalf("state %v after threshold, want open", s)
	}
	clk.Advance(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("post-cooldown probe shed: %v", err)
	}
	b.Release()
	if err := b.Allow(); err != nil {
		t.Fatalf("probe after a neutral probe shed: %v", err)
	}
	if s := b.State(); s != BreakerHalfOpen {
		t.Errorf("state %v after a neutral probe, want half-open", s)
	}
	b.Record(true)
	if s := b.State(); s != BreakerClosed {
		t.Errorf("state %v after a successful probe, want closed", s)
	}
}

func TestBreakerNilDisabled(t *testing.T) {
	var b *Breaker
	if err := b.Allow(); err != nil {
		t.Fatalf("nil breaker shed: %v", err)
	}
	b.Release()
	b.Record(false)
	if s := b.State(); s != BreakerClosed {
		t.Errorf("nil breaker state %v", s)
	}
}

func TestShedderBoundsAndSheds(t *testing.T) {
	s := NewShedder(2, 1)
	ctx := context.Background()

	// Fill both slots.
	if err := s.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if a := s.Active(); a != 2 {
		t.Fatalf("active = %d", a)
	}

	// One waiter fits in the queue; it must eventually be admitted.
	admitted := make(chan error, 1)
	go func() { admitted <- s.Acquire(ctx) }()
	for s.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}

	// The queue is now full: the next admission sheds immediately.
	if err := s.Acquire(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}

	// Releasing a slot admits the waiter.
	s.Release()
	if err := <-admitted; err != nil {
		t.Fatalf("queued caller errored: %v", err)
	}
	s.Release()
	s.Release()
	if a := s.Active(); a != 0 {
		t.Errorf("active = %d after full release", a)
	}
}

// TestShedderRefusesDoneContext: a caller whose context is already done
// is never admitted, even with every slot free.
func TestShedderRefusesDoneContext(t *testing.T) {
	s := NewShedder(2, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Acquire = %v, want context.Canceled", err)
	}
	if err := s.AcquireWait(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("AcquireWait = %v, want context.Canceled", err)
	}
	if a, q := s.Active(), s.Queued(); a != 0 || q != 0 {
		t.Errorf("active %d queued %d after refusals, want 0 and 0", a, q)
	}
}

func TestShedderAcquireCtxWhileQueued(t *testing.T) {
	s := NewShedder(1, 4)
	if err := s.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	s.Release()
}

func TestShedderAcquireWaitBypassesQueueBound(t *testing.T) {
	s := NewShedder(1, 0)
	if err := s.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The bounded path sheds...
	if err := s.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	// ...but AcquireWait queues regardless.
	admitted := make(chan error, 1)
	go func() { admitted <- s.AcquireWait(context.Background()) }()
	for s.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	s.Release()
	if err := <-admitted; err != nil {
		t.Fatal(err)
	}
	s.Release()
}

func TestShedderCloseAndDrain(t *testing.T) {
	s := NewShedder(2, 2)
	ctx := context.Background()
	if err := s.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Acquire(ctx); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-Close Acquire: %v", err)
	}
	if err := s.AcquireWait(ctx); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-Close AcquireWait: %v", err)
	}

	// Drain blocks until the in-flight job releases.
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned with a job active: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	s.Release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}

	// Drain with a dead context gives up.
	if err := s.Acquire(ctx); !errors.Is(err, ErrShutdown) {
		t.Fatal("Close did not stick")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := s.Drain(canceled); err == nil {
		// No active work, so nil is fine here — force the blocking path.
		t.Log("drain on idle shedder returns nil; acceptable")
	}
}

func TestShedderConcurrencyBound(t *testing.T) {
	const capacity, jobs = 3, 40
	s := NewShedder(capacity, jobs)
	var mu sync.Mutex
	var cur, peak int
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Acquire(context.Background()); err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			defer s.Release()
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
		}()
	}
	wg.Wait()
	if peak > capacity {
		t.Errorf("peak concurrency %d exceeds capacity %d", peak, capacity)
	}
}
