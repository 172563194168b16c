package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrOverloaded reports an admission shed because the bounded queue is
// full. Callers surface it as 503 with a Retry-After hint.
var ErrOverloaded = errors.New("resilience: overloaded, queue full")

// ErrShutdown reports an admission refused because the shedder is
// draining for shutdown.
var ErrShutdown = errors.New("resilience: shutting down")

// Shedder is a concurrency limiter with a bounded admission queue: up to
// capacity jobs execute at once, up to maxQueue callers wait for a slot,
// and admission beyond that fails fast with ErrOverloaded instead of
// queueing unboundedly — the load-shedding half of admission control.
// AcquireWait bypasses the queue bound for work that was already admitted
// at a coarser granularity (e.g. the per-point fan-out of one accepted
// batch request).
type Shedder struct {
	slots    chan struct{}
	maxQueue int64

	queued atomic.Int64
	active atomic.Int64
	closed atomic.Bool
}

// NewShedder returns a Shedder executing up to capacity jobs (minimum 1)
// with up to maxQueue waiters (0 sheds whenever every slot is busy).
func NewShedder(capacity, maxQueue int) *Shedder {
	if capacity < 1 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Shedder{
		slots:    make(chan struct{}, capacity),
		maxQueue: int64(maxQueue),
	}
}

// Capacity returns the executing-job bound.
func (s *Shedder) Capacity() int { return cap(s.slots) }

// QueueCapacity returns the waiting-caller bound.
func (s *Shedder) QueueCapacity() int { return int(s.maxQueue) }

// Queued returns the number of callers waiting for a slot.
func (s *Shedder) Queued() int64 { return s.queued.Load() }

// Active returns the number of jobs currently admitted.
func (s *Shedder) Active() int64 { return s.active.Load() }

// Acquire admits the caller, waiting in the bounded queue if every slot
// is busy. It returns ErrOverloaded when the queue is full, ErrShutdown
// after Close, or ctx's error if it is done on arrival or fires while
// queued. A nil return obligates the caller to Release.
func (s *Shedder) Acquire(ctx context.Context) error {
	if s.closed.Load() {
		return ErrShutdown
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Fast path: a free slot admits without touching the queue.
	select {
	case s.slots <- struct{}{}:
		s.active.Add(1)
		return nil
	default:
	}
	if q := s.queued.Add(1); q > s.maxQueue {
		s.queued.Add(-1)
		return ErrOverloaded
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		s.active.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// AcquireWait admits the caller without the queue bound — it blocks until
// a slot frees or ctx fires, and a ctx done on arrival is never admitted.
// Use it only for work already admitted at a coarser granularity.
func (s *Shedder) AcquireWait(ctx context.Context) error {
	if s.closed.Load() {
		return ErrShutdown
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		s.active.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot acquired by Acquire/AcquireWait.
func (s *Shedder) Release() {
	s.active.Add(-1)
	<-s.slots
}

// Close refuses all subsequent admissions with ErrShutdown. Callers
// already queued keep their place and drain normally.
func (s *Shedder) Close() { s.closed.Store(true) }

// drainPoll is the Drain sampling interval.
const drainPoll = 2 * time.Millisecond

// Drain blocks until no job is active or queued, or ctx fires. Pair it
// with Close for graceful shutdown: Close stops admission, Drain waits
// out the in-flight work.
func (s *Shedder) Drain(ctx context.Context) error {
	for {
		if s.active.Load() == 0 && s.queued.Load() == 0 {
			return nil
		}
		if err := Sleep(ctx, drainPoll); err != nil {
			return err
		}
	}
}
