package jobs

import (
	"context"
	"sync"
	"testing"
	"time"

	"yap/internal/sim"
)

// orderRun records the order jobs reach the runner (by seed) and lets the
// test gate the first execution so later submissions pile up in the queue.
type orderRun struct {
	mu    sync.Mutex
	seeds []uint64
	gate  chan struct{} // closed to release the first job
	first chan struct{} // closed once the first job entered
	once  sync.Once
}

func (o *orderRun) run(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
	o.mu.Lock()
	o.seeds = append(o.seeds, opts.Seed)
	n := len(o.seeds)
	o.mu.Unlock()
	if n == 1 {
		o.once.Do(func() { close(o.first) })
		select {
		case <-o.gate:
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
	}
	return sim.LocalRunner()(ctx, mode, opts)
}

func (o *orderRun) order() []uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]uint64(nil), o.seeds...)
}

// TestPriorityOrdersQueue: with one runner occupied, a later high-priority
// submission must run before an earlier low-priority one.
func TestPriorityOrdersQueue(t *testing.T) {
	o := &orderRun{gate: make(chan struct{}), first: make(chan struct{})}
	m, err := Open(Config{Dir: t.TempDir(), Run: o.run, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	mk := func(seed uint64, prio int) Job {
		spec := testSpec(2, 2)
		spec.Seed = seed
		spec.Priority = prio
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	blocker := mk(1, 0)
	<-o.first // the runner now owns the blocker; later submits queue up
	low := mk(2, 0)
	high := mk(3, 5)
	close(o.gate)

	waitTerminal(t, m, blocker.ID)
	waitTerminal(t, m, low.ID)
	waitTerminal(t, m, high.ID)

	got := o.order()
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("execution order by seed = %v, want [1 3 2] (high priority jumps the queue)", got)
	}
}

// TestPriorityAgingPreventsStarvation: a long-waiting low-priority job
// gains effective priority with queue time, so it eventually outranks a
// fresh high-priority submission — delayed, never starved.
func TestPriorityAgingPreventsStarvation(t *testing.T) {
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

	o := &orderRun{gate: make(chan struct{}), first: make(chan struct{})}
	m, err := Open(Config{Dir: t.TempDir(), Run: o.run, Runners: 1, Clock: clock, PriorityAging: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	mk := func(seed uint64, prio int) Job {
		spec := testSpec(2, 2)
		spec.Seed = seed
		spec.Priority = prio
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	blocker := mk(1, 0)
	<-o.first
	aged := mk(2, 0)          // submitted now at priority 0…
	advance(10 * time.Second) // …then waits ten aging intervals
	fresh := mk(3, 5)         // a fresh priority-5 job must NOT jump it
	close(o.gate)

	waitTerminal(t, m, blocker.ID)
	waitTerminal(t, m, aged.ID)
	waitTerminal(t, m, fresh.ID)

	got := o.order()
	if len(got) != 3 || got[1] != 2 {
		t.Fatalf("execution order by seed = %v, want the aged job (seed 2) second", got)
	}
}

// TestPrioritySurvivesRestart: Priority rides in the persisted spec, so a
// recovered job keeps its class.
func TestPrioritySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	o := &orderRun{gate: make(chan struct{}), first: make(chan struct{})}
	m, err := Open(Config{Dir: dir, Run: o.run, Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(2, 2)
	spec.Priority = 7
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-o.first
	if err := m.Close(); err != nil { // interrupts the job durably running
		t.Fatal(err)
	}
	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	final := waitTerminal(t, m2, job.ID)
	if final.Spec.Priority != 7 {
		t.Fatalf("recovered priority %d, want 7", final.Spec.Priority)
	}
	if final.State != StateDone {
		t.Fatalf("recovered job state %s: %s", final.State, final.Error)
	}
}
