package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"yap/internal/core"
)

func TestRunW2WContextBackgroundMatchesRunW2W(t *testing.T) {
	p := core.Baseline()
	opts := Options{Params: p, Seed: 7, Wafers: 15, Workers: 3}
	a, err := RunW2W(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunW2WContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Errorf("context entry point changed results: %+v vs %+v", a.Counts, b.Counts)
	}
}

func TestRunW2WContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunW2WContext(ctx, Options{Params: core.Baseline(), Seed: 1, Wafers: 100})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "sim: W2W run aborted before any wafer completed") {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunW2WContextAbortsMidFlight(t *testing.T) {
	// A run sized for minutes must return within a small multiple of one
	// wafer's simulation latency once the context fires — and hand back
	// whatever wafers completed as a partial result rather than an error.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := RunW2WContext(ctx, Options{Params: core.Baseline(), Seed: 1, Wafers: 1 << 20, Workers: 2})
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancellation took %v", d)
	}
	if err != nil {
		// Zero wafers finished before the cancel — legal on a slow box,
		// but then the error must carry the context cause.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		return
	}
	if !res.Partial {
		t.Fatalf("canceled run returned a non-partial result: %+v", res)
	}
	if res.Completed <= 0 || res.Completed >= res.Requested {
		t.Errorf("partial result completed %d of %d, want 0 < completed < requested",
			res.Completed, res.Requested)
	}
	if res.Counts.Dies == 0 || res.Yield < 0 || res.Yield > 1 {
		t.Errorf("partial result has incoherent tallies: %+v", res)
	}
}

func TestRunD2WContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunD2WContext(ctx, Options{Params: core.Baseline(), Seed: 1, Dies: 100000})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "sim: D2W run aborted before any die completed") {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunD2WContextDeadline(t *testing.T) {
	// A deadline that fires mid-run degrades gracefully: the dies that
	// completed before the deadline come back as a partial result.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := RunD2WContext(ctx, Options{Params: core.Baseline(), Seed: 1, Dies: 1 << 26, Workers: 2})
	if err != nil {
		// Zero dies finished before the deadline — legal on a slow box,
		// but then the error must carry the context cause.
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want context.DeadlineExceeded, got %v", err)
		}
		return
	}
	if !res.Partial {
		t.Fatalf("deadline-limited run returned a non-partial result: %+v", res)
	}
	if res.Completed <= 0 || res.Completed >= res.Requested {
		t.Errorf("partial result completed %d of %d, want 0 < completed < requested",
			res.Completed, res.Requested)
	}
	if res.Counts.Dies != res.Completed {
		t.Errorf("tallies cover %d dies but Completed = %d", res.Counts.Dies, res.Completed)
	}
}

func TestRunD2WContextBackgroundMatchesRunD2W(t *testing.T) {
	p := core.Baseline()
	opts := Options{Params: p, Seed: 9, Dies: 4000, Workers: 5}
	a, err := RunD2W(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunD2WContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Errorf("context entry point changed results: %+v vs %+v", a.Counts, b.Counts)
	}
}
