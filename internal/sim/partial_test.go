package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"yap/internal/core"
	"yap/internal/faultinject"
)

// partialW2WRun runs opts under growing deadlines until it obtains a
// partial result, or the full run completes within the budget (returned
// with ok=false when even the largest budget finished the whole run).
func partialW2WRun(t *testing.T, opts Options) (Result, bool) {
	t.Helper()
	for budget := 2 * time.Millisecond; budget < 30*time.Second; budget *= 2 {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		res, err := RunW2WContext(ctx, opts)
		cancel()
		if err != nil {
			// Zero wafers completed within the budget; grow it.
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("deadline-limited run failed: %v", err)
			}
			continue
		}
		return res, res.Partial
	}
	t.Fatal("no budget produced any result")
	return Result{}, false
}

// TestPartialW2WYieldWithinFullRunCI is the acceptance check for graceful
// degradation: a deadline-limited run's yield estimate must be consistent
// with the full run over the same seed. Because every wafer draws from
// its own seed-derived stream, the partial tally is a subset of the full
// run's per-wafer outcomes — a hypergeometric draw whose mean is the full
// yield. At high completion ratios the estimate concentrates tightly, so
// strict containment in the full run's Wilson 95% CI is a safe assertion;
// at low ratios strict containment is only ~1.6σ safe, so the test
// widens the interval ×3 (>4σ) and additionally requires the two CIs to
// overlap.
func TestPartialW2WYieldWithinFullRunCI(t *testing.T) {
	opts := Options{Params: core.Baseline(), Seed: 11, Wafers: 400, Workers: 4}
	full, err := RunW2W(opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || full.Completed != full.Requested || full.Requested != 400 {
		t.Fatalf("full run mis-labeled: partial=%v completed=%d requested=%d",
			full.Partial, full.Completed, full.Requested)
	}

	partial, ok := partialW2WRun(t, opts)
	if !ok {
		// The machine outran every budget and finished the whole run; the
		// statistical claim is then trivially exact.
		if partial.Yield != full.Yield {
			t.Fatalf("complete run under deadline disagrees: %v vs %v", partial.Yield, full.Yield)
		}
		t.Skip("machine too fast to observe a partial run")
	}

	// Subset invariant: each completed wafer contributes exactly the full
	// run's dies-per-wafer tally.
	diesPerWafer := full.Counts.Dies / full.Requested
	if partial.Counts.Dies != partial.Completed*diesPerWafer {
		t.Errorf("partial tallies cover %d dies; %d completed wafers × %d dies/wafer = %d",
			partial.Counts.Dies, partial.Completed, diesPerWafer, partial.Completed*diesPerWafer)
	}

	ratio := float64(partial.Completed) / float64(partial.Requested)
	lo, hi := full.YieldLo, full.YieldHi
	if ratio >= 0.75 {
		if partial.Yield < lo || partial.Yield > hi {
			t.Errorf("partial yield %.6f (completion %.0f%%) outside full-run CI [%.6f, %.6f]",
				partial.Yield, 100*ratio, lo, hi)
		}
	} else {
		mid, half := (lo+hi)/2, 3*(hi-lo)/2
		if partial.Yield < mid-half || partial.Yield > mid+half {
			t.Errorf("partial yield %.6f (completion %.0f%%) outside ×3-widened full-run CI [%.6f, %.6f]",
				partial.Yield, 100*ratio, mid-half, mid+half)
		}
	}
	if partial.YieldHi < full.YieldLo || partial.YieldLo > full.YieldHi {
		t.Errorf("partial CI [%.6f, %.6f] disjoint from full CI [%.6f, %.6f]",
			partial.YieldLo, partial.YieldHi, full.YieldLo, full.YieldHi)
	}
}

func TestPartialStringMentionsCompletion(t *testing.T) {
	r := Result{Mode: "W2W", Partial: true, Completed: 3, Requested: 10}
	if s := r.String(); !strings.Contains(s, "partial 3/10") {
		t.Errorf("String() = %q, want a partial 3/10 marker", s)
	}
}

func TestFaultErrorAbortsW2W(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Hook: faultinject.HookSimW2WWafer, Mode: faultinject.ModeError, Probability: 1,
	})
	_, err := RunW2W(Options{Params: core.Baseline(), Seed: 1, Wafers: 8, Workers: 2, Faults: inj})
	if !errors.Is(err, faultinject.ErrInjected) || !strings.Contains(err.Error(), "sim: W2W wafer aborted") {
		t.Fatalf("want ErrInjected, got %v", err)
	}
}

func TestFaultPanicIsRecoveredToErrorW2W(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Hook: faultinject.HookSimW2WWafer, Mode: faultinject.ModePanic, Probability: 1,
	})
	_, err := RunW2W(Options{Params: core.Baseline(), Seed: 1, Wafers: 8, Workers: 2, Faults: inj})
	if err == nil || !strings.Contains(err.Error(), "sim: W2W wafer worker panicked") {
		t.Fatalf("want a recovered-panic error, got %v", err)
	}
}

func TestFaultErrorAbortsD2W(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Hook: faultinject.HookSimD2WDie, Mode: faultinject.ModeError, Probability: 1,
	})
	_, err := RunD2W(Options{Params: core.Baseline(), Seed: 1, Dies: 500, Workers: 2, Faults: inj})
	if !errors.Is(err, faultinject.ErrInjected) || !strings.Contains(err.Error(), "sim: D2W die aborted") {
		t.Fatalf("want ErrInjected, got %v", err)
	}
}

func TestFaultPanicIsRecoveredToErrorD2W(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Hook: faultinject.HookSimD2WDie, Mode: faultinject.ModePanic, Probability: 1,
	})
	_, err := RunD2W(Options{Params: core.Baseline(), Seed: 1, Dies: 500, Workers: 2, Faults: inj})
	if err == nil || !strings.Contains(err.Error(), "sim: D2W die worker panicked") {
		t.Fatalf("want a recovered-panic error, got %v", err)
	}
}

// TestFaultDelayDoesNotPerturbResults pins the central fault-injection
// contract: an injected delay slows a run but never changes what it
// computes, because sampling streams are derived from (seed, index), not
// from scheduling.
func TestFaultDelayDoesNotPerturbResults(t *testing.T) {
	opts := Options{Params: core.Baseline(), Seed: 5, Dies: 2000, Workers: 4}
	clean, err := RunD2W(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = faultinject.New(2, faultinject.Rule{
		Hook: faultinject.HookSimD2WDie, Mode: faultinject.ModeDelay,
		Probability: 1, Delay: 100 * time.Microsecond,
	})
	slowed, err := RunD2WContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Counts != slowed.Counts {
		t.Errorf("injected delay perturbed results: %+v vs %+v", clean.Counts, slowed.Counts)
	}
	stats := opts.Faults.Stats()[faultinject.HookSimD2WDie]
	if stats.Delays == 0 {
		t.Error("delay rule never fired")
	}
}
