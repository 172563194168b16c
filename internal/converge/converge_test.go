package converge

import (
	"math"
	"testing"

	"yap/internal/num"
)

func TestEstimateOfMatchesWilson(t *testing.T) {
	cases := []struct{ k, n int }{
		{0, 1}, {1, 1}, {50, 100}, {999, 1000}, {1, 1000}, {250000, 500000},
	}
	for _, c := range cases {
		e := EstimateOf(c.k, c.n)
		lo, hi := num.WilsonInterval(c.k, c.n)
		if e.Lo != lo || e.Hi != hi {
			t.Errorf("EstimateOf(%d,%d) interval [%g,%g], want [%g,%g]",
				c.k, c.n, e.Lo, e.Hi, lo, hi)
		}
		if got, want := e.HalfWidth, (hi-lo)/2; got != want {
			t.Errorf("EstimateOf(%d,%d) half-width %g, want %g", c.k, c.n, got, want)
		}
		if got, want := e.Yield, float64(c.k)/float64(c.n); got != want {
			t.Errorf("EstimateOf(%d,%d) yield %g, want %g", c.k, c.n, got, want)
		}
	}
}

func TestEstimateOfEmptyTally(t *testing.T) {
	for _, n := range []int{0, -3} {
		e := EstimateOf(0, n)
		if e.Trials != 0 || e.Lo != 0 || e.Hi != 1 || e.HalfWidth != 0.5 {
			t.Errorf("EstimateOf(0,%d) = %+v, want vacuous [0,1] estimate", n, e)
		}
		if (Rule{Epsilon: 0.4}).ShouldStop(1<<20, e) {
			t.Error("vacuous estimate satisfied epsilon 0.4")
		}
	}
}

// Degenerate tallies: at p = 0 and p = 1 the normal half-width collapses to
// zero, but the Wilson half-width must stay honestly positive and shrink
// like z²/n — this is exactly why the rule keys on Wilson.
func TestEstimateOfDegenerateTallies(t *testing.T) {
	for _, n := range []int{1, 10, 100, 10000} {
		zero := EstimateOf(0, n)
		full := EstimateOf(n, n)
		if zero.NormalHalfWidth != 0 || full.NormalHalfWidth != 0 {
			t.Errorf("n=%d: normal half-widths %g/%g, want 0 at p∈{0,1}",
				n, zero.NormalHalfWidth, full.NormalHalfWidth)
		}
		if zero.HalfWidth <= 0 || full.HalfWidth <= 0 {
			t.Errorf("n=%d: Wilson half-widths %g/%g, want > 0 at p∈{0,1}",
				n, zero.HalfWidth, full.HalfWidth)
		}
		// Symmetry: the interval for 0/n mirrors the one for n/n.
		if d := math.Abs(zero.HalfWidth - full.HalfWidth); d > 1e-15 {
			t.Errorf("n=%d: asymmetric degenerate half-widths %g vs %g",
				n, zero.HalfWidth, full.HalfWidth)
		}
	}
	// Half-width shrinks with n — a degenerate run still converges.
	if !(EstimateOf(0, 10000).HalfWidth < EstimateOf(0, 100).HalfWidth) {
		t.Error("degenerate half-width did not shrink with n")
	}
}

func TestRuleEnabledAndNormalized(t *testing.T) {
	var zero Rule
	if zero.Enabled() {
		t.Error("zero Rule must be disabled")
	}
	if got := zero.Normalized(); got != zero {
		t.Errorf("disabled rule normalized to %+v, want unchanged", got)
	}
	r := Rule{Epsilon: 1e-3}.Normalized()
	if r.MinSamples != DefaultMinSamples || r.CheckEvery != DefaultCheckEvery {
		t.Errorf("normalized rule %+v, want defaults %d/%d",
			r, DefaultMinSamples, DefaultCheckEvery)
	}
	r = Rule{Epsilon: 1e-3, MinSamples: -5, CheckEvery: -1}.Normalized()
	if r.MinSamples != DefaultMinSamples || r.CheckEvery != DefaultCheckEvery {
		t.Errorf("negative fields normalized to %+v, want defaults", r)
	}
	keep := Rule{Epsilon: 0.01, MinSamples: 7, CheckEvery: 3}
	if got := keep.Normalized(); got != keep {
		t.Errorf("explicit fields normalized to %+v, want unchanged", got)
	}
}

func TestRuleNextCheckpoint(t *testing.T) {
	r := Rule{Epsilon: 0.01, MinSamples: 100, CheckEvery: 50}
	cases := []struct{ completed, total, want int }{
		{0, 1000, 100},   // first boundary is the floor
		{99, 1000, 100},  // still the floor
		{100, 1000, 150}, // then floor + stride
		{101, 1000, 150}, // mid-stride rounds up to the boundary
		{149, 1000, 150},
		{150, 1000, 200},
		{0, 60, 60},        // floor clamped to the cap
		{120, 130, 130},    // stride clamped to the cap
		{1000, 1000, 1000}, // at the cap: nothing left
	}
	for _, c := range cases {
		if got := r.NextCheckpoint(c.completed, c.total); got != c.want {
			t.Errorf("NextCheckpoint(%d, %d) = %d, want %d",
				c.completed, c.total, got, c.want)
		}
	}
}

// The checkpoint boundaries must be a deterministic function of (rule,
// total) alone: walking them from 0 yields the same ladder no matter the
// step history.
func TestRuleCheckpointLadderDeterministic(t *testing.T) {
	r := Rule{Epsilon: 1e-3, MinSamples: 137, CheckEvery: 61}
	const total = 5000
	var ladder []int
	for c := 0; c < total; {
		c = r.NextCheckpoint(c, total)
		ladder = append(ladder, c)
	}
	// Re-walk starting from arbitrary interior points: every interior point
	// must land back on the same ladder.
	for _, start := range []int{1, 136, 137, 200, 4999} {
		next := r.NextCheckpoint(start, total)
		found := false
		for _, b := range ladder {
			if next == b {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("NextCheckpoint(%d) = %d is off the ladder %v", start, next, ladder[:5])
		}
	}
	if last := ladder[len(ladder)-1]; last != total {
		t.Errorf("ladder ends at %d, want total %d", last, total)
	}
}

func TestRuleShouldStop(t *testing.T) {
	r := Rule{Epsilon: 0.01, MinSamples: 100, CheckEvery: 50}
	tight := EstimateOf(990, 1000) // half-width ≈ 0.0065 < ε
	loose := EstimateOf(50, 100)   // half-width ≈ 0.097 > ε
	if r.ShouldStop(99, tight) {
		t.Error("stopped below the min-samples floor")
	}
	if !r.ShouldStop(100, tight) {
		t.Error("did not stop with half-width below epsilon at the floor")
	}
	if r.ShouldStop(1000, loose) {
		t.Error("stopped with half-width above epsilon")
	}
	if r.ShouldStop(1000, EstimateOf(0, 0)) {
		t.Error("stopped on an empty tally")
	}
	if (Rule{}).ShouldStop(1<<30, tight) {
		t.Error("disabled rule stopped")
	}
}

// Property: the stop index produced by walking the checkpoint ladder over a
// fixed success sequence is a pure function of (rule, tally sequence) — two
// independent walks agree exactly.
func TestStopIndexDeterministicProperty(t *testing.T) {
	// A synthetic deterministic tally: success count k(n) = n - n/50 gives
	// a yield of 0.98 whose Wilson half-width crosses 0.01 around n ≈ 1100.
	tally := func(n int) int { return n - n/50 }
	run := func() (stopAt, checks int) {
		r := Rule{Epsilon: 0.01, MinSamples: 100, CheckEvery: 50}
		const total = 100000
		for c := 0; c < total; {
			c = r.NextCheckpoint(c, total)
			checks++
			if r.ShouldStop(c, EstimateOf(tally(c), c)) {
				return c, checks
			}
		}
		return -1, -1
	}
	stop1, checks1 := run()
	stop2, checks2 := run()
	if stop1 != stop2 || checks1 != checks2 {
		t.Fatalf("non-deterministic stop: (%d,%d) vs (%d,%d)", stop1, checks1, stop2, checks2)
	}
	if stop1 <= 0 {
		t.Fatal("rule never stopped on a converging tally")
	}
	if stop1 < 100 {
		t.Fatalf("stopped at %d, below the floor", stop1)
	}
	// Sanity: the crossing really happens near the analytic prediction.
	if stop1 < 600 || stop1 > 2500 {
		t.Errorf("stop index %d far from the expected ≈1100 crossing", stop1)
	}
}
