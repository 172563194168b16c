// Package converge turns the raw integer tallies that internal/sim
// checkpoints (per bonded wafer for W2W, per die slice for D2W) into an
// ordered stream of running yield estimates with confidence intervals, and
// decides — deterministically — when a Monte-Carlo run has converged.
//
// The sequential-stopping rule is intentionally simple: stop as soon as the
// Wilson 95% half-width of the overall yield estimate falls to the
// requested epsilon, subject to a minimum-samples floor (so a lucky early
// tally cannot end a run after a handful of samples) and the run's hard N
// cap (the rule can only shorten a run, never extend it). Determinism is
// the load-bearing property: the rule is evaluated only at sample-count
// boundaries that are themselves deterministic functions of (rule, N) —
// never at scheduler-dependent moments — so the same seed, spec and
// epsilon always stop at the same sample index regardless of worker count,
// process count or wall-clock. Everything here is pure integer/float
// arithmetic over tallies; nothing reads clocks, maps or global RNGs,
// which is why the package sits in yaplint's determinism tree.
package converge

import (
	"math"

	"yap/internal/num"
)

// z975 is the 97.5th percentile of N(0,1) — the same constant
// num.WilsonInterval uses, duplicated here only for the normal-approximation
// half-width (which num does not expose).
const z975 = 1.959963984540054

// Estimate is a point-in-time yield estimate over Trials simulated dies.
type Estimate struct {
	// Trials and Successes are the raw tally the estimate derives from:
	// dies simulated so far and dies that survived all checks.
	Trials, Successes int
	// Yield is the plain surviving fraction Successes/Trials (0 when
	// Trials == 0).
	Yield float64
	// Lo and Hi bound Yield with a Wilson 95% interval, matching the error
	// bars sim.Result reports.
	Lo, Hi float64
	// HalfWidth is (Hi-Lo)/2, the quantity the stopping rule compares to
	// epsilon. Wilson (not normal) on purpose: the normal interval
	// collapses to zero width at p ∈ {0, 1}, which would stop a degenerate
	// run after the minimum-samples floor no matter how loose the evidence.
	HalfWidth float64
	// NormalHalfWidth is the naive Wald half-width z·√(p(1-p)/n), reported
	// alongside for comparison; it is telemetry, never a stopping input.
	NormalHalfWidth float64
}

// EstimateOf builds the running estimate for successes out of trials.
// Non-positive trials return the vacuous estimate — Lo=0, Hi=1,
// HalfWidth=0.5 — so an empty tally never satisfies any epsilon < 0.5.
func EstimateOf(successes, trials int) Estimate {
	e := Estimate{Trials: trials, Successes: successes}
	if trials <= 0 {
		e.Trials = 0
		e.Successes = 0
		e.Lo, e.Hi = 0, 1
		e.HalfWidth = 0.5
		return e
	}
	e.Yield = float64(successes) / float64(trials)
	e.Lo, e.Hi = num.WilsonInterval(successes, trials)
	e.HalfWidth = (e.Hi - e.Lo) / 2
	e.NormalHalfWidth = z975 * normalSE(e.Yield, trials)
	return e
}

func normalSE(p float64, n int) float64 {
	return math.Sqrt(p * (1 - p) / float64(n))
}

// Default floors applied by Rule.Normalized when the corresponding field is
// zero. MinSamples keeps a lucky first checkpoint from ending a run on
// almost no evidence; CheckEvery bounds how often the rule re-evaluates
// (every sample would be both wasteful and pointless — the half-width moves
// like 1/√n).
const (
	DefaultMinSamples = 100
	DefaultCheckEvery = 100
)

// Rule is a deterministic sequential-stopping rule: end the run once the
// Wilson 95% half-width of the yield estimate is at most Epsilon, but never
// before MinSamples samples, re-evaluating every CheckEvery samples. The
// zero Rule is disabled (fixed-N behavior is unchanged).
type Rule struct {
	// Epsilon is the target CI half-width; <= 0 disables the rule entirely.
	Epsilon float64
	// MinSamples is the floor below which the rule never stops
	// (default DefaultMinSamples).
	MinSamples int
	// CheckEvery is the evaluation stride in samples beyond the floor
	// (default DefaultCheckEvery).
	CheckEvery int
}

// Enabled reports whether the rule is active. Epsilon <= 0 — including the
// zero Rule — means fixed-N: the run never stops early.
func (r Rule) Enabled() bool { return r.Epsilon > 0 }

// Normalized returns r with zero or negative MinSamples/CheckEvery replaced
// by the package defaults. A disabled rule normalizes to itself.
func (r Rule) Normalized() Rule {
	if !r.Enabled() {
		return r
	}
	if r.MinSamples <= 0 {
		r.MinSamples = DefaultMinSamples
	}
	if r.CheckEvery <= 0 {
		r.CheckEvery = DefaultCheckEvery
	}
	return r
}

// NextCheckpoint returns the sample count at which the rule should next be
// evaluated, given completed samples so far of a total-sample cap. The
// boundaries are MinSamples, MinSamples+CheckEvery, MinSamples+2·CheckEvery,
// … clamped to total — a deterministic function of (rule, total) alone,
// which is what makes the stop index reproducible at any worker count.
// When completed >= total there is no next checkpoint and total is
// returned.
func (r Rule) NextCheckpoint(completed, total int) int {
	r = r.Normalized()
	next := r.MinSamples
	if completed >= r.MinSamples {
		over := completed - r.MinSamples
		next = r.MinSamples + (over/r.CheckEvery+1)*r.CheckEvery
	}
	if next > total {
		next = total
	}
	if next < completed {
		next = completed
	}
	return next
}

// ShouldStop reports the rule's verdict for an estimate observed after
// completed samples: true once completed has reached the floor and the
// Wilson half-width is within Epsilon. A disabled rule never stops, and an
// empty tally never stops (its half-width is 0.5 by convention).
func (r Rule) ShouldStop(completed int, est Estimate) bool {
	r = r.Normalized()
	if !r.Enabled() || completed < r.MinSamples || est.Trials <= 0 {
		return false
	}
	return est.HalfWidth <= r.Epsilon
}
