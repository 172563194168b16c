// Package sim is the YAP Monte-Carlo yield simulator (Fig. 4 of the paper):
// it draws overlay errors, Cu recess heights and particle defects from
// their process distributions, applies the three per-die checks — Overlay
// Check, Defect Check, Cu Recess Check — and reports the surviving-die
// fraction per mechanism and overall. The analytic model in internal/core
// is validated against this simulator across parameter sets (Figs. 5,
// 8–10).
//
// The simulator makes fewer approximations than the model:
//
//   - the overlay check tests every die against the exact distortion field,
//     including the s_min side of the shared random error that Eq. 7 drops;
//   - void tails are placed at sampled particle positions and swept
//     radially (the bond-wave direction), rather than orientation-averaged;
//   - D2W main voids are square regions tested against the actual pad grid,
//     including the disjoint-kill-box regime of Eq. 25's first branch.
//
// One exactness shortcut is taken deliberately: the per-die Cu recess check
// needs N ~ 10⁶–10⁸ i.i.d. normal pad heights per die, whose all-pads-pass
// indicator is exactly Bernoulli((1−p_fail)^N); the simulator samples that
// indicator directly instead of drawing 10⁸ heights. The equivalence is
// distributional, not approximate, and is verified in tests against the
// explicit per-pad path.
//
// The default run is the paper's simulator. Each of the four fidelity
// switches in Options departs from it for one documented study, and a run
// that combines them in a way no kernel implements is refused.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"yap/internal/converge"
	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/num"
)

// Options configures a simulation run.
type Options struct {
	// Params is the process description (shared with the analytic model).
	Params core.Params
	// Seed makes the run reproducible; runs with equal seeds and options
	// produce identical results regardless of Workers.
	Seed uint64
	// Wafers is the number of bonded-wafer samples for W2W runs
	// (0: the paper default, see Samples).
	Wafers int
	// Dies is the number of bonded-die samples for D2W runs
	// (0: the paper default, see Samples).
	Dies int
	// Workers bounds the parallelism; 0 means GOMAXPROCS.
	Workers int
	// EarlyStop optionally arms the deterministic sequential-stopping rule
	// of internal/converge: the run executes in contiguous sample slices
	// (Run, RunSlices) and ends as soon as the Wilson 95% half-width of the running yield
	// estimate falls to EarlyStop.Epsilon (never before
	// EarlyStop.MinSamples, never after Wafers/Dies — the fixed N becomes
	// a hard cap). Because the rule is evaluated only at sample-count
	// boundaries that are deterministic functions of the rule and the cap,
	// the stop index — and therefore the entire Result — is bit-identical
	// across runs with equal Seed, Params and rule, at any Workers value.
	// The zero Rule (Epsilon <= 0) preserves fixed-N behavior exactly.
	EarlyStop converge.Rule
	// FirstSample is the global index of this run's first sample (bonded
	// wafer for W2W, bonded die for D2W). Sample k of the run draws from
	// the stream Derive(Seed, FirstSample+k), so a run over the index
	// range [FirstSample, FirstSample+Wafers) reproduces exactly that
	// slice of the single-node run with FirstSample == 0 — the property
	// internal/dist relies on to shard a run across worker processes and
	// Merge the tallies bit-identically. 0 — the default — is the whole
	// run from the beginning; negative is rejected.
	FirstSample int

	// TwoDRandomMisalignment switches the random overlay error from the
	// paper's scalar convention to a 2-D vector (u_x, u_y), each N(0, σ₁),
	// tested against the worst pad-rectangle corner of every region — the
	// ablation quantifying the scalar approximation (DESIGN.md A1). It
	// cannot be combined with ExplicitPads, whose walk is scalar.
	TwoDRandomMisalignment bool
	// IncludeMainVoidW2W additionally kills W2W dies overlapped by the
	// main-void disk, not just the tail segment (ablation of the
	// line-defect simplification, DESIGN.md A2). W2W only; it cannot be
	// combined with ModelConventionDefects, whose defects are tails alone.
	IncludeMainVoidW2W bool
	// ExplicitPads makes both per-pad checks visit every pad, as the
	// paper's simulator does: the recess check draws every pad height
	// instead of the exact Bernoulli shortcut, and the overlay check walks
	// every pad center instead of the pad-rectangle corners the convexity
	// of the distortion field reduces it to. Distributionally identical up
	// to the sub-pitch gap between the outermost pad centers and the
	// corners, it runs at O(N) per die and exists so the runtime study can
	// price the paper's simulation faithfully.
	ExplicitPads bool
	// ModelConventionDefects switches the W2W defect generator to the
	// analytic model's idealization: defect anchors uniform over an
	// extended field (so edge dies see the same defect flux as center
	// dies), tail lengths drawn from the marginal law f_l of Eq. 18
	// independent of position, and tail orientation uniform in [0, 2π)
	// instead of radial. Comparing a run with this flag against the
	// default isolates the wafer-edge and orientation approximations in
	// the closed-form Λ of Eq. 20 (ablation; DESIGN.md A4). W2W only.
	ModelConventionDefects bool
	// CollectPerDie (W2W only) additionally accumulates per-die-site
	// survival statistics into Result.PerDie, index-aligned with the
	// wafer layout's Dies() — the simulated counterpart of the model's
	// W2WDieYields.
	CollectPerDie bool
	// Faults optionally arms deterministic fault injection
	// (internal/faultinject) inside the sampling loops: hook
	// "sim.w2w.wafer" fires once per bonded-wafer sample, "sim.d2w.die"
	// once per D2W cancellation stride. Injected delays never perturb
	// results; injected errors and panics abort the run with an error.
	// nil — the production default — disables injection entirely.
	Faults *faultinject.Injector
}

// Ablated reports whether any fidelity switch is set, so the run is not
// the paper's simulator.
func (o Options) Ablated() bool {
	return o.TwoDRandomMisalignment || o.IncludeMainVoidW2W || o.ExplicitPads || o.ModelConventionDefects
}

// check refuses the switch combinations no kernel implements for mode
// "w2w" or "d2w", rather than letting one switch silently win.
func (o Options) check(mode string) error {
	switch {
	case o.ExplicitPads && o.TwoDRandomMisalignment:
		return errors.New("sim: ExplicitPads walks a scalar random misalignment; it cannot be combined with TwoDRandomMisalignment")
	case o.ModelConventionDefects && o.IncludeMainVoidW2W:
		return errors.New("sim: ModelConventionDefects draws void tails alone; it cannot be combined with IncludeMainVoidW2W")
	case mode == "d2w" && (o.IncludeMainVoidW2W || o.ModelConventionDefects || o.CollectPerDie):
		return errors.New("sim: IncludeMainVoidW2W, ModelConventionDefects and CollectPerDie apply to W2W runs only")
	}
	return nil
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Samples returns the sample count of a run in mode "w2w" or "d2w":
// Wafers or Dies, or the paper's default of 1000 bonded wafers or 20000
// bonded dies when that is not positive.
func (o Options) Samples(mode string) int {
	if mode == "d2w" {
		if o.Dies > 0 {
			return o.Dies
		}
		return 20000
	}
	if o.Wafers > 0 {
		return o.Wafers
	}
	return 1000
}

// Counts aggregates per-check outcomes over all simulated dies. A die is
// evaluated against all three checks independently, so mechanism yields can
// be reported separately even when a die fails several checks at once.
type Counts struct {
	// Dies is the number of simulated dies.
	Dies int
	// OverlayPass, DefectPass and RecessPass count dies passing each check.
	OverlayPass, DefectPass, RecessPass int
	// Survived counts dies passing all three checks.
	Survived int
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Dies += other.Dies
	c.OverlayPass += other.OverlayPass
	c.DefectPass += other.DefectPass
	c.RecessPass += other.RecessPass
	c.Survived += other.Survived
}

// Result is the outcome of a simulation run.
type Result struct {
	// Mode is "W2W" or "D2W".
	Mode string
	// Counts holds the raw per-check tallies.
	Counts Counts
	// OverlayYield, DefectYield and RecessYield are the per-mechanism
	// surviving fractions; Yield is the all-checks fraction.
	OverlayYield, DefectYield, RecessYield, Yield float64
	// YieldLo and YieldHi bound Yield with a Wilson 95% interval.
	YieldLo, YieldHi float64
	// Elapsed is the wall-clock simulation time (the quantity behind the
	// paper's 10⁴× model-speedup claim).
	Elapsed time.Duration
	// PerDie holds per-die-site tallies when Options.CollectPerDie is set
	// (W2W), index-aligned with the layout's Dies(); nil otherwise. Each
	// entry's Dies field counts the simulated wafers.
	PerDie []Counts
	// Partial reports that the run's context fired before every requested
	// sample completed: the tallies, yields and CI cover the Completed
	// samples only. Because every sample draws from its own seed-derived
	// stream, a partial tally is still an unbiased yield estimate — just
	// one with a wider confidence interval — so a deadline-limited run
	// returns it instead of throwing the finished wafers away.
	Partial bool
	// Completed and Requested count samples — bonded wafers for W2W,
	// bonded dies for D2W. A run that finishes normally has
	// Completed == Requested and Partial unset.
	Completed, Requested int
	// StoppedEarly reports that Options.EarlyStop ended the run at
	// Completed < Requested samples because the yield CI converged. Unlike
	// Partial, an early-stopped Result is a finished answer — the estimator
	// met its requested precision; the remaining samples were skipped, not
	// lost. Partial and StoppedEarly are mutually exclusive.
	StoppedEarly bool
}

func (r Result) String() string {
	partial := ""
	if r.Partial {
		partial = fmt.Sprintf(" partial %d/%d samples,", r.Completed, r.Requested)
	} else if r.StoppedEarly {
		partial = fmt.Sprintf(" early-stop %d/%d samples,", r.Completed, r.Requested)
	}
	return fmt.Sprintf("%s sim:%s Y_ovl=%.6f Y_df=%.6f Y_cr=%.6f Y=%.6f (95%% CI [%.6f, %.6f], %d dies, %v)",
		r.Mode, partial, r.OverlayYield, r.DefectYield, r.RecessYield, r.Yield,
		r.YieldLo, r.YieldHi, r.Counts.Dies, r.Elapsed.Round(time.Millisecond))
}

func resultFrom(mode string, c Counts, elapsed time.Duration) Result {
	r := Result{Mode: mode, Counts: c, Elapsed: elapsed}
	if c.Dies == 0 {
		return r
	}
	n := float64(c.Dies)
	r.OverlayYield = float64(c.OverlayPass) / n
	r.DefectYield = float64(c.DefectPass) / n
	r.RecessYield = float64(c.RecessPass) / n
	r.Yield = float64(c.Survived) / n
	r.YieldLo, r.YieldHi = num.WilsonInterval(c.Survived, c.Dies)
	return r
}

// ErrNoDies is returned when the wafer layout holds no complete die.
var ErrNoDies = errors.New("sim: wafer layout holds no complete die")
