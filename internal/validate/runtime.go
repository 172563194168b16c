package validate

import (
	"fmt"
	"time"

	"yap/internal/core"
	"yap/internal/sim"
)

// RuntimeComparison measures the model-vs-simulation wall-clock gap that
// the paper's §IV headline claim is about ("over 10,000x runtime
// improvement"). The model time is averaged over repeated evaluations; two
// simulator costs are reported:
//
//   - SimTime: this repository's optimized simulator (exact per-die
//     Bernoulli recess sampling, corner-based overlay checks), run at the
//     paper's sample counts;
//   - ExplicitSimTime: the paper-fidelity simulator (sim.Options.ExplicitPads)
//     that draws every pad's recess height individually and visits every
//     pad's overlay (what makes the authors' runs take hours), measured on a
//     small sample and extrapolated linearly to the paper's counts.
type RuntimeComparison struct {
	Mode       string
	ModelTime  time.Duration
	SimTime    time.Duration
	SimSamples int
	// Speedup is SimTime / ModelTime.
	Speedup float64
	// ExplicitSimTime is the per-pad simulator's extrapolated cost at
	// SimSamples; ExplicitMeasured is the sample count actually timed.
	ExplicitSimTime  time.Duration
	ExplicitMeasured int
	// ExplicitSpeedup is ExplicitSimTime / ModelTime — the number
	// comparable to the paper's ≥10⁴× claim.
	ExplicitSpeedup float64
}

func (r RuntimeComparison) String() string {
	return fmt.Sprintf("%s: model %v | optimized sim %v (%d samples, %.0fx) | per-pad sim ~%v extrapolated (%.0fx)",
		r.Mode, r.ModelTime, r.SimTime.Round(time.Millisecond), r.SimSamples, r.Speedup,
		r.ExplicitSimTime.Round(time.Second), r.ExplicitSpeedup)
}

// MeasureRuntimeW2W times the analytic W2W model against a wafers-sample
// simulation at the given parameters. wafers ≤ 0 uses the paper's count.
func MeasureRuntimeW2W(p core.Params, wafers int) (RuntimeComparison, error) {
	model, err := timeModel(func() error {
		_, err := p.EvaluateW2W()
		return err
	})
	if err != nil {
		return RuntimeComparison{}, err
	}
	res, err := sim.RunW2W(sim.Options{Params: p, Seed: 1, Wafers: wafers})
	if err != nil {
		return RuntimeComparison{}, err
	}
	wafers = res.Requested
	// Paper-fidelity cost: time a single wafer with every pad's recess
	// height drawn and every pad's overlay visited, then scale.
	const explicitWafers = 1
	exp, err := sim.RunW2W(sim.Options{
		Params: p, Seed: 1, Wafers: explicitWafers, ExplicitPads: true,
	})
	if err != nil {
		return RuntimeComparison{}, err
	}
	explicit := exp.Elapsed * time.Duration(wafers/explicitWafers)
	return RuntimeComparison{
		Mode:             "W2W",
		ModelTime:        model,
		SimTime:          res.Elapsed,
		SimSamples:       wafers,
		Speedup:          float64(res.Elapsed) / float64(model),
		ExplicitSimTime:  explicit,
		ExplicitMeasured: explicitWafers,
		ExplicitSpeedup:  float64(explicit) / float64(model),
	}, nil
}

// MeasureRuntimeD2W times the analytic D2W model against a dies-sample
// simulation. dies ≤ 0 uses the paper's count.
func MeasureRuntimeD2W(p core.Params, dies int) (RuntimeComparison, error) {
	model, err := timeModel(func() error {
		_, err := p.EvaluateD2W()
		return err
	})
	if err != nil {
		return RuntimeComparison{}, err
	}
	res, err := sim.RunD2W(sim.Options{Params: p, Seed: 1, Dies: dies})
	if err != nil {
		return RuntimeComparison{}, err
	}
	dies = res.Requested
	// Paper-fidelity cost: time a handful of explicit per-pad dies and
	// scale to the full sample count.
	explicitDies := 20
	if explicitDies > dies {
		explicitDies = dies
	}
	exp, err := sim.RunD2W(sim.Options{
		Params: p, Seed: 1, Dies: explicitDies, ExplicitPads: true,
	})
	if err != nil {
		return RuntimeComparison{}, err
	}
	explicit := time.Duration(float64(exp.Elapsed) * float64(dies) / float64(explicitDies))
	return RuntimeComparison{
		Mode:             "D2W",
		ModelTime:        model,
		SimTime:          res.Elapsed,
		SimSamples:       dies,
		Speedup:          float64(res.Elapsed) / float64(model),
		ExplicitSimTime:  explicit,
		ExplicitMeasured: explicitDies,
		ExplicitSpeedup:  float64(explicit) / float64(model),
	}, nil
}

// timeModel averages eval's runtime over enough repetitions to resolve
// microsecond-scale evaluations.
func timeModel(eval func() error) (time.Duration, error) {
	if err := eval(); err != nil { // warm-up + error check
		return 0, err
	}
	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := eval(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / reps, nil
}
