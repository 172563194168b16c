package sim

import (
	"math"
	"testing"

	"yap/internal/core"
	"yap/internal/units"
)

// driftParams puts the recess process at a cliff where common-mode CMP
// drift dominates the yield.
func driftParams() core.Params {
	p := core.Baseline()
	p.RecessTop, p.RecessBottom = 10.5*units.Nanometer, 10.5*units.Nanometer
	p.RecessWaferSigma = 1 * units.Nanometer
	return p
}

// driftLayouts are the drift tests' inputs: the paper's uniform grid and
// the YAP+ two-pitch core+io layout, whose regions share each bond
// event's drift, so the simulator measures E_m[Π_r q_r(m)] and not
// Π_r E_m[q_r(m)] (0.59 against 0.48 here).
func driftLayouts() []struct {
	name string
	p    core.Params
} {
	twoPitch := driftParams()
	twoPitch.PadLayout = multiRegionParams().PadLayout
	return []struct {
		name string
		p    core.Params
	}{{"uniform", driftParams()}, {"two-pitch", twoPitch}}
}

// TestRecessDriftSimMatchesModelW2W: the per-wafer drift draw must
// reproduce the model's adaptive expectation over shifts.
func TestRecessDriftSimMatchesModelW2W(t *testing.T) {
	for _, tc := range driftLayouts() {
		p := tc.p
		t.Run(tc.name, func(t *testing.T) {
			model, err := p.EvaluateW2W()
			if err != nil {
				t.Fatal(err)
			}
			if model.Recess < 0.05 || model.Recess > 0.95 {
				t.Fatalf("regime check: drifted recess yield %g should sit mid-cliff", model.Recess)
			}
			res, err := RunW2W(Options{Params: p, Seed: 17, Wafers: 400})
			if err != nil {
				t.Fatal(err)
			}
			// With per-wafer drift the per-die outcomes are correlated within a
			// wafer, so the effective sample count is the wafer count: the
			// binomial se over 400 wafers is ~0.025.
			if math.Abs(res.RecessYield-model.Recess) > 0.08 {
				t.Errorf("drifted recess: sim %g vs model %g", res.RecessYield, model.Recess)
			}
		})
	}
}

func TestRecessDriftSimMatchesModelD2W(t *testing.T) {
	for _, tc := range driftLayouts() {
		p := tc.p
		t.Run(tc.name, func(t *testing.T) {
			model, err := p.EvaluateD2W()
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunD2W(Options{Params: p, Seed: 17, Dies: 30000})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.RecessYield-model.Recess) > 0.02 {
				t.Errorf("drifted recess: sim %g vs model %g", res.RecessYield, model.Recess)
			}
		})
	}
}

// TestDriftZeroMatchesBaseline: configuring zero drift must not perturb
// the simulation stream results relative to the pre-extension behavior.
func TestDriftZeroMatchesBaseline(t *testing.T) {
	p := core.Baseline()
	a, err := RunW2W(Options{Params: p, Seed: 23, Wafers: 20})
	if err != nil {
		t.Fatal(err)
	}
	q := p
	q.RecessWaferSigma = 0
	b, err := RunW2W(Options{Params: q, Seed: 23, Wafers: 20})
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Error("explicit zero drift changed results")
	}
}
