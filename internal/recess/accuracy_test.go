package recess_test

import (
	"fmt"
	"math"
	"testing"

	"yap/internal/core"
	"yap/internal/num"
	"yap/internal/units"
)

// glNodes8 and glWeights8 are the positive half of the 8-point
// Gauss–Legendre rule on [−1, 1].
var (
	glNodes8   = [4]float64{0.1834346424956498, 0.5255324099163290, 0.7966664774136267, 0.9602898564975363}
	glWeights8 = [4]float64{0.3626837833783620, 0.3137066458778873, 0.2223810344533745, 0.1012285362903763}
)

// convergedExpectation is E[g(X)] for X ~ N(0, sigma²) by a fixed rule
// independent of num.ExpectNormalAdaptive: g times the standard normal
// density, integrated over z ∈ [−7, 7] by composite 8-point Gauss–Legendre
// on panels equal panels and divided by the window's mass. It is the
// reference of the D2W placement accuracy test in internal/overlay.
func convergedExpectation(g func(float64) float64, sigma float64, panels int) float64 {
	h := 14 / float64(panels)
	var sum float64
	for p := 0; p < panels; p++ {
		mid := -7 + (float64(p)+0.5)*h
		for i, x := range glNodes8 {
			for _, z := range [2]float64{mid - x*h/2, mid + x*h/2} {
				sum += glWeights8[i] * g(sigma*z) * math.Exp(-z*z/2)
			}
		}
	}
	mass := 1 - math.Erfc(7/math.Sqrt2)
	return sum * h / 2 / math.Sqrt(2*math.Pi) / mass
}

// TestDriftedYieldAccuracy: with a common-mode drift the die yield, which
// runs num.ExpectNormalAdaptive over the shift, is within 1e-6 of the
// converged fixed-grid reference for Table I dies at 1–10 µm pitch and
// drifts of 0.3–8 nm, and the reference agrees with a grid four times
// finer within a hundredth of that.
func TestDriftedYieldAccuracy(t *testing.T) {
	const panels, tol = 1000, 1e-6
	for _, pitch := range []float64{1, 1.5, 2, 3, 4, 5, 6, 8, 10} {
		for _, drift := range []float64{0.3, 0.5, 1, 1.5, 2, 3, 5, 8} {
			p := core.Baseline().WithPitch(pitch * units.Micrometer)
			p.RecessWaferSigma = drift * units.Nanometer
			g := p.RegionGrids()[0]
			rp, n := p.RegionRecessParams(g.Geometry), g.Grid.Pads()
			shifted := func(shift float64) float64 { return rp.ShiftedDieYield(n, shift) }
			name := fmt.Sprintf("pitch %g µm, drift %g nm", pitch, drift)
			want := num.Clamp(convergedExpectation(shifted, rp.WaferSigma, panels), 0, 1)
			if fine := num.Clamp(convergedExpectation(shifted, rp.WaferSigma, 4*panels), 0, 1); math.Abs(fine-want) > tol/100 {
				t.Errorf("%s: reference %.12g at %d panels, %.12g at %d", name, want, panels, fine, 4*panels)
			}
			if got := rp.DieYield(n); math.Abs(got-want) > tol {
				t.Errorf("%s: die yield %.10g, converged reference %.10g (|Δ| = %.2g > %g)", name, got, want, math.Abs(got-want), tol)
			}
		}
	}
}
