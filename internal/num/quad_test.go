package num

import (
	"math"
	"testing"
	"time"
)

// timeAfter returns a channel firing after the given number of seconds.
func timeAfter(seconds int) <-chan time.Time {
	return time.After(time.Duration(seconds) * time.Second)
}

func TestIntegratePolynomial(t *testing.T) {
	// ∫₀¹ (3x² + 2x + 1) dx = 3.
	got := Integrate(func(x float64) float64 { return 3*x*x + 2*x + 1 }, 0, 1, 1e-12)
	if !almostEqual(got, 3, 1e-10) {
		t.Errorf("polynomial integral = %.15g, want 3", got)
	}
}

func TestIntegrateTranscendental(t *testing.T) {
	// ∫₀^π sin x dx = 2.
	got := Integrate(math.Sin, 0, math.Pi, 1e-12)
	if !almostEqual(got, 2, 1e-10) {
		t.Errorf("∫ sin = %.15g, want 2", got)
	}
	// ∫₀¹ e^x dx = e − 1.
	got = Integrate(math.Exp, 0, 1, 1e-12)
	if !almostEqual(got, math.E-1, 1e-10) {
		t.Errorf("∫ exp = %.15g, want %.15g", got, math.E-1)
	}
}

func TestIntegrateReversedLimits(t *testing.T) {
	fwd := Integrate(math.Exp, 0, 1, 1e-12)
	rev := Integrate(math.Exp, 1, 0, 1e-12)
	if !almostEqual(fwd, -rev, 1e-10) {
		t.Errorf("reversed limits: %g vs %g", fwd, rev)
	}
}

func TestIntegrateEmptyInterval(t *testing.T) {
	if got := Integrate(math.Exp, 2, 2, 1e-12); got != 0 {
		t.Errorf("empty interval integral = %g, want 0", got)
	}
}

func TestIntegrateSharpFeature(t *testing.T) {
	// A narrow Gaussian bump inside a wide interval: adaptive refinement
	// must find it. ∫ exp(−(x−5)²/(2·0.01²))·dx over [0,10] = 0.01·√(2π).
	sigma := 0.01
	f := func(x float64) float64 {
		z := (x - 5) / sigma
		return math.Exp(-0.5 * z * z)
	}
	want := sigma * math.Sqrt(2*math.Pi)
	got := Integrate(f, 0, 10, 1e-12)
	if !almostEqual(got, want, 1e-6) {
		t.Errorf("sharp bump integral = %g, want %g", got, want)
	}
}

func TestIntegrateToInfinityPowerLaw(t *testing.T) {
	// ∫₁^∞ x⁻³ dx = 1/2.
	got := IntegrateToInfinity(func(x float64) float64 { return math.Pow(x, -3) }, 1, 1, 1e-12)
	if !almostEqual(got, 0.5, 1e-8) {
		t.Errorf("∫ x^-3 = %g, want 0.5", got)
	}
}

func TestIntegrateToInfinityExponential(t *testing.T) {
	// ∫₀^∞ e^(−x) dx = 1.
	got := IntegrateToInfinity(func(x float64) float64 { return math.Exp(-x) }, 0, 1, 1e-12)
	if !almostEqual(got, 1, 1e-8) {
		t.Errorf("∫ e^-x = %g, want 1", got)
	}
}

func TestIntegrateBudgetTerminatesOnPathology(t *testing.T) {
	// A divergent integrand mapped to infinity must terminate (returning a
	// large garbage value) rather than recurse forever.
	done := make(chan float64, 1)
	go func() {
		done <- IntegrateToInfinity(math.Exp, 0, 1, 1e-12)
	}()
	select {
	case <-done:
		// Terminated; the value is meaningless by construction.
	case <-timeAfter(30):
		t.Fatal("integrator did not terminate on divergent integrand")
	}
}

func TestIntegrateToInfinitySmallScale(t *testing.T) {
	// An integrand living at the 1e-4 scale (the defect-model regime):
	// ∫_a^∞ e^(−(x−a)/s) dx = s with a = 2.3e-4, s = 1e-4. The scale-aware
	// substitution must resolve it without pathological recursion.
	a, s := 2.3e-4, 1e-4
	f := func(x float64) float64 { return math.Exp(-(x - a) / s) }
	got := IntegrateToInfinity(f, a, s, 1e-16)
	if !almostEqual(got, s, 1e-8) {
		t.Errorf("small-scale tail integral = %g, want %g", got, s)
	}
}

func TestBisectMonotoneDecreasing(t *testing.T) {
	// f(x) = 10 − x on [0, 10]; target 4 ⇒ x = 6.
	f := func(x float64) float64 { return 10 - x }
	got := BisectMonotone(f, 0, 10, 4, 1e-12)
	if !almostEqual(got, 6, 1e-9) {
		t.Errorf("decreasing bisect = %g, want 6", got)
	}
}

func TestBisectMonotoneIncreasing(t *testing.T) {
	got := BisectMonotone(math.Sqrt, 0, 100, 5, 1e-12)
	if !almostEqual(got, 25, 1e-7) {
		t.Errorf("increasing bisect = %g, want 25", got)
	}
}

func TestBisectMonotoneSaturation(t *testing.T) {
	f := func(x float64) float64 { return x }
	if got := BisectMonotone(f, 2, 5, 1, 1e-12); got != 2 {
		t.Errorf("target below range: got %g, want left endpoint 2", got)
	}
	if got := BisectMonotone(f, 2, 5, 9, 1e-12); got != 5 {
		t.Errorf("target above range: got %g, want right endpoint 5", got)
	}
	g := func(x float64) float64 { return -x }
	if got := BisectMonotone(g, 2, 5, -1, 1e-12); got != 2 {
		t.Errorf("decreasing, target above range: got %g, want 2", got)
	}
	if got := BisectMonotone(g, 2, 5, -9, 1e-12); got != 5 {
		t.Errorf("decreasing, target below range: got %g, want 5", got)
	}
}

func TestIntegrateGaussianDensityIsOne(t *testing.T) {
	for _, sigma := range []float64{0.1, 1, 10, 1e-6} {
		f := func(x float64) float64 {
			z := x / sigma
			return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
		}
		got := Integrate(f, -10*sigma, 10*sigma, 1e-12)
		if !almostEqual(got, 1, 1e-9) {
			t.Errorf("gaussian mass (sigma=%g) = %.12g, want 1", sigma, got)
		}
	}
}
