package num

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		x, mu, sigma, want float64
	}{
		{0, 0, 1, 0.5},
		{1, 0, 1, 0.8413447460685429},
		{-1, 0, 1, 0.15865525393145705},
		{2, 0, 1, 0.9772498680518208},
		{1.96, 0, 1, 0.9750021048517795},
		{10, 10, 5, 0.5},
		{15, 10, 5, 0.8413447460685429},
	}
	for _, c := range cases {
		got := NormalCDF(c.x, c.mu, c.sigma)
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("NormalCDF(%g, %g, %g) = %.16g, want %.16g", c.x, c.mu, c.sigma, got, c.want)
		}
	}
}

func TestNormalCDFDegenerateSigma(t *testing.T) {
	if got := NormalCDF(1, 2, 0); got != 0 {
		t.Errorf("CDF below point mass = %g, want 0", got)
	}
	if got := NormalCDF(3, 2, 0); got != 1 {
		t.Errorf("CDF above point mass = %g, want 1", got)
	}
	if got := NormalCDF(2, 2, 0); got != 1 {
		t.Errorf("CDF at point mass = %g, want 1", got)
	}
}

func TestStdNormalCDFSymmetry(t *testing.T) {
	f := func(z float64) bool {
		z = math.Mod(z, 10)
		return almostEqual(StdNormalCDF(z)+StdNormalCDF(-z), 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalIntervalMatchesCDFDifference(t *testing.T) {
	cases := []struct{ lo, hi, mu, sigma float64 }{
		{-1, 1, 0, 1},
		{0, 2, 1, 0.5},
		{-3, -1, 0, 1},
		{5, 9, 7, 2},
		{-0.5, 0.5, 0, 0.1},
	}
	for _, c := range cases {
		want := NormalCDF(c.hi, c.mu, c.sigma) - NormalCDF(c.lo, c.mu, c.sigma)
		got := NormalInterval(c.lo, c.hi, c.mu, c.sigma)
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("NormalInterval(%v) = %g, want %g", c, got, want)
		}
	}
}

func TestNormalIntervalFarTailPrecision(t *testing.T) {
	// P(8σ ≤ X ≤ 9σ) for a standard normal: the CDF difference underflows
	// to 0 in naive arithmetic; the reflected computation must not.
	got := NormalInterval(8, 9, 0, 1)
	want := 6.2210847e-16 // Φ(-8) − Φ(-9), from erfc
	if got <= 0 {
		t.Fatalf("far-tail interval collapsed to %g", got)
	}
	if !almostEqual(got, want, 1e-6) {
		t.Errorf("far-tail interval = %g, want ≈ %g", got, want)
	}
	// Deeper tail: still finite and positive.
	if got := NormalInterval(20, 21, 0, 1); got <= 0 || math.IsNaN(got) {
		t.Errorf("20σ interval = %g, want positive", got)
	}
}

func TestNormalIntervalEdgeCases(t *testing.T) {
	if got := NormalInterval(1, 1, 0, 1); got != 0 {
		t.Errorf("empty interval = %g, want 0", got)
	}
	if got := NormalInterval(2, 1, 0, 1); got != 0 {
		t.Errorf("inverted interval = %g, want 0", got)
	}
	if got := NormalInterval(-1, 1, 0, 0); got != 1 {
		t.Errorf("degenerate sigma containing mean = %g, want 1", got)
	}
	if got := NormalInterval(1, 2, 0, 0); got != 0 {
		t.Errorf("degenerate sigma excluding mean = %g, want 0", got)
	}
}

func TestNormalIntervalSymmetricProperty(t *testing.T) {
	f := func(a, sigma float64) bool {
		a = math.Abs(math.Mod(a, 6))
		sigma = math.Abs(math.Mod(sigma, 4)) + 0.01
		// Symmetric interval probability must match 2Φ(a/σ)−1.
		got := NormalInterval(-a, a, 0, sigma)
		want := 2*StdNormalCDF(a/sigma) - 1
		return almostEqual(got, want, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStdNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12} {
		z := StdNormalQuantile(p)
		back := StdNormalCDF(z)
		if !almostEqual(back, p, 1e-9) {
			t.Errorf("CDF(Quantile(%g)) = %g", p, back)
		}
	}
}

func TestStdNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.8413447460685429, 1},
		{0.9750021048517795, 1.96},
		{0.15865525393145705, -1},
	}
	for _, c := range cases {
		if got := StdNormalQuantile(c.p); !almostEqual(got, c.want, 1e-8) && math.Abs(got-c.want) > 1e-8 {
			t.Errorf("Quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestStdNormalQuantileEdgeCases(t *testing.T) {
	if !math.IsInf(StdNormalQuantile(0), -1) {
		t.Error("Quantile(0) should be -Inf")
	}
	if !math.IsInf(StdNormalQuantile(1), 1) {
		t.Error("Quantile(1) should be +Inf")
	}
	if !math.IsNaN(StdNormalQuantile(-0.1)) || !math.IsNaN(StdNormalQuantile(1.1)) {
		t.Error("out-of-range p should give NaN")
	}
	if !math.IsNaN(StdNormalQuantile(math.NaN())) {
		t.Error("NaN p should give NaN")
	}
}

// lowerQuantileRef inverts ½·erfc(−z/√2) = p for p ∈ (0, 0.5] by
// bisection; erfc keeps relative precision in the lower tail, so the root
// is exact to the last few ulps of z.
func lowerQuantileRef(p float64) float64 {
	lo, hi := -40.0, 0.0
	for i := 0; i < 200 && hi-lo > 1e-16*math.Max(1, -lo); i++ {
		mid := 0.5 * (lo + hi)
		if 0.5*math.Erfc(-mid*invSqrt2) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// TestStdNormalQuantileTails checks both tails against the bisection
// reference within 1e-13 in z, over a log grid of p from 1e-300 to 0.5:
// a lower-tail p directly, and the upper tail as 1 − p, whose exact
// quantile is −Φ⁻¹(1 − (1 − p)) with the subtraction exact.
func TestStdNormalQuantileTails(t *testing.T) {
	const tol = 1e-13
	for e := -300.0; e <= math.Log10(0.5); e += 0.25 {
		p := math.Pow(10, e)
		if got, want := StdNormalQuantile(p), lowerQuantileRef(p); math.Abs(got-want) > tol {
			t.Errorf("Quantile(%g) = %.17g, want %.17g (off by %.2g)", p, got, want, got-want)
		}
		q := 1 - p
		if q == 1 {
			continue
		}
		if got, want := StdNormalQuantile(q), -lowerQuantileRef(1-q); math.Abs(got-want) > tol {
			t.Errorf("Quantile(1-%g) = %.17g, want %.17g (off by %.2g)", p, got, want, got-want)
		}
	}
}

func TestStdNormalQuantileSymmetry(t *testing.T) {
	f := func(p float64) bool {
		p = math.Abs(math.Mod(p, 1))
		if p == 0 || p == 1 {
			return true
		}
		return almostEqual(StdNormalQuantile(p), -StdNormalQuantile(1-p), 1e-8) ||
			math.Abs(StdNormalQuantile(p)+StdNormalQuantile(1-p)) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
