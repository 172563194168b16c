package num

import (
	"math"
	"testing"
)

func TestExpectNormal1Moments(t *testing.T) {
	mu, sigma := 3.0, 2.0
	cases := []struct {
		name string
		g    func(float64) float64
		want float64
	}{
		{"constant", func(x float64) float64 { return 7 }, 7},
		{"identity", func(x float64) float64 { return x }, mu},
		{"square", func(x float64) float64 { return x * x }, mu*mu + sigma*sigma},
		{"cube", func(x float64) float64 { return x * x * x }, mu*mu*mu + 3*mu*sigma*sigma},
		{"fourth central", func(x float64) float64 { d := x - mu; return d * d * d * d }, 3 * sigma * sigma * sigma * sigma},
	}
	for _, c := range cases {
		if got := ExpectNormal1(c.g, mu, sigma); !almostEqual(got, c.want, 1e-10) {
			t.Errorf("%s: got %g, want %g", c.name, got, c.want)
		}
	}
}

func TestExpectNormal1DegenerateSigma(t *testing.T) {
	if got := ExpectNormal1(func(x float64) float64 { return x * x }, 5, 0); got != 25 {
		t.Errorf("degenerate sigma: got %g, want 25", got)
	}
}

func TestExpectNormalMultiDim(t *testing.T) {
	// E[X·Y + X²] for independent X~N(1,2²), Y~N(3,1²) = 1·3 + (1+4) = 8.
	got := ExpectNormal(func(x []float64) float64 {
		return x[0]*x[1] + x[0]*x[0]
	}, []float64{1, 3}, []float64{2, 1})
	if !almostEqual(got, 8, 1e-10) {
		t.Errorf("2-dim expectation = %g, want 8", got)
	}
}

func TestExpectNormalMixedDegenerate(t *testing.T) {
	// Middle dimension deterministic.
	got := ExpectNormal(func(x []float64) float64 {
		return x[0] + x[1] + x[2]*x[2]
	}, []float64{1, 10, 0}, []float64{1, 0, 3})
	if !almostEqual(got, 1+10+9, 1e-10) {
		t.Errorf("mixed expectation = %g, want 20", got)
	}
}

func TestExpectNormalPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mu/sigma length mismatch")
		}
	}()
	ExpectNormal(func(x []float64) float64 { return 0 }, []float64{1}, []float64{1, 2})
}

func TestExpectNormalGaussianOfGaussian(t *testing.T) {
	// E[exp(−X²/2)] for X~N(0,σ²) = 1/√(1+σ²) — a smooth nonpolynomial
	// where GH-7 should be near exact for modest σ.
	sigma := 0.8
	got := ExpectNormal1(func(x float64) float64 { return math.Exp(-x * x / 2) }, 0, sigma)
	want := 1 / math.Sqrt(1+sigma*sigma)
	// A 7-point rule is not exact for this integrand; ~1e-4 relative is
	// its expected accuracy at σ ≈ 0.8.
	if !almostEqual(got, want, 1e-4) {
		t.Errorf("E[exp(-X²/2)] = %g, want %g", got, want)
	}
}

func TestExpectNormalAdaptiveIndicator(t *testing.T) {
	// E[1{X ≤ a}] = Φ((a−µ)/σ): the step function that defeats fixed
	// Gauss–Hermite rules and motivated the adaptive path.
	mu, sigma, a := 1.0, 0.5, 1.3
	got := ExpectNormalAdaptive(func(x float64) float64 {
		if x <= a {
			return 1
		}
		return 0
	}, mu, sigma, mu)
	want := StdNormalCDF((a - mu) / sigma)
	if !almostEqual(got, want, 1e-6) {
		t.Errorf("indicator expectation = %.10g, want %.10g", got, want)
	}
}

func TestExpectNormalAdaptiveMatchesGHOnSmooth(t *testing.T) {
	g := func(x float64) float64 { return math.Sin(x) + x*x }
	mu, sigma := 0.3, 1.1
	gh := ExpectNormal1(g, mu, sigma)
	ad := ExpectNormalAdaptive(g, mu, sigma, mu)
	if !almostEqual(gh, ad, 1e-5) {
		t.Errorf("GH %g vs adaptive %g", gh, ad)
	}
}

// TestExpectNormalAdaptiveConstant: a constant integrand returns its
// constant exactly, from nine evaluations when the split falls inside the
// ±7σ window and from five when it is clamped to either edge.
func TestExpectNormalAdaptiveConstant(t *testing.T) {
	for _, tc := range []struct {
		split float64
		calls int
	}{{-1e-3, 5}, {-2e-6, 5}, {0, 9}, {1e-6, 9}, {2.2e-6, 9}, {1e-3, 5}} {
		calls := 0
		got := ExpectNormalAdaptive(func(float64) float64 { calls++; return 0.75 }, 1e-6, 2e-7, tc.split)
		if got != 0.75 || calls != tc.calls {
			t.Errorf("split %g: %v from %d evaluations, want exactly 0.75 from %d", tc.split, got, calls, tc.calls)
		}
	}
}

// TestExpectNormalAdaptiveNarrowWindow: the mass of a survival window a
// twentieth of σ wide, between the nodes an unsplit window starts from, is
// found when the split falls inside it.
func TestExpectNormalAdaptiveNarrowWindow(t *testing.T) {
	const mu, sigma = 2.0, 0.5
	for _, z := range []float64{-4.2, -1.75, 0.4, 2.6, 5.1} {
		lo, hi := mu+(z-0.025)*sigma, mu+(z+0.025)*sigma
		got := ExpectNormalAdaptive(func(x float64) float64 {
			if lo <= x && x <= hi {
				return 1
			}
			return 0
		}, mu, sigma, mu+z*sigma)
		if want := NormalInterval(lo, hi, mu, sigma); math.Abs(got-want) > 1e-7 {
			t.Errorf("window at z = %g: %.10g, want %.10g", z, got, want)
		}
	}
}

func TestExpectNormalAdaptiveDegenerate(t *testing.T) {
	if got := ExpectNormalAdaptive(func(x float64) float64 { return 2 * x }, 4, 0, 0); got != 8 {
		t.Errorf("degenerate adaptive = %g, want 8", got)
	}
}
