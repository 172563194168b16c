// Package num is the numerical substrate for the YAP yield models: normal
// distribution functions, one-dimensional quadrature, root finding, summary
// statistics and histograms. It has no dependencies beyond the standard
// library and is deliberately free of any yield-model semantics so that the
// model packages stay readable.
package num

import "math"

// invSqrt2 is 1/√2, used to map the normal CDF onto math.Erf.
const invSqrt2 = 0.7071067811865476

// NormalCDF returns P(X ≤ x) for X ~ N(mu, sigma²).
//
// sigma must be positive; a zero sigma degenerates to a step function, which
// is what callers with perfectly-controlled processes expect, so it is
// handled explicitly instead of producing NaN.
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		if x < mu {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf((x-mu)/sigma*invSqrt2))
}

// StdNormalCDF returns P(Z ≤ z) for Z ~ N(0,1).
func StdNormalCDF(z float64) float64 { return 0.5 * (1 + math.Erf(z*invSqrt2)) }

// NormalInterval returns P(lo ≤ X ≤ hi) for X ~ N(mu, sigma²).
//
// This is the primitive behind the pad possibility-of-survival integrals
// (Eq. 1, 7, 13, 23 of the paper). For far-tail intervals the direct
// difference of CDFs loses all precision (1−1 = 0), so the computation is
// reflected into the lower tail where Erfc keeps relative accuracy.
func NormalInterval(lo, hi, mu, sigma float64) float64 {
	if hi <= lo {
		return 0
	}
	if sigma <= 0 {
		if lo <= mu && mu <= hi {
			return 1
		}
		return 0
	}
	a := (lo - mu) / sigma
	b := (hi - mu) / sigma
	// Work on the side of the mean where the tail is representable.
	if a > 0 {
		// Both bounds above the mean: P = Q(a) − Q(b) with the upper-tail
		// function Q(z) = erfc(z/√2)/2.
		return 0.5 * (math.Erfc(a*invSqrt2) - math.Erfc(b*invSqrt2))
	}
	if b < 0 {
		// Both below the mean: mirror.
		return 0.5 * (math.Erfc(-b*invSqrt2) - math.Erfc(-a*invSqrt2))
	}
	// Straddles the mean: each CDF is well-conditioned.
	return 0.5 * (math.Erf(b*invSqrt2) - math.Erf(a*invSqrt2))
}

// StdNormalQuantile returns z such that P(Z ≤ z) = p for Z ~ N(0,1).
//
// Implementation: Peter Acklam's rational approximation refined by one
// Halley step whose residual comes from math.Erfc, which keeps relative
// precision in the lower tail; p > 0.5 is answered as −Φ⁻¹(1 − p), exact
// there, so both tails invert the p actually represented. The result is
// within about 1e-14 of the exact quantile over p ∈ (0,1). Returns ±Inf at
// the endpoints and NaN outside [0,1].
func StdNormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	case p > 0.5:
		return -StdNormalQuantile(1 - p)
	}
	// Acklam coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	var z float64
	if p < pLow {
		q := math.Sqrt(-2 * math.Log(p))
		z = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	} else {
		q := p - 0.5
		r := q * q
		z = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
	// One Halley refinement step.
	e := 0.5*math.Erfc(-z*invSqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(z*z/2)
	z -= u / (1 + z*u/2)
	return z
}
