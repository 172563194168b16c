package num

import "math"

// ghNodes7 and ghWeights7 are the 7-point Gauss–Hermite nodes and weights
// for ∫ e^(−x²) f(x) dx (physicists' convention, positive half; the rule is
// symmetric and includes the origin).
var ghNodes7 = [4]float64{
	0,
	0.8162878828589647,
	1.6735516287674714,
	2.6519613568352334,
}

var ghWeights7 = [4]float64{
	0.8102646175568073,
	0.4256072526101278,
	0.0545155828191270,
	0.0009717812450995,
}

// invSqrtPi is 1/√π, the normalization of the Gauss–Hermite measure.
const invSqrtPi = 0.5641895835477563

// GaussHermite is the 7-point Gauss–Hermite rule for E[g(X)] with
// X ~ N(mu, sigma²), exact for polynomial g up to degree 13, laid out in
// the order its weighted sum folds. A caller evaluates g at X[:N] and
// hands the values, in the same order, to Expect. ExpectNormal1 and
// ExpectNormal are that loop; a caller with its own tables (the D2W
// placement quadrature) runs it without closures and gets the same bits.
// Every product of the abscissae and the fold is rounded as written, so
// no host fuses one into the following add.
type GaussHermite struct {
	// X holds the abscissae in fold order: mu, then mu+d and mu−d for each
	// positive node, d = √2·sigma·t.
	X [7]float64
	// N is the number of abscissae in use: 7, or 1 for a zero sigma, whose
	// rule is the single unweighted node mu.
	N int
}

// NewGaussHermite returns the rule for N(mu, sigma²).
func NewGaussHermite(mu, sigma float64) GaussHermite {
	r := GaussHermite{X: [7]float64{mu}, N: 1}
	if sigma == 0 {
		return r
	}
	r.N = 7
	scale := math.Sqrt2 * sigma
	for i := 1; i < 4; i++ {
		d := float64(scale * ghNodes7[i])
		r.X[2*i-1] = mu + d
		r.X[2*i] = mu - d
	}
	return r
}

// Expect folds g's values at X[:N] into E[g(X)]: the weighted sum in
// abscissa order, normalized by 1/√π. A zero-sigma rule returns its one
// value unweighted.
func (r *GaussHermite) Expect(g *[7]float64) float64 {
	if r.N == 1 {
		return g[0]
	}
	sum := ghWeights7[0] * g[0]
	for i := 1; i < 4; i++ {
		sum += float64(ghWeights7[i] * g[2*i-1])
		sum += float64(ghWeights7[i] * g[2*i])
	}
	return sum * invSqrtPi
}

// ExpectNormal1 returns E[g(X)] for X ~ N(mu, sigma²) using the 7-point
// Gauss–Hermite rule. A zero sigma collapses to g(mu).
func ExpectNormal1(g func(float64) float64, mu, sigma float64) float64 {
	r := NewGaussHermite(mu, sigma)
	var v [7]float64
	for i := 0; i < r.N; i++ {
		v[i] = g(r.X[i])
	}
	return r.Expect(&v)
}

// ExpectNormal returns E[g(X₁,…,X_k)] for independent X_i ~ N(mu[i],
// sigma[i]²) via a tensor-product 7-point Gauss–Hermite rule, the first
// dimension outermost. Dimensions with sigma[i] = 0 contribute a single
// node, so degenerate (deterministic) parameters cost nothing.
//
// The D2W overlay model runs the same tensor (GaussHermite's abscissae and
// fold, the first dimension outermost) over its own tables.
func ExpectNormal(g func(x []float64) float64, mu, sigma []float64) float64 {
	if len(mu) != len(sigma) {
		// Unreachable from the model: every caller builds mu and sigma
		// side by side with identical lengths; a mismatch is a programming
		// error in new code, best caught loudly.
		panic("num: ExpectNormal mu/sigma length mismatch") //yaplint:allow no-naked-panic caller-constructed slices, lengths fixed at the call site
	}
	x := make([]float64, len(mu))
	return expectNormalRec(g, mu, sigma, x, 0)
}

// ExpectNormalAdaptive returns E[g(X)] for X ~ N(mu, sigma²) by adaptive
// Simpson integration in probability space: the integral of
// g(mu + sigma·Φ⁻¹(u)) over u in the ±7σ window [Φ(−7), Φ(7)], divided by
// the window's mass. Unlike the fixed Gauss–Hermite rule it resolves
// near-discontinuous g (yield indicators smoothed over a few nanometers of
// misalignment); use it for the one or two dimensions whose spread dwarfs
// the indicator's transition width. A zero sigma collapses to g(mu).
//
// The window is split at x = split, and each half is integrated to an
// absolute 2.5e-8. The caller places the split where g's survival window
// sits: in u the normal density costs no nodes, but a survival window
// narrow in u can fall between the first nodes, which then agree on a flat
// g and stop. g is integrated as g − g(split) with the constant added back,
// so a g that is flat on the first nodes returns g(split) exactly, from
// nine evaluations, or five when split lies outside the window and is
// clamped to its edge.
//
// Accuracy, against composite 8-point Gauss–Legendre references within
// 2.1e-9 of grids four times finer: 532 D2W placement averages (the full
// sets of overlay's TestD2WPlacementAccuracy) are within 1e-6, the worst
// at 2.0e-7, and the 72 drifted recess die yields of recess's
// TestDriftedYieldAccuracy within 1e-7.
func ExpectNormalAdaptive(g func(float64) float64, mu, sigma, split float64) float64 {
	if sigma == 0 {
		return g(mu)
	}
	const tol = 2.5e-8
	x := func(u float64) float64 { return mu + sigma*StdNormalQuantile(u) }
	lo, hi := normalWindowLo, 1-normalWindowLo
	us := Clamp(0.5*math.Erfc((mu-split)/sigma*invSqrt2), lo, hi)
	c := g(x(us))
	f := func(u float64) float64 { return g(x(u)) - c }
	budget := integrateBudget
	var sum float64
	if lo < us {
		sum += integrate(f, lo, us, f(lo), 0, tol, &budget)
	}
	if us < hi {
		sum += integrate(f, us, hi, 0, f(hi), tol, &budget)
	}
	return c + sum/(hi-lo)
}

// normalWindowLo is Φ(−7), the lower edge of ExpectNormalAdaptive's window.
var normalWindowLo = 0.5 * math.Erfc(7*invSqrt2)

func expectNormalRec(g func(x []float64) float64, mu, sigma, x []float64, dim int) float64 {
	if dim == len(mu) {
		return g(x)
	}
	r := NewGaussHermite(mu[dim], sigma[dim])
	var v [7]float64
	for i := 0; i < r.N; i++ {
		x[dim] = r.X[i]
		v[i] = expectNormalRec(g, mu, sigma, x, dim+1)
	}
	return r.Expect(&v)
}
