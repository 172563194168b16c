package num

import "math"

// Integrate computes ∫_a^b f(x) dx with adaptive Simpson quadrature to the
// requested absolute tolerance. It is the workhorse behind the defect-model
// Λ integrals (Eq. 20, 26 of the paper).
//
// The routine is robust to a > b (returns the negated integral) and to
// integrable endpoint behaviour as long as f is finite on (a,b).
func Integrate(f func(float64) float64, a, b, tol float64) float64 {
	if a == b {
		return 0
	}
	if tol <= 0 {
		tol = 1e-12
	}
	sign := 1.0
	if a > b {
		a, b = b, a
		sign = -1
	}
	budget := integrateBudget
	return sign * integrate(f, a, b, f(a), f(b), tol, &budget)
}

// integrateBudget bounds the integrand calls of one Integrate on
// pathological integrands (divergent tails, misconfigured scales): once it
// is exhausted, remaining panels return their best current estimate
// instead of refining further.
const integrateBudget = 2_000_000

// integrate is Integrate's adaptive Simpson rule on a < b, given f(a) and
// f(b) and drawing on budget.
func integrate(f func(float64) float64, a, b, fa, fb, tol float64, budget *int) float64 {
	m := 0.5 * (a + b)
	fm := f(m)
	return adaptiveSimpson(f, a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 52, budget)
}

func simpson(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int, budget *int) float64 {
	m := 0.5 * (a + b)
	lm := 0.5 * (a + m)
	rm := 0.5 * (m + b)
	flm, frm := f(lm), f(rm)
	*budget -= 2
	left := simpson(a, m, fa, flm, fm)
	right := simpson(m, b, fm, frm, fb)
	if depth <= 0 || *budget <= 0 {
		return left + right
	}
	delta := left + right - whole
	if math.Abs(delta) <= 15*tol {
		return left + right + delta/15
	}
	return adaptiveSimpson(f, a, m, fa, flm, fm, left, tol/2, depth-1, budget) +
		adaptiveSimpson(f, m, b, fm, frm, fb, right, tol/2, depth-1, budget)
}

// IntegrateToInfinity computes ∫_a^∞ f(x) dx for an integrand with
// power-law or faster decay by mapping x = a + s·t/(1-t) onto t ∈ [0,1)
// and integrating adaptively. Used for the tail portions of the
// defect-model integrals where the paper integrates to infinity.
//
// scale sets the substitution's characteristic length s and should match
// the decay scale of f beyond a; a mismatched scale concentrates all the
// integrand's variation in a sliver of [0,1) and forces pathological
// recursion depth. Non-positive scales fall back to max(|a|, 1).
func IntegrateToInfinity(f func(float64) float64, a, scale, tol float64) float64 {
	if scale <= 0 {
		scale = math.Max(math.Abs(a), 1)
	}
	g := func(t float64) float64 {
		if t >= 1 {
			return 0
		}
		den := 1 - t
		x := a + scale*t/den
		return f(x) * scale / (den * den)
	}
	return Integrate(g, 0, 1, tol)
}

// BisectMonotone finds x ∈ [a,b] with f(x) = target for a monotone f, by
// bisection. It does not require a strict sign bracket: if the target lies
// outside f's range on [a,b], the nearer endpoint is returned. Used for the
// δ_ca solve (Eq. 6) where the contact-area curve is monotone decreasing and
// the constraint can saturate at either end.
func BisectMonotone(f func(float64) float64, a, b, target, tol float64) float64 {
	fa, fb := f(a), f(b)
	increasing := fb >= fa
	lo, hi := a, b
	// Saturation checks.
	if increasing {
		if target <= fa {
			return a
		}
		if target >= fb {
			return b
		}
	} else {
		if target >= fa {
			return a
		}
		if target <= fb {
			return b
		}
	}
	for hi-lo > tol {
		mid := 0.5 * (lo + hi)
		fm := f(mid)
		if (fm < target) == increasing {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}
