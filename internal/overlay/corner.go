package overlay

import "math"

// MaxCornerNorm returns the largest systematic overlay error over the four
// corners of a pad-array rectangle whose corner c is displaced by
// (x[c], y[c]): the value of the loop
//
//	var s float64
//	for c := range x {
//		if h := math.Hypot(x[c], y[c]); h > s {
//			s = h
//		}
//	}
//
// for every float64 input, NaN and ±Inf included, given the squared
// displacements sq[c] = float64(x[c]*x[c]) + float64(y[c]*y[c]) (the sum
// may also be fused with one of its products). It ranks the corners by sq
// and calls math.Hypot once, on the largest, when the ranking is certain,
// and runs the loop otherwise.
//
// The ranking is certain when the largest square m = sq[b] lies in
// [2^-900, MaxFloat64] and every other square is below
// t = fl(m·(1−2^-48)). Then math.Hypot at every other corner c is below
// math.Hypot at b, so the loop returns the latter. With u = 2^-53 and
// a_c = x[c]² + y[c]² exactly:
//
//   - A square adds two non-negative terms with at most two roundings, so
//     sq_c lies within a factor (1±u)² of a_c, up to an absolute 2^-1073
//     from terms that underflow; against m ≥ 2^-900 that is a relative
//     2^-173.
//   - sq_c < t ≤ m·(1−2^-48)(1+u) and 2^-48 = 32u give
//     a_c/a_b < (1−32u)(1+u)(1+u)²/(1−u)² + 2^-172 < 1−26u, so
//     √a_c/√a_b < 1−13u.
//   - math.Hypot(p, q) computes max·√(1+(min/max)²) with at most five
//     roundings, within 3.25u (say 4u) of √(p²+q²) where the result is
//     normal and within 2^-1074 elsewhere. So
//     Hypot_c/Hypot_b < (1−13u)(1+4u)/(1−4u) < 1−4u.
//   - m ≤ MaxFloat64 keeps x[b] and y[b] finite, and m ≥ 2^-900 keeps
//     Hypot_b ≥ 2^-451: it is positive, finite and normal.
//
// A NaN square fails every comparison and an infinite one exceeds
// MaxFloat64, so NaN and ±Inf inputs and overflowing squares take the
// loop, as do exact and near ties, zeros and squares below the cut. The
// bound holds on any host: neither side's roundings are assumed beyond
// the counts above.
//
// The ranking is straight-line: the squares are ranked pairwise, and one
// comparison per other corner checks its gap.
func MaxCornerNorm(x, y, sq *[4]float64) float64 {
	b, o := 0, 2
	if sq[1] > sq[0] {
		b = 1
	}
	if sq[3] > sq[2] {
		o = 3
	}
	if sq[o] > sq[b] {
		b = o
	}
	m := sq[b]
	if t := m * (1 - 0x1p-48); 0x1p-900 <= m && m <= math.MaxFloat64 && sq[b^1] < t && sq[b^2] < t && sq[b^3] < t {
		return math.Hypot(x[b], y[b])
	}
	var s float64
	for c := range x {
		if h := math.Hypot(x[c], y[c]); h > s {
			s = h
		}
	}
	return s
}
