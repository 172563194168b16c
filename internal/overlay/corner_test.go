package overlay

import (
	"math"
	"testing"

	"yap/internal/geom"
	"yap/internal/randx"
)

// literalMaxNorm is the four-Hypot loop MaxCornerNorm replaces.
func literalMaxNorm(x, y *[4]float64) float64 {
	var s float64
	for c := range x {
		if h := math.Hypot(x[c], y[c]); h > s {
			s = h
		}
	}
	return s
}

// LiteralMaxOverRect is MaxOverRect as the four-Hypot loop computed it
// before the worst-corner ranking: the reference of this package's tests,
// the external ones included.
func LiteralMaxOverRect(d Distortion, r geom.Rect) float64 {
	var x, y [4]float64
	for c, p := range r.Corners() {
		v := d.Displacement(p)
		x[c], y[c] = v.X, v.Y
	}
	return literalMaxNorm(&x, &y)
}

// cornerSquares returns the squared displacements as MaxCornerNorm's
// callers form them, explicitly rounded or with the sum fused into the
// first product.
func cornerSquares(x, y *[4]float64, fused bool) [4]float64 {
	var sq [4]float64
	for c := range sq {
		if fused {
			sq[c] = math.FMA(x[c], x[c], float64(y[c]*y[c]))
		} else {
			sq[c] = float64(x[c]*x[c]) + float64(y[c]*y[c])
		}
	}
	return sq
}

// checkMaxCornerNorm fails t unless MaxCornerNorm returns the literal
// loop's bits on x and y, with the squares formed either way.
func checkMaxCornerNorm(t *testing.T, x, y *[4]float64) {
	t.Helper()
	want := literalMaxNorm(x, y)
	for _, fused := range []bool{false, true} {
		sq := cornerSquares(x, y, fused)
		if got := MaxCornerNorm(x, y, &sq); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("x %v y %v (fused squares %v): MaxCornerNorm %v (%#x), loop %v (%#x)",
				*x, *y, fused, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// nudge moves v by k floats (k < 0 toward -Inf).
func nudge(v float64, k int) float64 {
	for ; k > 0; k-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; k < 0; k++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// signed draws a magnitude log-uniform in [lo, hi] with a random sign.
func signed(rng *randx.Source, lo, hi float64) float64 {
	v := math.Exp(rng.Uniform(math.Log(lo), math.Log(hi)))
	if rng.Bernoulli(0.5) {
		return -v
	}
	return v
}

// Regimes of drawCorners.
const (
	regimeRealistic = iota // Table I-scale distortion over a pad rectangle
	regimeTie              // pure magnification or rotation about a centred rectangle
	regimeNearTie          // both about a centred rectangle: equal in exact arithmetic
	regimeUlpTie           // an exact tie with one coordinate moved by up to 3 ulps
	regimeWide             // every coordinate log-uniform over 600 decades
	regimeCut              // the largest square within a few ulps of 2^-900
	regimeHuge             // squares near MaxFloat64, some overflowing
	regimeTiny             // zeros of either sign, subnormals and subnormal squares
	regimes
)

// drawCorners fills x and y with the corner displacements of one draw of
// the given regime; one draw in eight then puts NaN or ±Inf in a random
// slot, or an infinity and a NaN in one corner.
func drawCorners(rng *randx.Source, regime int, x, y *[4]float64) {
	fill := func(d Distortion, r geom.Rect) {
		for c, p := range r.Corners() {
			v := d.Displacement(p)
			x[c], y[c] = v.X, v.Y
		}
	}
	centred := func() geom.Rect {
		a, b := rng.Uniform(1e-5, 1e-2), rng.Uniform(1e-5, 1e-2)
		return geom.Rect{X0: -a, Y0: -b, X1: a, Y1: b}
	}
	switch regime {
	case regimeRealistic:
		x0, y0 := rng.Uniform(-0.15, 0.15), rng.Uniform(-0.15, 0.15)
		r := geom.Rect{X0: x0, Y0: y0, X1: x0 + rng.Uniform(1e-5, 1e-2), Y1: y0 + rng.Uniform(1e-5, 1e-2)}
		fill(Distortion{TX: rng.Normal(0, 2e-8), TY: rng.Normal(0, 2e-8),
			Rotation: rng.Normal(0, 3e-6), Magnification: rng.Normal(0, 3e-6)}, r)
	case regimeTie:
		if rng.Bernoulli(0.5) {
			fill(Distortion{Magnification: signed(rng, 1e-9, 1e-4)}, centred())
		} else {
			fill(Distortion{Rotation: signed(rng, 1e-9, 1e-4)}, centred())
		}
	case regimeNearTie:
		fill(Distortion{Rotation: signed(rng, 1e-9, 1e-4), Magnification: signed(rng, 1e-9, 1e-4)}, centred())
	case regimeUlpTie:
		fill(Distortion{Magnification: signed(rng, 1e-9, 1e-4)}, centred())
		c := rng.IntN(4)
		if rng.Bernoulli(0.5) {
			x[c] = nudge(x[c], rng.IntN(7)-3)
		} else {
			y[c] = nudge(y[c], rng.IntN(7)-3)
		}
	case regimeWide:
		for c := range x {
			x[c], y[c] = signed(rng, 1e-300, 1e300), signed(rng, 1e-300, 1e300)
		}
	case regimeCut:
		// 2^-450 squared is 2^-900 exactly; the y terms underflow.
		for c := range x {
			x[c], y[c] = 0x1p-450*rng.Uniform(0.1, 1), signed(rng, 1e-300, 1e-250)
		}
		x[rng.IntN(4)] = nudge(0x1p-450, rng.IntN(7)-3)
	case regimeHuge:
		// One corner's square lies within a few ulps of MaxFloat64 or,
		// with a y term added, overflows.
		big := math.Sqrt(math.MaxFloat64)
		for c := range x {
			x[c], y[c] = big*rng.Uniform(0.1, 0.9), big*rng.Uniform(0, 0.1)
		}
		c := rng.IntN(4)
		x[c], y[c] = nudge(big, rng.IntN(7)-4), 0
		if rng.Bernoulli(0.5) {
			y[c] = big * rng.Uniform(0, 0.01)
		}
	case regimeTiny:
		if rng.Bernoulli(0.5) {
			tiny := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1060, 0x1p-1022, 0x1p-540}
			for c := range x {
				x[c], y[c] = tiny[rng.IntN(len(tiny))], tiny[rng.IntN(len(tiny))]
			}
			break
		}
		// Squares of a few subnormal ulps, whose rounding can reorder
		// two corners.
		for c := range x {
			x[c], y[c] = 0x1p-537*rng.Uniform(0, 3), 0x1p-537*rng.Uniform(0, 3)
		}
	}
	if rng.IntN(8) == 0 {
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		c := rng.IntN(4)
		switch rng.IntN(3) {
		case 0:
			x[c] = specials[rng.IntN(3)]
		case 1:
			y[c] = specials[rng.IntN(3)]
		default:
			// math.Hypot is +Inf when either argument is infinite,
			// even when the other is NaN.
			x[c], y[c] = specials[1+rng.IntN(2)], math.NaN()
			if rng.Bernoulli(0.5) {
				x[c], y[c] = y[c], x[c]
			}
		}
	}
}

// TestMaxCornerNormMatchesLoop: the worst-corner ranking returns the
// literal four-Hypot loop's bits over 200,000 draws of every regime, with
// the squares explicitly rounded and fused. It also checks the proof in
// MaxCornerNorm's comment directly: wherever its condition holds, the
// largest square's Hypot is strictly above every other corner's. Each
// regime must reach the single-Hypot case, the loop, or both, as its
// inputs allow.
func TestMaxCornerNormMatchesLoop(t *testing.T) {
	rng := randx.NewSource(32)
	const draws = 200_000
	var certain, total [regimes]int
	var x, y [4]float64
	for n := 0; n < draws; n++ {
		regime := n % regimes
		drawCorners(rng, regime, &x, &y)
		checkMaxCornerNorm(t, &x, &y)
		sq := cornerSquares(&x, &y, false)
		total[regime]++
		b := 0
		for c := range sq {
			if sq[c] > sq[b] {
				b = c
			}
		}
		m := sq[b]
		ok := 0x1p-900 <= m && m <= math.MaxFloat64
		for c := range sq {
			ok = ok && (c == b || sq[c] < m*(1-0x1p-48))
		}
		if !ok {
			continue
		}
		certain[regime]++
		hb := math.Hypot(x[b], y[b])
		for c := range sq {
			if h := math.Hypot(x[c], y[c]); c != b && !(h < hb) {
				t.Fatalf("x %v y %v: corner %d's square leads by 2^-48 but Hypot %v at %d is not below it (%v)", x, y, b, h, c, hb)
			}
		}
	}
	names := [regimes]string{"realistic", "tie", "near-tie", "ulp-tie", "wide", "cut", "huge", "tiny"}
	for r := range names {
		t.Logf("%-9s %6d of %6d draws certain", names[r], certain[r], total[r])
	}
	for _, r := range []int{regimeRealistic, regimeWide, regimeCut, regimeHuge} {
		if certain[r] == 0 || certain[r] == total[r] {
			t.Errorf("%s: %d of %d draws certain; the regime must reach both cases", names[r], certain[r], total[r])
		}
	}
	for _, r := range []int{regimeTie, regimeNearTie, regimeUlpTie, regimeTiny} {
		if certain[r] != 0 {
			t.Errorf("%s: %d draws certain; ties and zero or subnormal squares must take the loop", names[r], certain[r])
		}
	}
}

// FuzzMaxCornerNorm: on any eight coordinates the worst-corner ranking
// returns the literal four-Hypot loop's bits, with the squares explicitly
// rounded and fused.
func FuzzMaxCornerNorm(f *testing.F) {
	big := math.Sqrt(math.MaxFloat64)
	for _, s := range [][8]float64{
		{1e-3, -1e-3, -1e-3, 1e-3, 2e-3, 2e-3, -2e-3, -2e-3},
		{1e-3, -1e-3, -1e-3, nudge(1e-3, 1), 2e-3, 2e-3, -2e-3, -2e-3},
		{0x1p-450, nudge(0x1p-450, -1), 0, 0, 0, 0, 0, 0},
		{big, nudge(big, 1), 1, 0, 0, 0, 0, 0},
		{math.Copysign(0, -1), 0, 0, 0, 0, 0, 0, math.SmallestNonzeroFloat64},
		{math.Inf(1), 1, 2, 3, math.NaN(), 1, 2, 3},
		{1, 2, 3, 4, 5, 6, 7, math.NaN()},
		{5e-8, 4.9e-8, -5.1e-8, 3e-9, 2e-8, -2e-8, 1e-9, 7e-8},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
	}
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3, y0, y1, y2, y3 float64) {
		x, y := [4]float64{x0, x1, x2, x3}, [4]float64{y0, y1, y2, y3}
		checkMaxCornerNorm(t, &x, &y)
	})
}
