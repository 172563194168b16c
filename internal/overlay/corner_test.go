package overlay

import (
	"math"
	"math/big"
	"testing"

	"yap/internal/geom"
	"yap/internal/randx"
)

// literalNorm is one corner's norm written out: √(fl(x²) + fl(y²)).
func literalNorm(x, y float64) float64 {
	return math.Sqrt(float64(x*x) + float64(y*y))
}

// LiteralMaxOverRect is MaxOverRect written out as the loop over the
// corners: the largest literalNorm, NaN propagating. It is the reference
// of this package's tests, the external ones included.
func LiteralMaxOverRect(d Distortion, r geom.Rect) float64 {
	s := 0.0
	for _, p := range r.Corners() {
		v := d.Displacement(p)
		s = max(s, literalNorm(v.X, v.Y))
	}
	return s
}

// cornerSquares returns the squared displacements as MaxCornerNorm's
// callers form them.
func cornerSquares(x, y *[4]float64) [4]float64 {
	var sq [4]float64
	for c := range sq {
		sq[c] = float64(x[c]*x[c]) + float64(y[c]*y[c])
	}
	return sq
}

// exactNorm returns √(x² + y²) to 256 bits: the squares are exact, and
// the sum and root are off by at most 2^-255 relative.
func exactNorm(x, y float64) *big.Float {
	const prec = 256
	bx, by := new(big.Float).SetPrec(prec).SetFloat64(x), new(big.Float).SetPrec(prec).SetFloat64(y)
	sum := new(big.Float).SetPrec(prec).Mul(bx, bx)
	sum.Add(sum, new(big.Float).SetPrec(prec).Mul(by, by))
	return sum.Sqrt(sum)
}

// normBound is MaxCornerNorm's relative error bound in the normal range,
// 2u + u² with u = 2^-53.
var normBound = new(big.Float).SetFloat64(0x1p-52 + 0x1p-106)

// relErr returns |got − want| / want for want > 0.
func relErr(got float64, want *big.Float) *big.Float {
	d := new(big.Float).SetPrec(256).SetFloat64(got)
	d.Sub(d, want).Abs(d)
	return d.Quo(d, want)
}

// normalSquares reports whether every coordinate is zero or has a square
// in [2^-1022, MaxFloat64], and every corner's sum of squares is finite:
// the range where MaxCornerNorm's error bound holds.
func normalSquares(x, y *[4]float64) bool {
	for c := range x {
		for _, v := range [2]float64{x[c], y[c]} {
			if p := float64(v * v); v != 0 && !(0x1p-1022 <= p && p <= math.MaxFloat64) {
				return false
			}
		}
		if float64(x[c]*x[c])+float64(y[c]*y[c]) > math.MaxFloat64 {
			return false
		}
	}
	return true
}

// checkMaxCornerNorm fails t unless MaxCornerNorm on the rounded squares
// of x and y keeps its documented contract: the literal loop's value on
// every input; NaN when a coordinate is NaN; +Inf when a square overflows;
// and, where the squares are normal, within (2u + u²) relative of the
// exact largest corner norm (exactly +0 when every corner is zero).
func checkMaxCornerNorm(t *testing.T, x, y *[4]float64) {
	t.Helper()
	sq := cornerSquares(x, y)
	got := MaxCornerNorm(&sq)
	loop := 0.0
	anyNaN, anyInf := false, false
	for c := range x {
		loop = max(loop, literalNorm(x[c], y[c]))
		anyNaN = anyNaN || math.IsNaN(x[c]) || math.IsNaN(y[c])
		anyInf = anyInf || math.IsInf(sq[c], 1)
	}
	if math.Float64bits(got) != math.Float64bits(loop) && !(math.IsNaN(got) && math.IsNaN(loop)) {
		t.Fatalf("x %v y %v: MaxCornerNorm %v, literal loop %v", *x, *y, got, loop)
	}
	switch {
	case anyNaN:
		if !math.IsNaN(got) {
			t.Fatalf("x %v y %v: MaxCornerNorm %v, want NaN", *x, *y, got)
		}
	case anyInf:
		if !math.IsInf(got, 1) {
			t.Fatalf("x %v y %v: MaxCornerNorm %v, want +Inf (a square overflows)", *x, *y, got)
		}
	case normalSquares(x, y):
		want := new(big.Float)
		for c := range x {
			if n := exactNorm(x[c], y[c]); n.Cmp(want) > 0 {
				want = n
			}
		}
		if want.Sign() == 0 {
			if math.Float64bits(got) != 0 {
				t.Fatalf("x %v y %v: MaxCornerNorm %v, want +0", *x, *y, got)
			}
			return
		}
		if e := relErr(got, want); e.Cmp(normBound) > 0 {
			t.Fatalf("x %v y %v: MaxCornerNorm %v, exact %s: relative error %s > 2u+u²",
				*x, *y, got, want.Text('g', 20), e.Text('g', 3))
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

// Regimes of drawCorners, all with normal-range squares.
const (
	regimeRealistic = iota // Table I-scale distortion over a pad rectangle
	regimeTie              // pure magnification or rotation about a centred rectangle
	regimeNearTie          // both about a centred rectangle: equal in exact arithmetic
	regimeUlpTie           // an exact tie with one coordinate moved by up to 3 ulps
	regimeWide             // every coordinate log-uniform over the normal-square range
	regimes
)

// drawCorners fills x and y with the corner displacements of one draw of
// the given regime.
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
			x[c], y[c] = signed(rng, 0x1p-510, 0x1p510), signed(rng, 0x1p-510, 0x1p510)
		}
	}
}

// TestMaxCornerNormAccuracy: over 50,000 draws of every regime, the
// worst-corner norm is within (2u + u²) relative of the exact largest
// corner norm (math/big), and it is the literal loop's value. It logs how
// often a single corner's norm is the correctly rounded √(Δx²+Δy²) and
// how often one or two ulps off.
func TestMaxCornerNormAccuracy(t *testing.T) {
	rng := randx.NewSource(33)
	const draws = 50_000
	var ulps [3]int
	var x, y [4]float64
	for n := 0; n < draws; n++ {
		drawCorners(rng, n%regimes, &x, &y)
		if !normalSquares(&x, &y) {
			t.Fatalf("x %v y %v: draw leaves the normal-square range", x, y)
		}
		checkMaxCornerNorm(t, &x, &y)
		c := rng.IntN(4)
		got, want := literalNorm(x[c], y[c]), exactNorm(x[c], y[c])
		w, _ := want.Float64()
		// Both are positive and finite, so their bit patterns count ulps.
		d := int64(math.Float64bits(got)) - int64(math.Float64bits(w))
		ulps[min(max(d, -d), 2)]++
	}
	t.Logf("one corner's norm per draw: %d correctly rounded, %d one ulp off, %d two or more ulps off (of %d)",
		ulps[0], ulps[1], ulps[2], draws)
}

// TestMaxCornerNormEdges pins the documented behaviour outside the normal
// range: zeros give +0, a NaN coordinate gives NaN even beside an
// infinity, a square or a sum of squares that overflows gives +Inf, and
// squares below 2^-1022 lose relative precision down to zero.
func TestMaxCornerNormEdges(t *testing.T) {
	negZero := math.Copysign(0, -1)
	huge := 0x1p512
	for _, tc := range []struct {
		name string
		x, y [4]float64
		want float64
	}{
		{"zeros", [4]float64{0, negZero, 0, negZero}, [4]float64{negZero, 0, 0, negZero}, 0},
		{"NaN", [4]float64{1e-3, math.NaN(), 2e-3, 0}, [4]float64{0, 0, 0, 0}, math.NaN()},
		{"NaN beside Inf", [4]float64{1e-3, math.Inf(1), 0, 0}, [4]float64{0, math.NaN(), 0, 0}, math.NaN()},
		{"square overflows", [4]float64{1, huge, 0, 0}, [4]float64{0, 0, 0, 0}, math.Inf(1)},
		{"largest finite square", [4]float64{1, nudge(huge, -1), 0, 0}, [4]float64{0, 0, 0, 0}, nudge(huge, -1)},
		{"sum overflows", [4]float64{0x1.8p511, 0, 0, 0}, [4]float64{0x1.8p511, 0, 0, 0}, math.Inf(1)},
		{"smallest subnormal square", [4]float64{0x1p-537, 0, 0, 0}, [4]float64{0, 0, 0, 0}, 0x1p-537},
		{"square rounds to zero", [4]float64{0x1p-538, 0, negZero, 0}, [4]float64{0, 0x1p-538, 0, 0}, 0},
		{"subnormal square loses bits", [4]float64{0x1.00001p-530, 0, 0, 0}, [4]float64{0, 0, 0, 0}, 0x1p-530},
	} {
		sq := cornerSquares(&tc.x, &tc.y)
		got := MaxCornerNorm(&sq)
		if math.Float64bits(got) != math.Float64bits(tc.want) && !(math.IsNaN(got) && math.IsNaN(tc.want)) {
			t.Errorf("%s: MaxCornerNorm %v (%#x), want %v (%#x)", tc.name, got, math.Float64bits(got), tc.want, math.Float64bits(tc.want))
		}
	}
}

// FuzzMaxCornerNorm: on any eight coordinates the worst-corner norm keeps
// checkMaxCornerNorm's contract.
func FuzzMaxCornerNorm(f *testing.F) {
	for _, s := range [][8]float64{
		{1e-3, -1e-3, -1e-3, 1e-3, 2e-3, 2e-3, -2e-3, -2e-3},
		{1e-3, -1e-3, -1e-3, nudge(1e-3, 1), 2e-3, 2e-3, -2e-3, -2e-3},
		{0x1p-511, nudge(0x1p-511, -1), 0, 0, 0, 0, 0, 0},
		{0x1p511, nudge(0x1p512, -1), 1, 0, 0, 0, 0, 0},
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
