package sim

import (
	"math"
	"testing"

	"yap/internal/geom"
	"yap/internal/overlay"
	"yap/internal/randx"
)

// legacyW2WOverlayPass is the W2W scalar overlay decision as the kernel
// evaluated it per die before the pass interval: every region's s_max and
// s_min against its δ, region by region.
func legacyW2WOverlayPass(sMin, sMax, delta []float64, u float64) bool {
	pass := true
	for r := 0; r < len(delta) && pass; r++ {
		pass = math.Abs(sMax[r]+u) <= delta[r] && math.Abs(sMin[r]+u) <= delta[r]
	}
	return pass
}

// legacyD2WRegionPass is one region's D2W overlay decision as the kernel
// evaluated it before the certified s_min skip.
func legacyD2WRegionPass(d overlay.Distortion, rect geom.Rect, u, delta float64) bool {
	if math.Abs(d.MaxOverRect(rect)+u) > delta {
		return false
	}
	return !(math.Abs(d.MinOverRect(rect)+u) > delta)
}

// logUniform draws a magnitude log-uniform in [lo, hi] with a random sign.
func logUniform(rng *randx.Source, lo, hi float64) float64 {
	v := math.Exp(rng.Uniform(math.Log(lo), math.Log(hi)))
	if rng.Bernoulli(0.5) {
		return -v
	}
	return v
}

// nudge moves x by k floats (k < 0 toward -Inf).
func nudge(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// randRect draws a pad rectangle: die-local (D2W) or shifted to a die
// center anywhere on a 300 mm wafer (W2W), occasionally degenerate.
func randRect(rng *randx.Source) geom.Rect {
	x0, y0 := rng.Uniform(-5e-3, 4e-3), rng.Uniform(-5e-3, 4e-3)
	w, h := rng.Uniform(1e-5, 1e-2), rng.Uniform(1e-5, 1e-2)
	switch rng.IntN(8) {
	case 0:
		w = 0
	case 1:
		x0, y0 = x0+rng.Uniform(-0.15, 0.15), y0+rng.Uniform(-0.15, 0.15)
	}
	return geom.Rect{X0: x0, Y0: y0, X1: x0 + w, Y1: y0 + h}
}

// randDistortion draws a distortion from one of the regimes the overlay
// shortcuts must hold in: realistic placement errors, pure translation
// (E = α = 0), a null point inside rect, |E| and |α| near 1e-18, |E| and
// |α| so small that E²+α² underflows to 0, and wild magnitudes over 40
// decades.
func randDistortion(rng *randx.Source, rect geom.Rect) overlay.Distortion {
	switch rng.IntN(6) {
	case 0:
		return overlay.Distortion{TX: rng.Normal(0, 2e-8), TY: rng.Normal(0, 2e-8),
			Rotation: rng.Normal(0, 3e-6), Magnification: rng.Normal(0, 3e-6)}
	case 1:
		return overlay.Distortion{TX: rng.Normal(0, 2e-8), TY: rng.Normal(0, 2e-8)}
	case 2:
		e, a := rng.Normal(0, 3e-6), rng.Normal(0, 3e-6)
		px, py := rng.Uniform(rect.X0, rect.X1), rng.Uniform(rect.Y0, rect.Y1)
		return overlay.Distortion{TX: a*py - e*px, TY: -a*px - e*py, Rotation: a, Magnification: e}
	case 3:
		return overlay.Distortion{TX: rng.Normal(0, 2e-8), TY: rng.Normal(0, 2e-8),
			Rotation: logUniform(rng, 1e-19, 1e-17), Magnification: logUniform(rng, 1e-19, 1e-17)}
	case 4:
		return overlay.Distortion{TX: logUniform(rng, 1e-170, 1e-8), TY: logUniform(rng, 1e-170, 1e-8),
			Rotation: logUniform(rng, 1e-200, 1e-160), Magnification: logUniform(rng, 1e-200, 1e-160)}
	default:
		return overlay.Distortion{TX: logUniform(rng, 1e-30, 1e10), TY: logUniform(rng, 1e-30, 1e10),
			Rotation: logUniform(rng, 1e-30, 1e10), Magnification: logUniform(rng, 1e-30, 1e10)}
	}
}

// randDelta draws a survivable misalignment δ: realistic, or within a few
// ulps of s (so δ−s is far below ulp(δ) and the interval search must walk
// many floats), or a degenerate value.
func randDelta(rng *randx.Source, s float64) float64 {
	switch rng.IntN(10) {
	case 0:
		return nudge(s, rng.IntN(7)-3)
	case 1:
		return []float64{0, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), -1e-7}[rng.IntN(5)]
	default:
		return math.Exp(rng.Uniform(math.Log(1e-9), math.Log(1e-5)))
	}
}

// randU draws a random misalignment: normal at a random scale, within a
// few ulps of one of the region's boundaries ±δ − s, or a special value.
func randU(rng *randx.Source, sMin, sMax, delta float64) float64 {
	switch rng.IntN(6) {
	case 0, 1:
		return rng.Normal(0, math.Exp(rng.Uniform(math.Log(1e-10), math.Log(1e-5))))
	case 2:
		return nudge(delta-sMax, rng.IntN(9)-4)
	case 3:
		return nudge(-delta-sMin, rng.IntN(9)-4)
	case 4:
		return nudge([]float64{delta - sMin, -delta - sMax}[rng.IntN(2)], rng.IntN(9)-4)
	default:
		return []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}[rng.IntN(8)]
	}
}

// TestScalarPassExact: a die's W2W pass interval — scalarPass per region,
// intersected — contains u exactly when the per-region loop it replaced
// passes the die, over a million (distortion, rects, δ, u) draws.
func TestScalarPassExact(t *testing.T) {
	rng := randx.NewSource(2024)
	const draws = 1_000_000
	var sMin, sMax, delta [8]float64
	passed := 0
	for n := 0; n < draws; {
		nR := 1 + rng.IntN(8)
		if rng.IntN(4) == 0 {
			nR = 1
		}
		rect := randRect(rng)
		d := randDistortion(rng, rect)
		iv := everything
		for r := 0; r < nR; r++ {
			if r > 0 {
				rect = randRect(rng)
			}
			sMin[r], sMax[r] = d.MinOverRect(rect), d.MaxOverRect(rect)
			if rng.IntN(50) == 0 { // special values the interval must also get right
				specials := []float64{0, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.NaN()}
				sMin[r], sMax[r] = specials[rng.IntN(5)], specials[rng.IntN(5)]
			}
			delta[r] = randDelta(rng, sMax[r])
			iv = iv.intersect(scalarPass(sMin[r], sMax[r], delta[r]))
		}
		for k := 0; k < 4; k++ {
			r := rng.IntN(nR)
			u := randU(rng, sMin[r], sMax[r], delta[r])
			want := legacyW2WOverlayPass(sMin[:nR], sMax[:nR], delta[:nR], u)
			if got := iv.contains(u); got != want {
				t.Fatalf("draw %d: %d regions sMin %v sMax %v δ %v, u=%v (%#x): interval %v says %v, loop says %v",
					n, nR, sMin[:nR], sMax[:nR], delta[:nR], u, math.Float64bits(u), iv, got, want)
			}
			if want {
				passed++
			}
			n++
		}
	}
	if passed < draws/10 || passed > draws*9/10 {
		t.Errorf("%d of %d draws passed; the draws do not exercise both verdicts", passed, draws)
	}
}

// TestScalarPassFarFromGuess covers the regime where δ−s is far below
// ulp(δ), so the pass interval's ends lie many floats from the guess δ−s
// and the search must bisect rather than step.
func TestScalarPassFarFromGuess(t *testing.T) {
	for _, s := range []float64{1e-7, 3.3e-7, 1, 1e300} {
		delta := s
		iv := scalarPass(s, s, delta)
		for _, u := range []float64{iv.hi, nudge(iv.hi, 1), iv.lo, nudge(iv.lo, -1), 0, math.SmallestNonzeroFloat64} {
			want := math.Abs(s+u) <= delta
			if got := iv.contains(u); got != want {
				t.Errorf("s=δ=%v u=%v: interval %v says %v, expression says %v", s, u, iv, got, want)
			}
		}
		if !(iv.hi > 0) {
			t.Errorf("s=δ=%v: upper end %v, want the positive half-ulp band", s, iv.hi)
		}
	}
}

// TestD2WRegionPassesExact: the certified s_min skip returns the verdict
// of the per-region expression it replaced over a million draws,
// including pure translation, null points inside the rectangle,
// |E|, |α| ~ 1e-18 and u within a few ulps of ±δ − s.
func TestD2WRegionPassesExact(t *testing.T) {
	rng := randx.NewSource(2025)
	const draws = 1_000_000
	passed := 0
	for n := 0; n < draws; n++ {
		rect := randRect(rng)
		d := randDistortion(rng, rect)
		sMin, sMax := d.MinOverRect(rect), d.MaxOverRect(rect)
		delta := randDelta(rng, sMax)
		u := randU(rng, sMin, sMax, delta)
		corners := rect.Corners()
		want := legacyD2WRegionPass(d, rect, u, delta)
		if got := d2wRegionPasses(d, rect, &corners, u, delta); got != want {
			t.Fatalf("draw %d: dist %+v rect %+v δ=%v u=%v (sMin %v, sMax %v): got %v, want %v",
				n, d, rect, delta, u, sMin, sMax, got, want)
		}
		if want {
			passed++
		}
	}
	if passed < draws/10 || passed > draws*9/10 {
		t.Errorf("%d of %d draws passed; the draws do not exercise both verdicts", passed, draws)
	}
}
