package sim

import (
	"math"

	"yap/internal/core"
	"yap/internal/geom"
	"yap/internal/overlay"
	"yap/internal/randx"
)

// placementLaw is the distribution of the systematic distortion terms that
// D2W draws per die (§III-E-1): T_x, T_y and α normal around the
// parameter-set values, and E = k_mag·B with the warpage B normal around
// its value (Eq. 2). W2W holds them at the parameter-set values.
type placementLaw struct {
	tx, ty, rot, warp           float64 // means
	sigmaT, sigmaRot, sigmaWarp float64
	kMag                        float64
}

func newPlacementLaw(p core.Params) placementLaw {
	return placementLaw{
		tx: p.TranslationX, ty: p.TranslationY, rot: p.Rotation, warp: p.Warpage,
		sigmaT: p.PlacementTranslationSigma, sigmaRot: p.PlacementRotationSigma,
		sigmaWarp: p.PlacementWarpageSigma, kMag: p.KMag,
	}
}

// draw takes four normals from rng, in the order T_x, T_y, α, B.
func (l *placementLaw) draw(rng *randx.Source) overlay.Distortion {
	return overlay.Distortion{
		TX:            rng.Normal(l.tx, l.sigmaT),
		TY:            rng.Normal(l.ty, l.sigmaT),
		Rotation:      rng.Normal(l.rot, l.sigmaRot),
		Magnification: overlay.MagnificationFromWarpage(l.kMag, rng.Normal(l.warp, l.sigmaWarp)),
	}
}

// interval is the closed float64 set {u : lo <= u && u <= hi}. A NaN
// bound makes it empty, so membership fails for every u, NaN included.
type interval struct{ lo, hi float64 }

func (iv interval) contains(u float64) bool { return iv.lo <= u && u <= iv.hi }

// intersect is the set both intervals contain. The builtin min and max
// propagate NaN, so an empty operand gives an empty result.
func (iv interval) intersect(o interval) interval {
	return interval{max(iv.lo, o.lo), min(iv.hi, o.hi)}
}

// everything is the interval of every non-NaN float64.
var everything = interval{math.Inf(-1), math.Inf(1)}

// scalarPass returns the set of random misalignments u for which one pad
// region passes W2W's scalar overlay check,
//
//	math.Abs(sMax+u) <= delta && math.Abs(sMin+u) <= delta,
//
// exactly: membership in the result holds for precisely the float64 u for
// which that expression is true.
//
// |x| <= δ is -δ <= x && x <= δ, and rounded addition is monotone in
// each operand, so the larger of the two sums is fl(max(sMin,sMax)+u) and
// the smaller fl(min(sMin,sMax)+u). The expression is therefore
// fl(hiS+u) <= δ && fl(loS+u) >= -δ, and each conjunct is monotone in u:
// the first holds on a prefix of the float order, the second on a suffix.
// Their ends are found by search over the float order (lastTrue) from
// δ − s, which is at most a few floats off whenever δ−s is not much
// smaller than ulp(δ). The one case where a conjunct is not monotone is
// δ = +Inf, where |x| <= δ fails only for x = NaN; it is handled first.
func scalarPass(sMin, sMax, delta float64) interval {
	hiS, loS := max(sMin, sMax), min(sMin, sMax)
	if hiS != hiS || delta != delta {
		return interval{math.NaN(), math.NaN()}
	}
	if math.IsInf(delta, 1) {
		// s+u is NaN only for s = ±Inf against u = ∓Inf.
		iv := everything
		if math.IsInf(hiS, 1) {
			iv.lo = -math.MaxFloat64
		}
		if math.IsInf(loS, -1) {
			iv.hi = math.MaxFloat64
		}
		return iv
	}
	return interval{
		lo: -lastTrue(func(v float64) bool { return loS+(-v) >= -delta }, delta+loS),
		hi: lastTrue(func(u float64) bool { return hiS+u <= delta }, delta-hiS),
	}
}

// lastTrue returns the largest non-NaN float64 u with pred(u), or NaN when
// pred holds for none. pred must hold on a prefix of the float order from
// -Inf to +Inf (true up to some point, false after); guess is where the
// boundary is expected. The search gallops from guess over the ordered
// bit patterns and then bisects, so it takes O(1) calls of pred when
// guess is a few floats off and about 130 at most.
func lastTrue(pred func(float64) bool, guess float64) float64 {
	at := func(k uint64) bool { return pred(fromOrderKey(k)) }
	// pred holds at yes and fails at no; the initial bounds are the keys
	// just outside the non-NaN floats, which are never evaluated.
	bottom := orderKey(math.Inf(-1))
	yes, no := bottom-1, orderKey(math.Inf(1))+1
	if guess == guess {
		if g := orderKey(guess); at(g) {
			yes = g
			for step := uint64(1); no-yes > step; step <<= 1 {
				if !at(yes + step) {
					no = yes + step
					break
				}
				yes += step
			}
		} else {
			no = g
			for step := uint64(1); no-yes > step; step <<= 1 {
				if at(no - step) {
					yes = no - step
					break
				}
				no -= step
			}
		}
	}
	for no-yes > 1 {
		mid := yes + (no-yes)/2
		if at(mid) {
			yes = mid
		} else {
			no = mid
		}
	}
	if yes < bottom {
		return math.NaN()
	}
	return fromOrderKey(yes)
}

// orderKey maps float64 to uint64 monotonically: x < y implies
// orderKey(x) < orderKey(y), -0 and +0 are adjacent, and the keys of the
// non-NaN floats are exactly [orderKey(-Inf), orderKey(+Inf)].
func orderKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// fromOrderKey inverts orderKey.
func fromOrderKey(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// d2wRegionPasses reports whether one pad region passes D2W's overlay
// check under the die's distortion d and random misalignment u. Its
// verdict is exactly that of
//
//	!(math.Abs(d.MaxOverRect(rect)+u) > delta) && !(math.Abs(d.MinOverRect(rect)+u) > delta)
//
// for every float64 input, but it takes s_max from the squares its s_min
// bound needs anyway, and evaluates MinOverRect — a corner solve and four
// edge minimizations — only when that bound cannot decide the second
// conjunct. corners are rect.Corners().
//
// The s_max conjunct. f_c is corner c's squared displacement, computed as
// MaxOverRect and MinOverRect compute it (Displacement, then Dot, its
// products rounded as written), so overlay.MaxCornerNorm of f is
// MaxOverRect's value, s_max, bit for bit.
//
// The s_min bound. Let q = sqrt(min_c f_c). Whenever MinOverRect's value
// m is not NaN and E²+α² != 0, m is either 0 (the distortion null point
// lies in the rectangle) or the minimum over the four edges of
// sqrt(math.Min(f(t), math.Min(f_a, f_b))) with f_a, f_b the edge's end
// corners; every corner ends some edge, so 0 <= m <= q. Then, if u >= -δ
// and fl(q+u) <= δ, monotone rounding gives fl(m+u) <= fl(q+u) <= δ and
// fl(m+u) >= fl(u) = u >= -δ, so the s_min conjunct holds. A NaN m makes
// that conjunct hold as well. With E²+α² == 0 (its squares rounded as
// MinOverRect rounds them) MinOverRect returns |(T_x, T_y)|, which the
// corners do not bound, so that case, like any where the bound fails,
// evaluates MinOverRect.
func d2wRegionPasses(d overlay.Distortion, rect geom.Rect, corners *[4]geom.Vec2, u, delta float64) bool {
	var f [4]float64
	for c := range corners {
		dp := d.Displacement(corners[c])
		f[c] = dp.Dot(dp)
	}
	if math.Abs(overlay.MaxCornerNorm(&f)+u) > delta {
		return false
	}
	fMin := min(f[0], f[1], f[2], f[3])
	e, a := d.Magnification, d.Rotation
	if u >= -delta && float64(e*e)+float64(a*a) != 0 && math.Sqrt(fMin)+u <= delta {
		return true
	}
	return !(math.Abs(d.MinOverRect(rect)+u) > delta)
}

// padsPass is the per-pad overlay check of one die under ExplicitPads,
// shared by both kernels: the die passes when, at every pad center of
// every region (the region's die-local pad grid shifted by center), the
// systematic displacement under d plus the scalar random misalignment u
// stays within the region's ±δ. It visits regions in layout order and
// stops at the first failing pad — the O(N)-per-die walk the paper's
// simulator takes.
func padsPass(d overlay.Distortion, center geom.Vec2, regions []core.Region, u float64) bool {
	for r := range regions {
		reg := &regions[r]
		for ix := 0; ix < reg.Grid.NX; ix++ {
			for iy := 0; iy < reg.Grid.NY; iy++ {
				if math.Abs(d.Magnitude(center.Add(reg.Grid.PadCenter(ix, iy)))+u) > reg.Delta {
					return false
				}
			}
		}
	}
	return true
}

// cornersPass2D is the overlay check of one die under
// TwoDRandomMisalignment, shared by both kernels: the die passes when, for
// every region, the largest |D(c) + u| over the corners c of the region's
// pad rectangle shifted by center stays within the region's δ. D is
// affine, so |D + u| is convex and its maximum over the rectangle lies at
// a corner. The largest magnitude is overlay.MaxCornerNorm's, √ of the
// largest rounded square D·D.
func cornersPass2D(d overlay.Distortion, center geom.Vec2, regions []core.Region, u geom.Vec2) bool {
	for r := range regions {
		reg := &regions[r]
		var sq [4]float64
		for c, p := range reg.Corners {
			v := d.Displacement(center.Add(p)).Add(u)
			sq[c] = v.Dot(v)
		}
		if overlay.MaxCornerNorm(&sq) > reg.Delta {
			return false
		}
	}
	return true
}
