// Package overlay implements the YAP overlay-error yield model (§III-A of
// the paper): the systematic wafer distortion field built from translation,
// rotation and warpage-induced magnification (Eq. 2–4), the maximum
// survivable misalignment δ derived from the contact-area and
// critical-distance constraints (Eq. 5–6), and the resulting pad-, die- and
// wafer-level possibilities of survival (Eq. 1, 7, 8) together with the D2W
// variant (Eq. 23).
package overlay

import (
	"fmt"
	"math"

	"yap/internal/geom"
	"yap/internal/num"
	"yap/internal/wafer"
)

// PadGeometry describes the Cu pad stack-up of one bonding interface.
type PadGeometry struct {
	// Pitch is the pad pitch p (m).
	Pitch float64
	// TopDiameter is the top-pad diameter d₁ (m); the top pad is typically
	// the smaller one to increase misalignment tolerance.
	TopDiameter float64
	// BottomDiameter is the bottom-pad diameter d₂ (m).
	BottomDiameter float64
	// ContactAreaFraction is k_ca: the contact area must exceed
	// k_ca·π·r₁² for the pad to survive.
	ContactAreaFraction float64
	// CriticalDistanceFraction is k_cd: the post-misalignment critical
	// distance must exceed k_cd·(p − d₂).
	CriticalDistanceFraction float64
}

// Validate reports whether the geometry is physical: positive dimensions,
// pads that fit the pitch, and constraint fractions in (0, 1].
func (g PadGeometry) Validate() error {
	switch {
	case g.Pitch <= 0:
		return fmt.Errorf("overlay: non-positive pitch %g", g.Pitch)
	case g.TopDiameter <= 0 || g.BottomDiameter <= 0:
		return fmt.Errorf("overlay: non-positive pad diameter (d1=%g, d2=%g)", g.TopDiameter, g.BottomDiameter)
	case g.TopDiameter > g.BottomDiameter:
		return fmt.Errorf("overlay: top pad d1=%g larger than bottom pad d2=%g", g.TopDiameter, g.BottomDiameter)
	case g.BottomDiameter >= g.Pitch:
		return fmt.Errorf("overlay: bottom pad d2=%g does not fit pitch %g", g.BottomDiameter, g.Pitch)
	case g.ContactAreaFraction <= 0 || g.ContactAreaFraction > 1:
		return fmt.Errorf("overlay: contact-area fraction k_ca=%g outside (0,1]", g.ContactAreaFraction)
	case g.CriticalDistanceFraction <= 0 || g.CriticalDistanceFraction > 1:
		return fmt.Errorf("overlay: critical-distance fraction k_cd=%g outside (0,1]", g.CriticalDistanceFraction)
	}
	return nil
}

// TopRadius returns r₁ = d₁/2.
func (g PadGeometry) TopRadius() float64 { return g.TopDiameter / 2 }

// BottomRadius returns r₂ = d₂/2.
func (g PadGeometry) BottomRadius() float64 { return g.BottomDiameter / 2 }

// ContactArea returns S_ovl(s), the Cu–Cu contact area of two pads
// misaligned by s (Eq. 5).
func (g PadGeometry) ContactArea(s float64) float64 {
	return geom.CircleLensArea(g.TopRadius(), g.BottomRadius(), s)
}

// MaxMisalignment returns δ, the largest misalignment a pad survives
// (Eq. 6): the tighter of
//
//   - δ_ca: the misalignment at which the contact area has shrunk to
//     k_ca·π·r₁². Because Eq. 5's middle branch is implicit in δ (θ₁ and θ₂
//     depend on it), δ_ca is found numerically on the monotone contact-area
//     curve rather than via the paper's implicit expression.
//   - δ_cd: the closed-form bound keeping the critical distance above
//     k_cd·(p − d₂):  δ_cd = (1−k_cd)·p − d₁/2 + (k_cd − ½)·d₂.
func (g PadGeometry) MaxMisalignment() float64 {
	return math.Min(g.DeltaContactArea(), g.DeltaCriticalDistance())
}

// DeltaContactArea returns δ_ca (see MaxMisalignment).
func (g PadGeometry) DeltaContactArea() float64 {
	r1, r2 := g.TopRadius(), g.BottomRadius()
	target := g.ContactAreaFraction * math.Pi * r1 * r1
	// Full containment (s ≤ r2−r1) always satisfies the constraint for
	// k_ca ≤ 1, so the solution lies in [r2−r1, r1+r2] where the contact
	// area decreases monotonically from π·r1² to 0.
	lo := r2 - r1
	hi := r1 + r2
	const tol = 1e-15
	return num.BisectMonotone(g.ContactArea, lo, hi, target, tol)
}

// DeltaCriticalDistance returns δ_cd (see MaxMisalignment). A negative
// value means the geometry violates the critical-distance rule even when
// perfectly aligned.
func (g PadGeometry) DeltaCriticalDistance() float64 {
	p, d1, d2 := g.Pitch, g.TopDiameter, g.BottomDiameter
	kcd := g.CriticalDistanceFraction
	return (1-kcd)*p - d1/2 + (kcd-0.5)*d2
}

// Distortion is the systematic component of the overlay error: the three
// wafer-scale distortion terms of Eq. 3.
type Distortion struct {
	// TX and TY are the translation errors (m).
	TX, TY float64
	// Rotation is the rotation error α (rad).
	Rotation float64
	// Magnification is the magnification (run-out) factor E, a
	// dimensionless strain typically derived from warpage via Eq. 2.
	Magnification float64
}

// MagnificationFromWarpage returns E = k_mag·B (Eq. 2): the linear fit of
// the magnification factor against bonded-wafer warpage B.
func MagnificationFromWarpage(kMag, warpage float64) float64 {
	return kMag * warpage
}

// Displacement returns the systematic pad displacement (Δx, Δy) at
// position p (Eq. 3):
//
//	Δx = T_x − α·y + E·x
//	Δy = T_y + α·x + E·y
func (d Distortion) Displacement(p geom.Vec2) geom.Vec2 {
	return geom.Vec2{
		X: d.TX - d.Rotation*p.Y + d.Magnification*p.X,
		Y: d.TY + d.Rotation*p.X + d.Magnification*p.Y,
	}
}

// Magnitude returns the systematic overlay error s(x, y) = |(Δx, Δy)|
// (Eq. 4).
func (d Distortion) Magnitude(p geom.Vec2) float64 {
	return d.Displacement(p).Norm()
}

// MaxOverRect returns the maximum of s(x, y) over the rectangle. s² is a
// sum of squares of affine functions of (x, y), hence convex, so the
// maximum is attained at one of the four corners.
func (d Distortion) MaxOverRect(r geom.Rect) float64 {
	var maxS float64
	for _, c := range r.Corners() {
		if s := d.Magnitude(c); s > maxS {
			maxS = s
		}
	}
	return maxS
}

// MinOverRect returns the minimum of s(x, y) over the rectangle. The
// unconstrained minimizer of the convex s² solves the 2×2 linear system
// Δx = Δy = 0; if it falls inside the rectangle the minimum is zero (the
// distortion null point), otherwise the minimum lies on the boundary where
// each edge restriction is a 1-D quadratic with a closed-form minimizer.
func (d Distortion) MinOverRect(r geom.Rect) float64 {
	e, a := d.Magnification, d.Rotation
	det := e*e + a*a
	if det == 0 {
		// Pure translation: s is constant.
		return math.Hypot(d.TX, d.TY)
	}
	// Solve [e −a; a e]·(x,y) = (−TX, −TY).
	x := (-d.TX*e - d.TY*a) / det
	y := (d.TX*a - d.TY*e) / det
	if r.Contains(geom.Vec2{X: x, Y: y}) {
		return 0
	}
	minS := math.Inf(1)
	// Bottom and top edges: y fixed, x ∈ [X0, X1].
	for _, yc := range [2]float64{r.Y0, r.Y1} {
		s := d.minOnSpan(r.X0, r.X1, func(x float64) geom.Vec2 { return geom.Vec2{X: x, Y: yc} })
		minS = math.Min(minS, s)
	}
	// Left and right edges: x fixed, y ∈ [Y0, Y1].
	for _, xc := range [2]float64{r.X0, r.X1} {
		s := d.minOnSpan(r.Y0, r.Y1, func(y float64) geom.Vec2 { return geom.Vec2{X: xc, Y: y} })
		minS = math.Min(minS, s)
	}
	return minS
}

// minOnSpan minimizes s along a 1-D parametrized edge. The squared
// magnitude along the edge is quadratic in the parameter with positive
// leading coefficient det, so the minimizer is the clamped vertex.
func (d Distortion) minOnSpan(t0, t1 float64, point func(float64) geom.Vec2) float64 {
	// Evaluate the quadratic through three samples to recover its vertex
	// without re-deriving edge-specific coefficients.
	f := func(t float64) float64 {
		dp := d.Displacement(point(t))
		return dp.Dot(dp)
	}
	mid := 0.5 * (t0 + t1)
	fa, fm, fb := f(t0), f(mid), f(t1)
	// Quadratic vertex from three equally spaced samples.
	den := fa - 2*fm + fb
	t := mid
	if den > 0 {
		t = mid + (fa-fb)/(2*den)*(t1-t0)/2
	}
	t = num.Clamp(t, t0, t1)
	return math.Sqrt(math.Min(f(t), math.Min(fa, fb)))
}

// ScaleToDie converts wafer-level rotation and magnification errors into
// the equivalent D2W per-die errors (§IV-B): the marker alignment error at
// the reference edge, ε = α·R_ref (and E·R_ref), is an equipment property,
// so a chiplet aligned on its own markers at half-diagonal r_d sees
// α' = ε/r_d — larger errors for smaller chiplets. Translation is
// unchanged.
func (d Distortion) ScaleToDie(refRadius, dieHalfDiagonal float64) Distortion {
	if dieHalfDiagonal <= 0 {
		return d
	}
	scale := refRadius / dieHalfDiagonal
	return Distortion{
		TX:            d.TX,
		TY:            d.TY,
		Rotation:      d.Rotation * scale,
		Magnification: d.Magnification * scale,
	}
}

// PadPOS returns the possibility of survival of a single pad whose
// systematic overlay error is s, under a random error u ~ N(0, σ₁)
// (Eq. 1 shifted by s, the integrand of Eq. 7):
//
//	POS = P(−δ ≤ s + u ≤ δ) = ∫_{−δ−s}^{δ−s} N(0, σ₁²)(u) du
func PadPOS(s, delta, sigma1 float64) float64 {
	if delta <= 0 {
		return 0
	}
	return num.NormalInterval(-delta-s, delta-s, 0, sigma1)
}

// DiePOS returns the possibility of survival of a die with pad-array
// rectangle rect under distortion dist (Eq. 7): the random error is shared
// within the die, so the die survives as its worst pad does, and the worst
// pad is the one with the largest systematic error — attained at a corner
// of the (convex) pad-array region.
func DiePOS(dist Distortion, rect geom.Rect, delta, sigma1 float64) float64 {
	return PadPOS(dist.MaxOverRect(rect), delta, sigma1)
}

// PadPOS2D returns the pad possibility of survival under the 2-D random
// misalignment convention: u⃗ = (u₁, u₂) with independent N(0, σ₁²)
// components added to the systematic displacement of magnitude s, so the
// total misalignment is Rice-distributed and
// POS = P(|s⃗+u⃗| ≤ δ) = RiceCDF(δ; s, σ₁).
//
// The paper's Eq. 1 uses the scalar convention instead (DESIGN.md §2.1);
// this function prices that approximation analytically. The scalar form
// upper-bounds it: collapsing u⃗ to the s direction discards the
// tangential escape route.
func PadPOS2D(s, delta, sigma1 float64) float64 {
	if delta <= 0 {
		return 0
	}
	return num.RiceCDF(delta, s, sigma1)
}

// DiePOS2D is DiePOS under the 2-D random misalignment convention: the
// worst pad (corner of the convex pad-array region) evaluated through the
// Rice CDF.
func DiePOS2D(dist Distortion, rect geom.Rect, delta, sigma1 float64) float64 {
	return PadPOS2D(dist.MaxOverRect(rect), delta, sigma1)
}

// DiePOSExact returns the exact possibility of survival of a die under a
// shared scalar random error: the die survives iff u lands in
// [−δ−s_min, δ−s_max], the intersection of every pad's survival window.
// Eq. 7's min-over-pads form keeps only the s_max side (its lower limit is
// −δ−s_max instead of −δ−s_min), so it upper-bounds this value; the gap is
// O(Φ(−δ/σ₁)) and vanishes for δ ≫ σ₁. Exposed for the approximation
// study the paper lists as future work.
func DiePOSExact(dist Distortion, rect geom.Rect, delta, sigma1 float64) float64 {
	if delta <= 0 {
		return 0
	}
	sMax := dist.MaxOverRect(rect)
	sMin := dist.MinOverRect(rect)
	return num.NormalInterval(-delta-sMin, delta-sMax, 0, sigma1)
}

// Model bundles the overlay parameters into an evaluable yield model.
type Model struct {
	Pads PadGeometry
	// Dist is the wafer-level systematic distortion.
	Dist Distortion
	// Sigma1 is the standard deviation σ₁ of the random overlay error (m).
	Sigma1 float64
}

// Delta returns the survivable-misalignment bound δ for the model's pads.
func (m Model) Delta() float64 { return m.Pads.MaxMisalignment() }

// WaferYieldW2W returns Y_ovl,W2W (Eq. 8) for the paper's uniform pad grid:
// WaferYieldW2WRegions on the one full-die region.
func (m Model) WaferYieldW2W(layout wafer.Layout) float64 {
	return m.WaferYieldW2WRegions(layout, m.fullDie(layout.DieWidth, layout.DieHeight))
}

// DieYieldD2W returns Y_ovl,D2W (Eq. 23) for the paper's uniform pad grid:
// DieYieldD2WRegions on the one full-die region.
func (m Model) DieYieldD2W(dieW, dieH, refRadius float64) float64 {
	return m.DieYieldD2WRegions(dieW, dieH, refRadius, m.fullDie(dieW, dieH))
}
