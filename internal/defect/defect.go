// Package defect implements the YAP particle-defect yield models (§III-C
// and §III-E-2 of the paper).
//
// A particle trapped at the bonding interface opens a main void around
// itself and — in W2W bonding, where a bond wave sweeps from the wafer
// center outward — a trailing void tail extending radially. Main-void size
// and tail length follow the fitted laws of Nagano [38]:
//
//	r_mv = (k_r·L + k_r0)·√t        (Eq. 15)
//	l    = k_l·L·√t                 (Eq. 16)
//
// with L the particle's distance from the wafer (or die) center and t the
// particle thickness, distributed by Glang's power law (Eq. 17).
//
// For W2W the tail dominates (millimeters vs hundreds of µm), the defect is
// simplified to a line, and the average number of die-killing defects has
// the closed form of Eq. 20. For D2W only the main void matters; its size
// density is derived in closed form (the paper's Eq. 24, re-derived here as
// an incomplete-power-law integral) and the die-kill rate Eq. 26 is
// evaluated by quadrature. Both convert to yield through the Poisson model
// Y = exp(−Λ) (Eq. 21, 27).
package defect

import (
	"fmt"
	"math"

	"yap/internal/geom"
	"yap/internal/num"
)

// Params describes the particle-defect process.
type Params struct {
	// Density is D_t: particles of all thicknesses per unit area (m⁻²).
	Density float64
	// MinThickness is t₀, the smallest particle thickness (m).
	MinThickness float64
	// Shape is the Glang size-law exponent z (2–3 typically; Eq. 17).
	Shape float64
	// KR is k_r (m^−½): the location coefficient of the main-void law.
	KR float64
	// KR0 is k_r0 (m^½): the location-independent main-void coefficient.
	KR0 float64
	// KL is k_l (m^−½): the void-tail length coefficient.
	KL float64
	// WaferRadius is R, the wafer radius used by the W2W tail model (m).
	WaferRadius float64
	// RadialClustering is the edge-weighting coefficient k_c of the
	// radially clustered particle density D(r) ∝ 1 + k_c·(r/R)²
	// (extension after Singh's radial defect clustering [7]; zero — the
	// paper's assumption — is uniform). The profile is normalized so the
	// wafer-average density stays D_t.
	RadialClustering float64
}

// Validate reports whether the parameters are usable. The closed forms
// require z > 3/2 (Eq. 20's tail moment) — the paper's range z ∈ [2,3]
// satisfies this with margin.
func (p Params) Validate() error {
	switch {
	case p.Density < 0:
		return fmt.Errorf("defect: negative particle density %g", p.Density)
	case p.MinThickness <= 0:
		return fmt.Errorf("defect: non-positive minimum thickness %g", p.MinThickness)
	case p.Shape <= 1.5:
		return fmt.Errorf("defect: shape factor z=%g must exceed 1.5", p.Shape)
	case p.KR < 0 || p.KR0 < 0 || p.KL < 0:
		return fmt.Errorf("defect: negative void coefficients (kr=%g, kr0=%g, kl=%g)", p.KR, p.KR0, p.KL)
	case p.WaferRadius <= 0:
		return fmt.Errorf("defect: non-positive wafer radius %g", p.WaferRadius)
	case p.RadialClustering < 0:
		return fmt.Errorf("defect: negative radial clustering %g", p.RadialClustering)
	}
	return nil
}

// DensityAt returns the local particle density at distance r from the
// wafer center under the radial clustering profile. With k_c = 0 this is
// D_t everywhere.
func (p Params) DensityAt(r float64) float64 {
	kc := p.RadialClustering
	if kc <= 0 {
		return p.Density
	}
	rel := r / p.WaferRadius
	return p.Density * (1 + kc*rel*rel) / (1 + kc/2)
}

// ClusteringTailFactor returns the multiplier the radial clustering
// applies to Eq. 20's tail term: clustered particles sit farther out and
// sweep longer tails, scaling E[L·density] by
// (1 + 3k_c/5) / (1 + k_c/2) ≥ 1.
func (p Params) ClusteringTailFactor() float64 {
	kc := p.RadialClustering
	if kc <= 0 {
		return 1
	}
	return (1 + 3*kc/5) / (1 + kc/2)
}

// MainVoidRadius returns r_mv for a particle at distance l from the center
// with thickness t (Eq. 15).
func (p Params) MainVoidRadius(dist, t float64) float64 {
	return (p.KR*dist + p.KR0) * math.Sqrt(t)
}

// TailLength returns the void-tail length l (Eq. 16).
func (p Params) TailLength(dist, t float64) float64 {
	return p.KL * dist * math.Sqrt(t)
}

// ThicknessPDF returns the normalized particle-thickness density
// f(t) = (z−1)·t0^(z−1)/t^z for t > t₀ (Eq. 17 without the D_t count
// prefactor), zero below t₀.
func (p Params) ThicknessPDF(t float64) float64 {
	if t <= p.MinThickness {
		return 0
	}
	z := p.Shape
	return (z - 1) * math.Pow(p.MinThickness, z-1) / math.Pow(t, z)
}

// --- W2W void-tail model -------------------------------------------------

// TailKnee returns k_l·R·√t₀: the tail length below which every wafer
// position can produce the tail (the breakpoint of Eq. 18).
func (p Params) TailKnee() float64 {
	return p.KL * p.WaferRadius * math.Sqrt(p.MinThickness)
}

// TailLengthDensity returns f_l(l), the count density of void tails per
// unit area and per unit length (Eq. 18; integrates to D_t over l ∈ (0,∞)).
// It combines L uniform over the wafer disk with the thickness power law.
func (p Params) TailLengthDensity(l float64) float64 {
	if l <= 0 || p.KL == 0 {
		return 0
	}
	z := p.Shape
	knee := p.TailKnee()
	k2R2t0 := p.KL * p.KL * p.WaferRadius * p.WaferRadius * p.MinThickness
	if l <= knee {
		return 2 * p.Density * (z - 1) * l / (z * k2R2t0)
	}
	return 2 * p.Density * (z - 1) * math.Pow(k2R2t0, z-1) / (z * math.Pow(l, 2*z-1))
}

// TailLengthPDF returns the normalized probability density of tail lengths
// (TailLengthDensity divided by D_t), the curve plotted in Fig. 8a.
func (p Params) TailLengthPDF(l float64) float64 {
	if p.Density == 0 {
		return 0
	}
	return p.TailLengthDensity(l) / p.Density
}

// TailLengthCDF returns P(l ≤ x) under the normalized tail-length law
// (the integral of TailLengthPDF): below the knee the mass grows as
// (z−1)/z·(x/knee)²; above it the complement decays as the power law
// P(l > x) = (knee/x)^(2z−2)/z.
func (p Params) TailLengthCDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	knee := p.TailKnee()
	if knee == 0 {
		return 1
	}
	z := p.Shape
	if x <= knee {
		r := x / knee
		return (z - 1) / z * r * r
	}
	return 1 - math.Pow(knee/x, 2*z-2)/z
}

// MeanTailLength returns E[l] = 4(z−1)/(3(2z−3))·k_l·R·√t₀, the first
// moment of the normalized tail-length law (requires z > 3/2).
func (p Params) MeanTailLength() float64 {
	z := p.Shape
	return 4 * (z - 1) / (3 * (2*z - 3)) * p.TailKnee()
}

// LambdaW2W returns Λ, the average number of void-tail defects that kill an
// a×b die (Eq. 20):
//
//	Λ = D_t·a·b + 8·D_t·(z−1) / (3π(2z−3)) · (a+b)·k_l·R·√t₀
//
// The first term is the point (anchor) contribution of the defect itself;
// the second is the orientation-averaged line contribution of the tail
// (critical area Eq. 19 integrated against the tail-length density).
//
// Under radial clustering (k_c > 0) the wafer-average point term is
// unchanged (the profile is normalized) while the tail term grows by
// ClusteringTailFactor — edge particles sweep longer tails.
func (p Params) LambdaW2W(dieW, dieH float64) float64 {
	z := p.Shape
	tail := 8 * p.Density * (z - 1) / (3 * math.Pi * (2*z - 3)) *
		(dieW + dieH) * p.TailKnee() * p.ClusteringTailFactor()
	return p.Density*dieW*dieH + tail
}

// LambdaW2WNumeric evaluates Eq. 20 by direct quadrature of
// ∫ A(l)·f_l(l) dl with A(l) from Eq. 19. It exists to cross-check the
// closed form (and is exercised by tests); production code should call
// LambdaW2W. The tail-length density is the uniform-position law, so this
// cross-check applies to k_c = 0 only.
func (p Params) LambdaW2WNumeric(dieW, dieH float64) float64 {
	f := func(l float64) float64 {
		return geom.SegmentRectAvgCriticalArea(dieW, dieH, l) * p.TailLengthDensity(l)
	}
	knee := p.TailKnee()
	if knee == 0 {
		return p.Density * dieW * dieH
	}
	// Tolerance relative to the head's magnitude; the integrand's natural
	// scale is A(knee)·f_l(knee)·knee.
	tol := 1e-10 * geom.SegmentRectAvgCriticalArea(dieW, dieH, knee) * p.Density
	head := num.Integrate(f, 0, knee, tol)
	tail := num.IntegrateToInfinity(f, knee, knee, tol)
	return head + tail
}

// YieldW2W returns Y_df,W2W = exp(−Λ) (Eq. 21).
func (p Params) YieldW2W(dieW, dieH float64) float64 {
	return math.Exp(-p.LambdaW2W(dieW, dieH))
}

// --- D2W main-void model -------------------------------------------------

// MainVoidPDFD2W returns the normalized probability density f_r(r_mv) of
// main-void radii for D2W bonding (the paper's Eq. 24), with particle
// positions uniform over the disk of effective die radius effR = √(ab/π).
//
// Derivation (equivalent to the paper's piecewise form): with c₁ = k_r0 and
// c₂ = k_r·R + k_r0, conditioning on thickness t gives
// f(r|t) = 2(r/√t − c₁)/(R²k_r²√t) on [c₁√t, c₂√t], and marginalizing over
// the thickness law yields the incomplete-power-law antiderivative
//
//	F(t) = 2(z−1)t₀^(z−1)/(R²k_r²) · [ −r·t^(−z)/z + c₁·t^(½−z)/(z−½) ]
//
// evaluated between t_lo = max(t₀, (r/c₂)²) and t_hi = (r/c₁)².
func (p Params) MainVoidPDFD2W(r, effR float64) float64 {
	c1 := p.KR0
	c2 := p.KR*effR + p.KR0
	if r <= c1*math.Sqrt(p.MinThickness) || c1 <= 0 || effR <= 0 || p.KR <= 0 {
		// Degenerate geometries (k_r = 0 makes the radius independent of
		// position; handled by the caller via the pure thickness law).
		if p.KR <= 0 && c1 > 0 {
			return p.mainVoidPDFNoLocation(r)
		}
		return 0
	}
	tLo := math.Max(p.MinThickness, (r/c2)*(r/c2))
	tHi := (r / c1) * (r / c1)
	if tHi <= tLo {
		return 0
	}
	z := p.Shape
	pref := 2 * (z - 1) * math.Pow(p.MinThickness, z-1) / (effR * effR * p.KR * p.KR)
	anti := func(t float64) float64 {
		return -r*math.Pow(t, -z)/z + c1*math.Pow(t, 0.5-z)/(z-0.5)
	}
	v := pref * (anti(tHi) - anti(tLo))
	if v < 0 {
		return 0
	}
	return v
}

// mainVoidPDFNoLocation is the r density when k_r = 0: r = k_r0·√t with t
// power-law distributed, giving another power law.
func (p Params) mainVoidPDFNoLocation(r float64) float64 {
	rMin := p.KR0 * math.Sqrt(p.MinThickness)
	if r <= rMin {
		return 0
	}
	// t = (r/k_r0)², dt/dr = 2r/k_r0².
	t := (r / p.KR0) * (r / p.KR0)
	return p.ThicknessPDF(t) * 2 * r / (p.KR0 * p.KR0)
}

// CriticalAreaD2W returns A(r_v) of Eq. 25 for a square main void of
// half-side rv against an a×b die carrying n square pads of half-side r1 on
// the given pitch:
//
//   - while the per-pad kill boxes stay disjoint (2(rv+r1) ≤ p) the
//     critical area is the n disjoint boxes: 4n(rv+r1)²;
//   - once they merge, any void center within (rv+r1) of the array kills:
//     (a + 2(rv+r1))·(b + 2(rv+r1)).
func CriticalAreaD2W(dieW, dieH, pitch, padHalfSide float64, nPads int, rv float64) float64 {
	reach := rv + padHalfSide
	if 2*reach <= pitch {
		return 4 * float64(nPads) * reach * reach
	}
	return (dieW + 2*reach) * (dieH + 2*reach)
}

// LambdaD2W returns Λ for D2W bonding (Eq. 26): the expected number of
// die-killing main voids, D_t·∫ A(r)·f_r(r) dr with f_r over the effective
// die radius. The integral is evaluated by adaptive quadrature split at the
// density's knee (r at which every die position can produce the void).
// Above the knee the integrand decays as r^(3−2z), so for z ≤ 2 the
// integral diverges: Λ is +Inf (every die is killed) at any positive
// density.
func (p Params) LambdaD2W(dieW, dieH, pitch, padHalfSide float64, nPads int) float64 {
	if p.Shape <= 2 {
		if p.Density > 0 {
			return math.Inf(1)
		}
		return 0
	}
	effR := math.Sqrt(dieW * dieH / math.Pi)
	sqrtT0 := math.Sqrt(p.MinThickness)
	rMin := p.KR0 * sqrtT0
	knee := (p.KR*effR + p.KR0) * sqrtT0
	f := func(r float64) float64 {
		return CriticalAreaD2W(dieW, dieH, pitch, padHalfSide, nPads, r) *
			p.MainVoidPDFD2W(r, effR)
	}
	// ∫A·f_r dr is of order A(knee) (the pdf integrates to one over a
	// support of scale rMin), so 1e-10·A(knee) is a ~1e-10 relative
	// absolute tolerance for each piece.
	tol := 1e-10 * CriticalAreaD2W(dieW, dieH, pitch, padHalfSide, nPads, knee)
	head := num.Integrate(f, rMin, knee, tol)
	tail := num.IntegrateToInfinity(f, knee, math.Max(knee, rMin), tol)
	return p.Density * (head + tail)
}

// YieldD2W returns Y_df,D2W = exp(−Λ) (Eq. 27).
func (p Params) YieldD2W(dieW, dieH, pitch, padHalfSide float64, nPads int) float64 {
	return math.Exp(-p.LambdaD2W(dieW, dieH, pitch, padHalfSide, nPads))
}
