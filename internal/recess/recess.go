// Package recess implements the YAP Cu-recess yield model (§III-B of the
// paper). After CMP the pad surface sits slightly below (recess) or above
// (protrusion) the dielectric plane; the sum h of the top and bottom pad
// heights is normally distributed and the pad survives post-bond annealing
// (PBA) only when h stays inside (ζ₋, ζ₊):
//
//   - below ζ₋ the gap left by the recess is not filled by the Cu thermal
//     expansion during annealing and the Cu connection fails to form;
//   - above ζ₊ the Cu pushes against the dielectric interface hard enough
//     that the peeling stress at the end of the annealing dwell exceeds the
//     roughness-derated interface strength and the dielectric delaminates
//     (Eq. 9–12).
//
// The per-pad survival probability is the clamped normal mass (Eq. 13) and
// the die yield is POS^N over its N pads (Eq. 14).
package recess

import (
	"fmt"
	"math"

	"yap/internal/contact"
	"yap/internal/num"
)

// Params describes the Cu recess process for one bonding interface.
// Heights follow the paper's sign convention: the dielectric surface is
// zero, recessed pads have negative height.
type Params struct {
	// MeanRecessTop and MeanRecessBottom are the mean recess depths of the
	// top and bottom pads (m, positive = recessed below the dielectric).
	MeanRecessTop, MeanRecessBottom float64
	// SigmaTop and SigmaBottom are the per-pad height standard deviations.
	SigmaTop, SigmaBottom float64
	// WaferSigma is the common-mode drift of the summed mean height
	// between bond events (wafer-to-wafer for W2W, die placement to die
	// placement for D2W): each event draws one shift m ~ N(0, WaferSigma²)
	// shared by all its pads. Zero — the paper's assumption — disables
	// it. This is an extension modeling CMP run-to-run variation.
	WaferSigma float64
	// AnnealTemp and RefTemp are the PBA dwell and reference (bonding)
	// temperatures (K). Their difference drives the Cu expansion.
	AnnealTemp, RefTemp float64
	// ExpansionRate is k_exp (m/K): the pad-height gain per kelvin during
	// annealing, linear per [30]–[32].
	ExpansionRate float64
	// KPeel is the peeling-stress fit coefficient k_peel (N/m³, Eq. 10).
	KPeel float64
	// H0 is the height offset h₀ of the peeling-stress fit (m, Eq. 10).
	H0 float64
	// CuDensity is the Cu pattern density D_Cu (dimensionless area
	// fraction of Cu at the interface).
	CuDensity float64
	// Surface describes the dielectric surfaces (roughness, modulus,
	// adhesion) for the delamination bound.
	Surface contact.Surface
}

// Validate reports whether the parameters are physical.
func (p Params) Validate() error {
	switch {
	case p.SigmaTop < 0 || p.SigmaBottom < 0:
		return fmt.Errorf("recess: negative height sigma (top=%g, bottom=%g)", p.SigmaTop, p.SigmaBottom)
	case p.WaferSigma < 0:
		return fmt.Errorf("recess: negative wafer sigma %g", p.WaferSigma)
	case p.AnnealTemp <= p.RefTemp:
		return fmt.Errorf("recess: anneal temperature %g K not above reference %g K", p.AnnealTemp, p.RefTemp)
	case p.ExpansionRate <= 0:
		return fmt.Errorf("recess: non-positive expansion rate %g", p.ExpansionRate)
	case p.KPeel <= 0:
		return fmt.Errorf("recess: non-positive k_peel %g", p.KPeel)
	case p.CuDensity <= 0 || p.CuDensity > 1:
		return fmt.Errorf("recess: Cu density %g outside (0,1]", p.CuDensity)
	}
	return p.Surface.Validate()
}

// MeanHeightSum returns µ_h, the mean of the summed pad heights
// (negative when both pads are recessed).
func (p Params) MeanHeightSum() float64 {
	return -(p.MeanRecessTop + p.MeanRecessBottom)
}

// SigmaHeightSum returns σ_h: the two pads vary independently, so the
// variances add.
func (p Params) SigmaHeightSum() float64 {
	return math.Hypot(p.SigmaTop, p.SigmaBottom)
}

// TotalExpansion returns the summed Cu height gain of both pads during
// annealing, 2·k_exp·(T_anneal − T_ref).
func (p Params) TotalExpansion() float64 {
	return 2 * p.ExpansionRate * (p.AnnealTemp - p.RefTemp)
}

// LowerBound returns ζ₋ = −(total Cu expansion): the most negative summed
// height for which annealing still closes the recess gap and forms the
// Cu–Cu bond (§III-B-a).
func (p Params) LowerBound() float64 { return -p.TotalExpansion() }

// PeelHeight returns h_peel, the summed height at which the interface
// peeling stress σ_peel = k_peel·D_Cu·(h − h₀) (Eq. 10) reaches the
// tolerable stress σ_tol (Eq. 9, 11).
func (p Params) PeelHeight() float64 {
	return p.H0 + p.Surface.TolerablePeelingStress()/(p.KPeel*p.CuDensity)
}

// UpperBound returns ζ₊ = min(0, h_peel) (Eq. 12): protrusion past the
// dielectric plane delaminates regardless, and the peel-stress criterion
// can tighten the bound further below zero.
func (p Params) UpperBound() float64 {
	return math.Min(0, p.PeelHeight())
}

// PadPOS returns the per-pad possibility of survival during PBA (Eq. 13):
// the normal mass of h = N(µ_h, σ_h²) inside (ζ₋, ζ₊).
func (p Params) PadPOS() float64 { return 1 - p.PadFailProb() }

// PadFailProb returns 1 − POS computed directly from the two normal tails,
// which stays accurate when the failure probability is far below the 1e−16
// granularity of 1 − POS. Die yields multiply ~10⁶–10⁸ pad survival terms
// (Eq. 14), so tail precision here decides whether the die yield is usable
// at all.
func (p Params) PadFailProb() float64 {
	mu := p.MeanHeightSum()
	sigma := p.SigmaHeightSum()
	lo, hi := p.LowerBound(), p.UpperBound()
	if hi <= lo {
		return 1
	}
	if sigma == 0 {
		if mu > lo && mu < hi {
			return 0
		}
		return 1
	}
	// Tail below ζ₋ plus tail above ζ₊, each via erfc for precision.
	const invSqrt2 = 0.7071067811865476
	lower := 0.5 * math.Erfc((mu-lo)/sigma*invSqrt2)
	upper := 0.5 * math.Erfc((hi-mu)/sigma*invSqrt2)
	return num.Clamp(lower+upper, 0, 1)
}

// DieYield returns Y_cr = POS^N for a die with n pads (Eq. 14), evaluated
// in log space so that per-pad failure probabilities down to ~1e−300
// survive the exponentiation. With a nonzero WaferSigma the yield is the
// expectation over the common-mode mean shift, E_m[POS(µ_h+m)^N]
// (ExpectDrift).
func (p Params) DieYield(n int) float64 {
	if n <= 0 {
		return 1
	}
	if p.WaferSigma > 0 {
		return p.ExpectDrift(func(shift float64) float64 {
			return p.ShiftedDieYield(n, shift)
		}, p.UpperBound())
	}
	return p.ShiftedDieYield(n, 0)
}

// ExpectDrift returns E_m[y(m)] over the common-mode drift
// m ~ N(0, WaferSigma²) of one bond event, for WaferSigma > 0. y is the
// event's all-pads-pass probability at shift m, a cliff function of the
// shift, so the expectation is integrated adaptively. The rule splits at
// the shift that centres the summed mean height in (ζ₋, upper), the middle
// of the shifts a die survives. upper is the least ζ₊ over the pad groups
// y covers, p.UpperBound() for one; every group shares p's mean height, ζ₋
// and drift, since the Cu density a group changes moves only ζ₊.
func (p Params) ExpectDrift(y func(shift float64) float64, upper float64) float64 {
	centre := (p.LowerBound()+upper)/2 - p.MeanHeightSum()
	return num.Clamp(num.ExpectNormalAdaptive(y, 0, p.WaferSigma, centre), 0, 1)
}

// ShiftedDieYield returns the die yield with the summed mean height
// displaced by shift (one realization of the common-mode drift).
func (p Params) ShiftedDieYield(n int, shift float64) float64 {
	if n <= 0 {
		return 1
	}
	pf := p.shiftedPadFailProb(shift)
	if pf >= 1 {
		return 0
	}
	return math.Exp(float64(n) * math.Log1p(-pf))
}

// shiftedPadFailProb is PadFailProb with the mean displaced by shift.
func (p Params) shiftedPadFailProb(shift float64) float64 {
	q := p
	q.WaferSigma = 0
	q.MeanRecessTop -= shift // height = −recess: +shift in height is −shift in recess
	return q.PadFailProb()
}

// CuPatternDensity returns the areal Cu density D_Cu of a pad array with
// bottom-pad diameter d₂ on pitch p: π·(d₂/2)²/p². The bottom pad is the
// larger one, so it sets the Cu fraction seen by the dielectric interface.
func CuPatternDensity(bottomDiameter, pitch float64) float64 {
	if pitch <= 0 {
		return 0
	}
	r := bottomDiameter / 2
	return math.Pi * r * r / (pitch * pitch)
}
