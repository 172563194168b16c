package overlay

import (
	"yap/internal/num"
	"yap/internal/wafer"
)

// PlacementSpread is the die-to-die variation of the systematic overlay
// terms in D2W bonding (§III-E-1: "the systematic overlay error
// independently happens die-to-die"). Each die placement draws its own
// translation, rotation and magnification around the process means; the
// spreads below are the standard deviations of those draws, quoted at the
// same reference radius as the Distortion means (Table I's starred
// "Mean (Std.)" entries).
type PlacementSpread struct {
	// TXSigma and TYSigma are the translation spreads (m).
	TXSigma, TYSigma float64
	// RotationSigma is the rotation spread (rad).
	RotationSigma float64
	// MagnificationSigma is the magnification spread (dimensionless),
	// typically k_mag times the warpage spread via Eq. 2.
	MagnificationSigma float64
}

// Zero reports whether the spread is entirely deterministic.
func (s PlacementSpread) Zero() bool {
	return s.TXSigma == 0 && s.TYSigma == 0 && s.RotationSigma == 0 && s.MagnificationSigma == 0
}

// ExpectedDieYieldD2W returns the placement-averaged Y_ovl,D2W for the
// paper's uniform pad grid: ExpectedDieYieldD2WRegions on the one full-die
// region.
func (m Model) ExpectedDieYieldD2W(dieW, dieH, refRadius float64, spread PlacementSpread) float64 {
	return m.ExpectedDieYieldD2WRegions(dieW, dieH, refRadius, spread, m.fullDie(dieW, dieH))
}

// ExpectedDieYieldD2WRegions returns Y_ovl,D2W for a pad layout averaged
// over the die-to-die placement variation: E[POS_die] with
// (T_x, T_y, α, E) drawn independently normal around the model's
// Distortion with the given spreads, each draw rescaled to the die
// (ScaleToDie) and evaluated through the region-product POS (Eq. 23).
//
// The translation and rotation dimensions are smooth at the σ₁ scale and
// use the 7-point Gauss–Hermite rule; the magnification dimension — whose
// spread moves the corner misalignment by far more than the random-error
// width, making POS nearly a step function of E — is integrated adaptively.
// Even a constant integrand costs 153 adaptive nodes × 7³ Gauss–Hermite
// nodes = 52,479 region-product POS evaluations, still orders of magnitude
// cheaper than per-die Monte-Carlo placement.
func (m Model) ExpectedDieYieldD2WRegions(dieW, dieH, refRadius float64, spread PlacementSpread, regions []PadRegion) float64 {
	if spread.Zero() {
		return m.DieYieldD2WRegions(dieW, dieH, refRadius, regions)
	}
	halfDiag := wafer.HalfDiagonal(dieW, dieH)
	muSmooth := []float64{m.Dist.TX, m.Dist.TY, m.Dist.Rotation}
	sigmaSmooth := []float64{spread.TXSigma, spread.TYSigma, spread.RotationSigma}
	pos := func(tx, ty, rot, mag float64) float64 {
		dist := Distortion{TX: tx, TY: ty, Rotation: rot, Magnification: mag}.
			ScaleToDie(refRadius, halfDiag)
		return DiePOSRegions(dist, regions, m.Sigma1)
	}
	y := num.ExpectNormalAdaptive(func(mag float64) float64 {
		return num.ExpectNormal(func(x []float64) float64 {
			return pos(x[0], x[1], x[2], mag)
		}, muSmooth, sigmaSmooth)
	}, m.Dist.Magnification, spread.MagnificationSigma)
	// Quadrature residue can push a saturated probability past its bounds
	// by ~1e-10; a yield must stay in [0, 1].
	return num.Clamp(y, 0, 1)
}
