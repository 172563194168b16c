package core

import (
	"fmt"
	"math"

	"yap/internal/overlay"
)

// Breakdown is the per-mechanism yield decomposition of one evaluation.
// Total is the product of the three mechanism terms (Eq. 22 / Eq. 28 under
// the paper's independence assumption).
type Breakdown struct {
	// Overlay is Y_ovl (Eq. 8 for W2W, Eq. 23 averaged over placements
	// for D2W).
	Overlay float64
	// Recess is Y_cr (Eq. 14, identical for both bonding styles).
	Recess float64
	// Defect is Y_df (Eq. 21 for W2W, Eq. 27 for D2W).
	Defect float64
	// Total is the combined bonding yield.
	Total float64
}

func (b Breakdown) String() string {
	return fmt.Sprintf("Y_ovl=%.6f Y_cr=%.6f Y_df=%.6f Y=%.6f",
		b.Overlay, b.Recess, b.Defect, b.Total)
}

// Limiter names the mechanism contributing the largest yield loss.
func (b Breakdown) Limiter() string {
	switch math.Min(b.Overlay, math.Min(b.Recess, b.Defect)) {
	case b.Overlay:
		return "overlay"
	case b.Recess:
		return "recess"
	default:
		return "defect"
	}
}

// EvaluateW2W evaluates the full W2W bonding-yield model (Eq. 22):
// Y_W2W = Y_ovl,W2W · Y_cr,W2W · Y_df,W2W, each mechanism evaluated per
// region of the effective pad layout (YAP+). The paper's uniform pad grid
// is the one-region layout Regions resolves a nil PadLayout to. The
// overlay term products per-region pad survival under the shared
// distortion field, the recess term products per-region die yields at each
// region's Cu density (recessYield), and the defect term sums per-region
// kill rates Λ before the Poisson exponent.
func (p Params) EvaluateW2W() (Breakdown, error) {
	if err := p.Validate(); err != nil {
		return Breakdown{}, err
	}
	rs := p.Regions()
	dp := p.DefectParams()
	var lsum float64
	for _, r := range rs {
		// Per-region critical outline: the die outline for the paper's
		// one full-die region.
		lsum += dp.LambdaW2W(r.Rect.Width(), r.Rect.Height())
	}
	b := Breakdown{
		Overlay: p.OverlayModel().WaferYieldW2WRegions(p.Layout(), padRegions(rs)),
		Recess:  recessYield(rs),
		Defect:  math.Exp(-lsum),
	}
	b.Total = b.Overlay * b.Recess * b.Defect
	return b, nil
}

// EvaluateD2W evaluates the full D2W bonding-yield model (Eq. 28):
// Y_D2W = Y_ovl,D2W · Y_cr,D2W · Y_df,D2W, per region of the effective pad
// layout as in EvaluateW2W. The overlay term averages the die placement
// variation; the rotation/magnification reference radius is the wafer
// radius at which Table I characterizes them. The defect term sums each
// region's main-void kill rate at its own pitch, pad size and pad count.
func (p Params) EvaluateD2W() (Breakdown, error) {
	if err := p.Validate(); err != nil {
		return Breakdown{}, err
	}
	rs := p.Regions()
	dp := p.DefectParams()
	var lsum float64
	for _, r := range rs {
		lsum += dp.LambdaD2W(r.Rect.Width(), r.Rect.Height(),
			r.Geometry.Pitch, r.Geometry.TopDiameter/2, r.Grid.Pads())
	}
	b := Breakdown{
		Overlay: p.OverlayModel().ExpectedDieYieldD2WRegions(
			p.DieWidth, p.DieHeight, p.WaferRadius(), p.PlacementSpread(), padRegions(rs)),
		Recess: recessYield(rs),
		Defect: math.Exp(-lsum),
	}
	b.Total = b.Overlay * b.Recess * b.Defect
	return b, nil
}

// padRegions returns the overlay model's view of rs: each region's
// pad-array rectangle with its δ.
func padRegions(rs []Region) []overlay.PadRegion {
	pads := make([]overlay.PadRegion, len(rs))
	for i := range rs {
		pads[i] = overlay.PadRegion{Rect: rs[i].Grid.Rect, Delta: rs[i].Delta}
	}
	return pads
}

// RecessYieldAt returns the probability that every pad of every region
// passes the Cu recess check (Eq. 14) with the summed mean pad height
// displaced by shift, one draw of the common-mode drift that all regions
// of a bond event share: the product of the regions' ShiftedDieYield. The
// simulator draws the shift per bond event; the model integrates over it
// (recessYield).
func RecessYieldAt(rs []Region, shift float64) float64 {
	y := 1.0
	for i := range rs {
		y *= rs[i].Recess.ShiftedDieYield(rs[i].Grid.Pads(), shift)
	}
	return y
}

// recessYield returns Y_cr for the regions: RecessYieldAt without drift,
// else its expectation over the one shift every region shares,
// E_m[Π_r q_r(m)]. For one region that is recess.Params.DieYield bit for
// bit.
func recessYield(rs []Region) float64 {
	rp := &rs[0].Recess
	if rp.WaferSigma > 0 {
		upper := math.Inf(1)
		for i := range rs {
			upper = min(upper, rs[i].Recess.UpperBound())
		}
		return rp.ExpectDrift(func(shift float64) float64 { return RecessYieldAt(rs, shift) }, upper)
	}
	return RecessYieldAt(rs, 0)
}

// SystemYield returns Y_sys = Y_D2W^n for a 2.5D system assembled from n
// chiplets with no redundancy (§IV-C), where n = ⌈systemArea / die area⌉.
// It also returns the chiplet count used.
func (p Params) SystemYield(systemArea float64) (float64, int, error) {
	b, err := p.EvaluateD2W()
	if err != nil {
		return 0, 0, err
	}
	dieArea := p.DieWidth * p.DieHeight
	if dieArea <= 0 {
		return 0, 0, fmt.Errorf("core: non-positive die area %g", dieArea)
	}
	n := int(math.Ceil(systemArea / dieArea))
	if n < 1 {
		n = 1
	}
	return math.Pow(b.Total, float64(n)), n, nil
}
