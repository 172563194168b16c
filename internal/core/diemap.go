package core

import (
	"math"

	"yap/internal/wafer"
)

// DieYield is the per-die resolved W2W yield prediction: Eq. 8 before its
// final average, with position-dependent defect exposure. It quantifies
// the paper's §IV-B observation that "chiplets closer to the wafer center
// are more likely to survive".
type DieYield struct {
	// Die is the floorplan site.
	Die wafer.Die
	// Overlay is the die's POS under the systematic distortion field
	// (Eq. 7) — the radially growing magnification makes this fall toward
	// the edge.
	Overlay float64
	// Recess is Y_cr (position-independent; Eq. 14).
	Recess float64
	// Defect is the die's defect survival with the local particle density
	// (position-dependent under radial clustering, uniform otherwise).
	Defect float64
	// Total is the product.
	Total float64
}

// Radius returns the die center's distance from the wafer center.
func (d DieYield) Radius() float64 {
	c := d.Die.Center()
	return math.Hypot(c.X, c.Y)
}

// W2WDieYields returns the per-die yield map of the W2W model over the
// effective pad layout. Averaging the Overlay column reproduces
// EvaluateW2W's overlay term, the Recess column is its recess term, and
// averaging the Total column reproduces its product up to the correlation
// between mechanisms across positions (exactly, when defects are uniform).
func (p Params) W2WDieYields() ([]DieYield, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	dies := p.Layout().Dies()
	rs := p.Regions()
	overlayPOS := p.OverlayModel().WaferDiePOS(dies, padRegions(rs))
	recessY := recessYield(rs)
	dp := p.DefectParams()

	// Split Eq. 20 over the die outline into its position-independent
	// pieces so the local density can scale the anchor term per die. The
	// tail term mixes contributions from particles at all radii; it is
	// kept at its wafer-average (the die-resolved tail would need the full
	// 2-D integral the simulator effectively performs).
	anchorArea := p.DieWidth * p.DieHeight
	z := p.DefectShape
	tailTerm := 8 * dp.Density * (z - 1) / (3 * math.Pi * (2*z - 3)) *
		(p.DieWidth + p.DieHeight) * dp.TailKnee() * dp.ClusteringTailFactor()

	out := make([]DieYield, len(dies))
	for i, d := range dies {
		c := d.Rect.Center()
		localDensity := dp.DensityAt(math.Hypot(c.X, c.Y))
		lambda := localDensity*anchorArea + tailTerm
		dy := DieYield{
			Die:     d,
			Overlay: overlayPOS[i],
			Recess:  recessY,
			Defect:  math.Exp(-lambda),
		}
		dy.Total = dy.Overlay * dy.Recess * dy.Defect
		out[i] = dy
	}
	return out, nil
}

// RadialProfile bins per-die yields by die-center radius and returns the
// bin centers (m) and mean total yields — the radial yield falloff curve.
func RadialProfile(dies []DieYield, bins int, waferRadius float64) (centers, yields []float64) {
	if bins < 1 || len(dies) == 0 {
		return nil, nil
	}
	sums := make([]float64, bins)
	counts := make([]int, bins)
	for _, d := range dies {
		b := int(d.Radius() / waferRadius * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		sums[b] += d.Total
		counts[b]++
	}
	for b := 0; b < bins; b++ {
		if counts[b] == 0 {
			continue
		}
		centers = append(centers, (float64(b)+0.5)/float64(bins)*waferRadius)
		yields = append(yields, sums[b]/float64(counts[b]))
	}
	return centers, yields
}
