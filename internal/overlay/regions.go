package overlay

import (
	"yap/internal/geom"
	"yap/internal/num"
	"yap/internal/wafer"
)

// PadRegion is one pad region's resolved overlay inputs: its pad-array
// rectangle in die-local coordinates and the survivable-misalignment bound
// δ of its pad geometry. It is the overlay-model view of a resolved
// internal/layout region; the types are kept generic here so layout can
// depend on overlay (for PadGeometry) without a cycle.
type PadRegion struct {
	// Rect is the region's pad-array rectangle (die-local meters).
	Rect geom.Rect
	// Delta is the region geometry's MaxMisalignment bound δ (m).
	Delta float64
}

// fullDie returns the paper's uniform pad grid as a layout: the one region
// holding the pitch-aligned pad array of a dieW × dieH die, at the model's
// δ.
func (m Model) fullDie(dieW, dieH float64) []PadRegion {
	return []PadRegion{{Rect: wafer.PadArrayFor(dieW, dieH, m.Pads.Pitch).Rect, Delta: m.Delta()}}
}

// DiePOSRegions returns the possibility of survival of a die whose pads
// form regions under a shared distortion field (the YAP+ generalization of
// Eq. 7): each region survives as its worst pad does (DiePOS), and the die
// POS is the product of per-region survival. Rects are evaluated against
// dist directly, so callers translate die-local rects into the distortion
// frame first when needed. For a single region the product is DiePOS bit
// for bit (1·x == x).
func DiePOSRegions(dist Distortion, regions []PadRegion, sigma1 float64) float64 {
	pos := 1.0
	for _, r := range regions {
		pos *= DiePOS(dist, r.Rect, r.Delta, sigma1)
	}
	return pos
}

// WaferDiePOS returns the POS of each die of a W2W-bonded wafer, the
// summands of Eq. 8: per die, the region product under the wafer-level
// distortion field, with each region's die-local rectangle translated to
// the die's wafer position. Each region's padLaw is resolved once for all
// dies; a die's value is DiePOSRegions' on the translated rectangles, bit
// for bit.
func (m Model) WaferDiePOS(dies []wafer.Die, regions []PadRegion) []float64 {
	laws := make([]padLaw, len(regions))
	for r := range regions {
		laws[r] = newPadLaw(regions[r].Delta, m.Sigma1)
	}
	out := make([]float64, len(dies))
	for i, die := range dies {
		c := die.Center()
		pos := 1.0
		for r := range regions {
			pos *= laws[r].pos(m.Dist.MaxOverRect(regions[r].Rect.Translate(c)))
		}
		out[i] = pos
	}
	return out
}

// WaferYieldW2WRegions returns Y_ovl,W2W (Eq. 8) for a pad layout: the
// average of WaferDiePOS over all M dies of the wafer layout. The model's
// Pads field is not consulted — each region carries its own δ.
func (m Model) WaferYieldW2WRegions(layout wafer.Layout, regions []PadRegion) float64 {
	pos := m.WaferDiePOS(layout.Dies(), regions)
	if len(pos) == 0 {
		return 0
	}
	return num.Mean(pos)
}

// DieYieldD2WRegions returns Y_ovl,D2W (Eq. 23) for a single chiplet of the
// given pad layout bonded die-to-wafer. The die aligns on its own markers,
// so the wafer-level rotation and magnification are rescaled by the
// reference-radius to half-diagonal ratio, and the region-product POS is
// evaluated in die-local coordinates centered on the die.
//
// refRadius is the radius at which the distortion's rotation/magnification
// were characterized (the wafer radius for Table I numbers).
func (m Model) DieYieldD2WRegions(dieW, dieH, refRadius float64, regions []PadRegion) float64 {
	dist := m.Dist.ScaleToDie(refRadius, wafer.HalfDiagonal(dieW, dieH))
	return DiePOSRegions(dist, regions, m.Sigma1)
}
