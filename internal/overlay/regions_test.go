package overlay

import (
	"math"
	"testing"

	"yap/internal/geom"
	"yap/internal/units"
	"yap/internal/wafer"
)

// stressedModel is a distortion field strong enough that region structure
// matters (yields strictly between 0 and 1 at the 300 mm layout).
func stressedModel() Model {
	return Model{
		Pads: basePads(),
		Dist: Distortion{
			TX: 5 * units.Nanometer, TY: 5 * units.Nanometer,
			Rotation:      0.1 * units.Microradian,
			Magnification: 17 * units.PPM,
		},
		Sigma1: 5 * units.Nanometer,
	}
}

// WaferYieldW2W, DieYieldD2W and ExpectedDieYieldD2W run their region
// forms on the one full-die region, so the bit patterns below pin that the
// region path reproduces the uniform-grid model bit for bit.

// TestW2WRegionsSingleRegionBitIdentical pins Y_ovl,W2W = 0.126873 of the
// 300 mm layout under stressedModel, through the uniform-grid name and
// through the explicit one-region form.
func TestW2WRegionsSingleRegionBitIdentical(t *testing.T) {
	m := stressedModel()
	lay := wafer.Layout{WaferRadius: 0.15, DieWidth: 0.01, DieHeight: 0.01}
	pads := wafer.PadArrayFor(lay.DieWidth, lay.DieHeight, m.Pads.Pitch)
	regions := []PadRegion{{Rect: pads.Rect, Delta: m.Delta()}}
	const want = 0x3fc03d6355f671fd
	for name, y := range map[string]float64{
		"WaferYieldW2W":        m.WaferYieldW2W(lay),
		"WaferYieldW2WRegions": m.WaferYieldW2WRegions(lay, regions),
	} {
		if math.Float64bits(y) != want {
			t.Errorf("%s = %v (bits %016x), want bits %016x", name, y, math.Float64bits(y), uint64(want))
		}
	}
}

// TestD2WRegionsSingleRegionBitIdentical pins the D2W overlay yields under
// stressedModel: deterministic 0.701920 and placement-averaged 0.423291.
// The reference radius puts the die's corner misalignment within a few σ₁
// of δ; at the wafer radius both yields are exactly 0 and would pin
// nothing.
func TestD2WRegionsSingleRegionBitIdentical(t *testing.T) {
	m := stressedModel()
	const dieW, dieH = 0.01, 0.01
	const refR = 0.0575
	pads := wafer.PadArrayFor(dieW, dieH, m.Pads.Pitch)
	regions := []PadRegion{{Rect: pads.Rect, Delta: m.Delta()}}
	spread := PlacementSpread{
		TXSigma: 10 * units.Nanometer, TYSigma: 10 * units.Nanometer,
		RotationSigma:      0.05 * units.Microradian,
		MagnificationSigma: 0.27 * units.PPM,
	}
	for _, tc := range []struct {
		name string
		y    float64
		want uint64
	}{
		{"DieYieldD2W", m.DieYieldD2W(dieW, dieH, refR), 0x3fe6762128cab7a8},
		{"DieYieldD2WRegions", m.DieYieldD2WRegions(dieW, dieH, refR, regions), 0x3fe6762128cab7a8},
		{"ExpectedDieYieldD2W", m.ExpectedDieYieldD2W(dieW, dieH, refR, spread), 0x3fdb173208c26690},
		{"ExpectedDieYieldD2WRegions", m.ExpectedDieYieldD2WRegions(dieW, dieH, refR, spread, regions), 0x3fdb173208c26690},
	} {
		if math.Float64bits(tc.y) != tc.want {
			t.Errorf("%s = %v (bits %016x), want bits %016x", tc.name, tc.y, math.Float64bits(tc.y), tc.want)
		}
	}
	if zero := m.ExpectedDieYieldD2WRegions(dieW, dieH, refR, PlacementSpread{}, regions); zero != m.DieYieldD2WRegions(dieW, dieH, refR, regions) {
		t.Error("zero spread does not reduce to the deterministic region path")
	}
}

// TestDiePOSRegionsProduct checks the product structure: two disjoint
// regions multiply, and a tight-δ region drags the die below the loose
// region alone.
func TestDiePOSRegionsProduct(t *testing.T) {
	m := stressedModel()
	dist := m.Dist
	a := PadRegion{Rect: geom.Rect{X0: -0.004, Y0: -0.004, X1: 0, Y1: 0.004}, Delta: 50 * units.Nanometer}
	b := PadRegion{Rect: geom.Rect{X0: 0, Y0: -0.004, X1: 0.004, Y1: 0.004}, Delta: 200 * units.Nanometer}
	pa := DiePOSRegions(dist, []PadRegion{a}, m.Sigma1)
	pb := DiePOSRegions(dist, []PadRegion{b}, m.Sigma1)
	pab := DiePOSRegions(dist, []PadRegion{a, b}, m.Sigma1)
	if got, want := pab, pa*pb; got != want {
		t.Errorf("two-region POS = %g, want product %g", got, want)
	}
	if !(pab <= pb && pab <= pa) {
		t.Errorf("region product %g exceeds a factor (%g, %g)", pab, pa, pb)
	}
	if pa >= pb {
		t.Errorf("tight-δ region (%g) should survive less than loose one (%g)", pa, pb)
	}
}
