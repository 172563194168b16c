package sim

import (
	"yap/internal/core"
	"yap/internal/geom"
	"yap/internal/randx"
	"yap/internal/recess"
	"yap/internal/wafer"
)

// simRegion is one resolved pad region's simulator view: the quantities
// both kernels precompute once per run. With no PadLayout set the slice
// holds the single full-die uniform region, whose values reduce
// bit-identically to the legacy scalar fields they replaced (uniform-grid
// equivalence is property-tested in layout_test.go).
type simRegion struct {
	// rect is the region's pad-array rectangle, die-local, and corners
	// are rect.Corners().
	rect    geom.Rect
	corners [4]geom.Vec2
	// delta is the region geometry's survivable misalignment δ.
	delta float64
	// grid is the region's die-local pad grid.
	grid wafer.PadArray
	// padHalf is the region's top-pad half-side r₁ (D2W void kill reach).
	padHalf float64
	// pads is grid.Pads().
	pads int
	// recess is the Cu-recess submodel at the region's Cu pattern density.
	recess recess.Params
}

// buildRegions resolves the effective pad layout of p for the kernels.
func buildRegions(p core.Params) []simRegion {
	grids := p.RegionGrids()
	regions := make([]simRegion, len(grids))
	for i, g := range grids {
		regions[i] = simRegion{
			rect:    g.Grid.Rect,
			corners: g.Grid.Rect.Corners(),
			delta:   g.Geometry.MaxMisalignment(),
			grid:    g.Grid,
			padHalf: g.Geometry.TopDiameter / 2,
			pads:    g.Grid.Pads(),
			recess:  p.RegionRecessParams(g.Geometry),
		}
	}
	return regions
}

// regionRecessProb returns the exact probability that every pad of every
// region passes the recess check: the product of per-region all-pads-pass
// probabilities at each region's Cu density.
func regionRecessProb(regions []simRegion) float64 {
	q := 1.0
	for _, r := range regions {
		q *= r.recess.DieYield(r.pads)
	}
	return q
}

// regionRecessProbShifted is regionRecessProb under a common-mode mean
// height-sum shift (the per-bond CMP drift), shared by every region.
func regionRecessProbShifted(regions []simRegion, shift float64) float64 {
	q := 1.0
	for _, r := range regions {
		q *= r.recess.ShiftedDieYield(r.pads, shift)
	}
	return q
}

// explicitRecessRegions draws every pad height of every region explicitly
// against its region's acceptance window — the O(N) recess path shared by
// both kernels. The draw order (regions in layout order, pads within a
// region in sequence, stopping at the first failure) is part of the
// determinism contract.
func explicitRecessRegions(rng *randx.Source, regions []simRegion, shift float64) bool {
	for _, r := range regions {
		mu := r.recess.MeanHeightSum() + shift
		sigma := r.recess.SigmaHeightSum()
		lo, hi := r.recess.LowerBound(), r.recess.UpperBound()
		for i := 0; i < r.pads; i++ {
			h := rng.Normal(mu, sigma)
			if h <= lo || h >= hi {
				return false
			}
		}
	}
	return true
}

// maxPadHalf returns the largest top-pad half-side over the regions — the
// pad reach that sizes the D2W particle-sampling margin.
func maxPadHalf(regions []simRegion) float64 {
	var m float64
	for _, r := range regions {
		if r.padHalf > m {
			m = r.padHalf
		}
	}
	return m
}
