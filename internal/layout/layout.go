// Package layout describes heterogeneous pad layouts of a die — the YAP+
// extension (PAPERS.md: "Pad-Layout-Aware Yield Modeling and Simulation for
// Hybrid Bonding"). Where the base model tiles one uniform pad grid across
// the whole die, a Layout partitions the die into rectangular pad regions,
// each with its own pitch and pad geometry and hence its own survivable
// misalignment δ, Cu pattern density and defect critical area.
//
// A Layout is pure die-local geometry: regions are rectangles in die-local
// coordinates (die centered on the origin), and every region resolves to a
// pitch-aligned pad grid centered within it (wafer.PadArrayIn). The yield
// math that consumes the resolved regions lives in internal/overlay,
// internal/core and internal/sim; this package owns validation, resolution
// against die-level defaults, and the canonical serialized form that feeds
// core.Params.CanonicalHash.
//
// Uniform constructs the single full-die region equivalent to the legacy
// uniform grid; it is the identity of the extension and is pinned
// bit-identical to the legacy path by property tests in internal/sim and
// internal/core.
package layout

import (
	"encoding/binary"
	"fmt"
	"math"

	"yap/internal/geom"
	"yap/internal/overlay"
	"yap/internal/wafer"
)

// Region is one rectangular pad group of a die. Coordinates are die-local
// meters with the die centered on the origin, so a region placed for one
// die design is reusable at any wafer position. Pad fields left zero
// inherit the die-level process values at resolution time (Geometry), which
// keeps the common case — same process stack, different pitch per block —
// terse on the wire.
type Region struct {
	// Name labels the region in errors and documentation ("core", "io", …).
	// Optional but strongly recommended: validation failures quote it.
	Name string `json:"name,omitempty"`
	// X0, Y0, X1, Y1 bound the region rectangle (m, die-local).
	X0 float64 `json:"x0"`
	Y0 float64 `json:"y0"`
	X1 float64 `json:"x1"`
	Y1 float64 `json:"y1"`
	// Pitch is the region's pad pitch (m); zero inherits the die pitch.
	Pitch float64 `json:"pitch,omitempty"`
	// TopPadDiameter and BottomPadDiameter are the region's pad sizes (m);
	// zero inherits the die-level diameters.
	TopPadDiameter    float64 `json:"top_pad_diameter,omitempty"`
	BottomPadDiameter float64 `json:"bottom_pad_diameter,omitempty"`
	// ContactAreaFraction and CriticalDistanceFraction are the region's
	// pad-survival constraints (Eq. 6); zero inherits the die-level values.
	ContactAreaFraction      float64 `json:"contact_area_fraction,omitempty"`
	CriticalDistanceFraction float64 `json:"critical_distance_fraction,omitempty"`
}

// Rect returns the region rectangle.
func (r Region) Rect() geom.Rect {
	return geom.Rect{X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: r.Y1}
}

// Geometry resolves the region's pad geometry against the die-level
// default: zero-valued fields inherit def's values.
func (r Region) Geometry(def overlay.PadGeometry) overlay.PadGeometry {
	g := overlay.PadGeometry{
		Pitch:                    r.Pitch,
		TopDiameter:              r.TopPadDiameter,
		BottomDiameter:           r.BottomPadDiameter,
		ContactAreaFraction:      r.ContactAreaFraction,
		CriticalDistanceFraction: r.CriticalDistanceFraction,
	}
	if g.Pitch == 0 {
		g.Pitch = def.Pitch
	}
	if g.TopDiameter == 0 {
		g.TopDiameter = def.TopDiameter
	}
	if g.BottomDiameter == 0 {
		g.BottomDiameter = def.BottomDiameter
	}
	if g.ContactAreaFraction == 0 {
		g.ContactAreaFraction = def.ContactAreaFraction
	}
	if g.CriticalDistanceFraction == 0 {
		g.CriticalDistanceFraction = def.CriticalDistanceFraction
	}
	return g
}

// label names a region for error messages: its index, plus its Name when
// set.
func (r Region) label(i int) string {
	if r.Name != "" {
		return fmt.Sprintf("region %d (%q)", i, r.Name)
	}
	return fmt.Sprintf("region %d", i)
}

// Layout is a die's pad layout: one or more non-overlapping pad regions
// inside the die outline.
type Layout struct {
	Regions []Region `json:"regions"`
}

// Uniform returns the layout equivalent to the legacy uniform grid: a
// single region covering the whole die carrying the die-level pad geometry
// explicitly. Resolving it yields exactly wafer.PadArrayFor's grid.
func Uniform(dieW, dieH float64, pads overlay.PadGeometry) Layout {
	return Layout{Regions: []Region{{
		Name: "die",
		X0:   -dieW / 2, Y0: -dieH / 2, X1: dieW / 2, Y1: dieH / 2,
		Pitch:                    pads.Pitch,
		TopPadDiameter:           pads.TopDiameter,
		BottomPadDiameter:        pads.BottomDiameter,
		ContactAreaFraction:      pads.ContactAreaFraction,
		CriticalDistanceFraction: pads.CriticalDistanceFraction,
	}}}
}

// Validate checks the layout against a die of the given dimensions with
// die-level pad geometry def: at least one region, every region rectangle
// non-empty and inside the die outline, no two region interiors
// overlapping (regions may share edges), every resolved pad geometry
// physical, and every region large enough to hold at least one pad at its
// resolved pitch. Errors name the offending region.
func (l Layout) Validate(dieW, dieH float64, def overlay.PadGeometry) error {
	if len(l.Regions) == 0 {
		return fmt.Errorf("layout: no regions (a layout must hold at least one pad region)")
	}
	die := geom.Rect{X0: -dieW / 2, Y0: -dieH / 2, X1: dieW / 2, Y1: dieH / 2}
	for i, r := range l.Regions {
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"X0", r.X0}, {"Y0", r.Y0}, {"X1", r.X1}, {"Y1", r.Y1}, {"Pitch", r.Pitch},
			{"TopPadDiameter", r.TopPadDiameter}, {"BottomPadDiameter", r.BottomPadDiameter},
			{"ContactAreaFraction", r.ContactAreaFraction}, {"CriticalDistanceFraction", r.CriticalDistanceFraction},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
				return fmt.Errorf("layout: %s: %s is %g, want a finite value", r.label(i), f.name, f.v)
			}
		}
		rect := r.Rect()
		if !(rect.X0 < rect.X1 && rect.Y0 < rect.Y1) {
			return fmt.Errorf("layout: %s: empty rectangle [%g,%g]x[%g,%g]",
				r.label(i), rect.X0, rect.X1, rect.Y0, rect.Y1)
		}
		if rect.X0 < die.X0 || rect.X1 > die.X1 || rect.Y0 < die.Y0 || rect.Y1 > die.Y1 {
			return fmt.Errorf("layout: %s: rectangle [%g,%g]x[%g,%g] outside the %g x %g die",
				r.label(i), rect.X0, rect.X1, rect.Y0, rect.Y1, dieW, dieH)
		}
		g := r.Geometry(def)
		if err := g.Validate(); err != nil {
			return fmt.Errorf("layout: %s: %w", r.label(i), err)
		}
		if wafer.PadArrayIn(rect, g.Pitch).Pads() == 0 {
			return fmt.Errorf("layout: %s: no pads fit a %g x %g rectangle at pitch %g",
				r.label(i), rect.Width(), rect.Height(), g.Pitch)
		}
		for j := 0; j < i; j++ {
			q := l.Regions[j].Rect()
			// Strict interior overlap: adjacent regions sharing an edge are
			// legal (geom.Rect.Overlaps counts boundary contact, so it is
			// not usable here).
			if rect.X0 < q.X1 && q.X0 < rect.X1 && rect.Y0 < q.Y1 && q.Y0 < rect.Y1 {
				return fmt.Errorf("layout: %s overlaps %s",
					r.label(i), l.Regions[j].label(j))
			}
		}
	}
	return nil
}

// RegionGrid is one resolved region: its rectangle, its pad geometry after
// die-level inheritance, and its pitch-aligned pad grid (die-local, centered
// in the region rectangle).
type RegionGrid struct {
	Name     string
	Rect     geom.Rect
	Geometry overlay.PadGeometry
	Grid     wafer.PadArray
}

// Grids resolves every region against the die-level pad geometry. The
// result is only meaningful for a layout that Validates.
func (l Layout) Grids(def overlay.PadGeometry) []RegionGrid {
	grids := make([]RegionGrid, len(l.Regions))
	for i, r := range l.Regions {
		g := r.Geometry(def)
		grids[i] = RegionGrid{
			Name:     r.Name,
			Rect:     r.Rect(),
			Geometry: g,
			Grid:     wafer.PadArrayIn(r.Rect(), g.Pitch),
		}
	}
	return grids
}

// TotalPads returns the pad count summed over all resolved regions.
func (l Layout) TotalPads(def overlay.PadGeometry) int {
	n := 0
	for _, r := range l.Regions {
		n += wafer.PadArrayIn(r.Rect(), r.Geometry(def).Pitch).Pads()
	}
	return n
}

// CanonicalBytes returns a canonical byte serialization of the layout: the
// region count, then per region the name (length-prefixed) and the nine
// numeric fields as little-endian IEEE-754 bit patterns in declaration
// order, with negative zero folded into positive zero. Two layouts
// serialize equal iff they are equal under Equal, which makes the encoding
// a sound CanonicalHash ingredient.
func (l Layout) CanonicalBytes() []byte {
	var buf []byte
	var b8 [8]byte
	putF := func(x float64) {
		if x == 0 {
			x = 0 // fold -0.0 into +0.0
		}
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(x))
		buf = append(buf, b8[:]...)
	}
	binary.LittleEndian.PutUint64(b8[:], uint64(len(l.Regions)))
	buf = append(buf, b8[:]...)
	for _, r := range l.Regions {
		binary.LittleEndian.PutUint64(b8[:], uint64(len(r.Name)))
		buf = append(buf, b8[:]...)
		buf = append(buf, r.Name...)
		for _, x := range []float64{
			r.X0, r.Y0, r.X1, r.Y1,
			r.Pitch, r.TopPadDiameter, r.BottomPadDiameter,
			r.ContactAreaFraction, r.CriticalDistanceFraction,
		} {
			putF(x)
		}
	}
	return buf
}

// Equal reports whether two layouts are numerically equal region by region
// (negative zero equals positive zero, matching CanonicalBytes).
func (l Layout) Equal(o Layout) bool {
	if len(l.Regions) != len(o.Regions) {
		return false
	}
	for i := range l.Regions {
		if l.Regions[i] != o.Regions[i] {
			return false
		}
	}
	return true
}
