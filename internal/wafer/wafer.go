// Package wafer builds the die floorplan of a circular wafer: which die
// sites of a regular grid fit entirely inside the usable wafer area, where
// their pad arrays sit, and how many Cu pads each die carries at a given
// bonding pitch.
//
// The floorplan feeds both the analytic model (which needs die positions to
// evaluate the systematic overlay field, Eq. 3, and the die count M of
// Eq. 8) and the Monte-Carlo simulator (which needs per-die rectangles for
// the void-overlap kill test).
package wafer

import (
	"fmt"
	"math"

	"yap/internal/geom"
)

// Layout describes a wafer and the die grid stepped across it. All lengths
// are meters.
type Layout struct {
	// WaferRadius is the radius of the wafer (150 mm for the paper's
	// 300 mm baseline wafer).
	WaferRadius float64
	// EdgeExclusion is the outer annulus excluded from die placement
	// (bevel/edge-void region removed by sawing, §II-C). May be zero.
	EdgeExclusion float64
	// DieWidth and DieHeight are the die dimensions (a and b in the paper).
	DieWidth, DieHeight float64
}

// Validate reports whether the layout is physically meaningful.
func (l Layout) Validate() error {
	if l.WaferRadius <= 0 {
		return fmt.Errorf("wafer: non-positive wafer radius %g", l.WaferRadius)
	}
	if l.EdgeExclusion < 0 || l.EdgeExclusion >= l.WaferRadius {
		return fmt.Errorf("wafer: edge exclusion %g outside [0, radius)", l.EdgeExclusion)
	}
	if l.DieWidth <= 0 || l.DieHeight <= 0 {
		return fmt.Errorf("wafer: non-positive die size %g x %g", l.DieWidth, l.DieHeight)
	}
	return nil
}

// UsableRadius is the radius available for dies after edge exclusion.
func (l Layout) UsableRadius() float64 { return l.WaferRadius - l.EdgeExclusion }

// Die is one placed die site.
type Die struct {
	// Col and Row index the grid site (0,0 is the most negative site kept).
	Col, Row int
	// Rect is the die outline, in wafer coordinates centered on the wafer.
	Rect geom.Rect
}

// Center returns the die center in wafer coordinates.
func (d Die) Center() geom.Vec2 { return d.Rect.Center() }

// Dies enumerates the die sites of the grid whose four corners all lie
// within the usable radius. The grid is symmetric about the wafer center
// with grid lines at integer multiples of the die dimensions (a standard
// "center between four dies" layout).
//
// The slice is sized once for a bound on the dies that fit: they lie in
// the grid's 2⌊r/w⌋ columns and 2⌊r/h⌋ rows whose edges are within r, and
// they cover disjoint parts of the disc, so there are at most the smaller
// of 4⌊r/w⌋⌊r/h⌋ and πr²/(w·h). A die too tall or too wide for the disc
// reserves nothing. A bound that is not a number or beyond int (a
// degenerate layout) leaves the slice to append.
func (l Layout) Dies() []Die {
	r := l.UsableRadius()
	nx := int(math.Ceil(r/l.DieWidth)) + 1
	ny := int(math.Ceil(r/l.DieHeight)) + 1
	var dies []Die
	if n := min(4*math.Floor(r/l.DieWidth)*math.Floor(r/l.DieHeight), math.Pi*r*r/(l.DieWidth*l.DieHeight)); n >= 1 && n < math.MaxInt {
		dies = make([]Die, 0, int(n))
	}
	for j := -ny; j < ny; j++ {
		for i := -nx; i < nx; i++ {
			rect := geom.Rect{
				X0: float64(i) * l.DieWidth,
				Y0: float64(j) * l.DieHeight,
				X1: float64(i+1) * l.DieWidth,
				Y1: float64(j+1) * l.DieHeight,
			}
			if l.rectFits(rect, r) {
				dies = append(dies, Die{Col: i + nx, Row: j + ny, Rect: rect})
			}
		}
	}
	return dies
}

// DieCount returns the number of full dies on the wafer (M in Eq. 8).
func (l Layout) DieCount() int { return len(l.Dies()) }

func (l Layout) rectFits(rect geom.Rect, radius float64) bool {
	r2 := radius * radius
	for _, c := range rect.Corners() {
		if c.X*c.X+c.Y*c.Y > r2 {
			return false
		}
	}
	return true
}

// PadArray describes the Cu pad grid of one die at a given bonding pitch.
type PadArray struct {
	// Pitch is the pad pitch p.
	Pitch float64
	// NX and NY are the pad counts along x and y.
	NX, NY int
	// Rect is the bounding rectangle of the pad array in die-local
	// coordinates centered on the die center.
	Rect geom.Rect
}

// Pads returns the total pad count N = NX·NY.
func (p PadArray) Pads() int { return p.NX * p.NY }

// PadArrayFor lays out the largest pitch-aligned pad array that fits in a
// die of the given dimensions. Pads occupy a centered grid with one pad per
// pitch cell; the array rectangle spans the outermost pad centers plus half
// a pitch of clearance on each side (i.e. the full cell area), which is the
// region the defect kill test uses.
func PadArrayFor(dieW, dieH, pitch float64) PadArray {
	if dieW <= 0 || dieH <= 0 {
		return PadArray{Pitch: pitch}
	}
	return PadArrayIn(geom.Rect{X0: -dieW / 2, Y0: -dieH / 2, X1: dieW / 2, Y1: dieH / 2}, pitch)
}

// PadArrayIn lays out the largest pitch-aligned pad array that fits in the
// given rectangle (die-local coordinates), centered within it — the
// per-region generalization of PadArrayFor used by heterogeneous pad
// layouts (internal/layout). For the full-die rectangle the result is
// bit-identical to PadArrayFor: the rect's width w/2 − (−w/2) recovers w
// exactly (binary halving is exact) and its center is exactly the origin.
func PadArrayIn(rect geom.Rect, pitch float64) PadArray {
	if pitch <= 0 {
		return PadArray{Pitch: pitch}
	}
	nx := int(math.Floor(rect.Width() / pitch))
	ny := int(math.Floor(rect.Height() / pitch))
	if nx < 1 || ny < 1 {
		return PadArray{Pitch: pitch}
	}
	w := float64(nx) * pitch
	h := float64(ny) * pitch
	c := rect.Center()
	return PadArray{
		Pitch: pitch,
		NX:    nx,
		NY:    ny,
		Rect:  geom.Rect{X0: c.X - w/2, Y0: c.Y - h/2, X1: c.X + w/2, Y1: c.Y + h/2},
	}
}

// PadCenter returns the die-local center of pad (i, j), 0 ≤ i < NX,
// 0 ≤ j < NY.
func (p PadArray) PadCenter(i, j int) geom.Vec2 {
	return geom.Vec2{
		X: p.Rect.X0 + (float64(i)+0.5)*p.Pitch,
		Y: p.Rect.Y0 + (float64(j)+0.5)*p.Pitch,
	}
}

// EffectiveDieRadius returns R = sqrt(a·b/π), the radius of the disk with
// the same area as the die — the paper's choice of effective radius for the
// D2W defect model (Eq. 24), preserving the expected particle count per die.
func EffectiveDieRadius(dieW, dieH float64) float64 {
	return math.Sqrt(dieW * dieH / math.Pi)
}

// HalfDiagonal returns the die half-diagonal — the maximum edge distance
// from the die center, which is the lever arm of D2W rotation and
// magnification errors (§IV-B).
func HalfDiagonal(dieW, dieH float64) float64 {
	return 0.5 * math.Hypot(dieW, dieH)
}
