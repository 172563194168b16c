// Package geom provides the planar geometry primitives used by the YAP
// yield models and simulator: the circle–circle contact (lens) area behind
// the overlay model's Eq. 5, segment–rectangle intersection for the
// void-tail kill test, and rectangle utilities for die and pad regions.
//
// All coordinates are in meters.
package geom

import "math"

// Vec2 is a point or displacement in the wafer plane.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v − w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns s·v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dot returns the dot product v·w, each product rounded as written: on
// every host v.Dot(v) is the same rounded square, the one the overlay
// model's magnitudes are taken from.
func (v Vec2) Dot(w Vec2) float64 { return float64(v.X*w.X) + float64(v.Y*w.Y) }

// Rect is an axis-aligned rectangle [X0,X1] × [Y0,Y1].
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// RectAround returns the axis-aligned rectangle of width w and height h
// centered at c.
func RectAround(c Vec2, w, h float64) Rect {
	return Rect{c.X - w/2, c.Y - h/2, c.X + w/2, c.Y + h/2}
}

// Width returns the rectangle's extent in x.
func (r Rect) Width() float64 { return r.X1 - r.X0 }

// Height returns the rectangle's extent in y.
func (r Rect) Height() float64 { return r.Y1 - r.Y0 }

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the rectangle's center point, each coordinate rounded
// before a caller adds to it (no host fuses the halving into a Translate).
func (r Rect) Center() Vec2 { return Vec2{float64((r.X0 + r.X1) / 2), float64((r.Y0 + r.Y1) / 2)} }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Vec2) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Translate returns r shifted by v.
func (r Rect) Translate(v Vec2) Rect {
	return Rect{r.X0 + v.X, r.Y0 + v.Y, r.X1 + v.X, r.Y1 + v.Y}
}

// Expand returns r grown outward by m on every side (shrunk if m < 0).
func (r Rect) Expand(m float64) Rect {
	return Rect{r.X0 - m, r.Y0 - m, r.X1 + m, r.Y1 + m}
}

// Overlaps reports whether r and q intersect (boundary contact counts).
func (r Rect) Overlaps(q Rect) bool {
	return r.X0 <= q.X1 && q.X0 <= r.X1 && r.Y0 <= q.Y1 && q.Y0 <= r.Y1
}

// Corners returns the four corner points of r.
func (r Rect) Corners() [4]Vec2 {
	return [4]Vec2{{r.X0, r.Y0}, {r.X1, r.Y0}, {r.X1, r.Y1}, {r.X0, r.Y1}}
}

// CircleLensArea returns the intersection area of two circles with radii r1
// and r2 whose centers are distance s apart — the Cu-pad contact area of
// the paper's Eq. 5:
//
//	S = π·min(r1,r2)²                                 s ≤ |r2 − r1|
//	S = θ1·r1² + θ2·r2² − s·r1·sin θ1                 |r2 − r1| < s < r1+r2
//	S = 0                                             s ≥ r1 + r2
//
// with θ1 = arccos((s²+r1²−r2²)/(2·s·r1)) and θ2 likewise. The middle
// branch is the standard circular-lens formula; the last term s·r1·sinθ1
// equals twice the area of the center–center–intersection triangle.
func CircleLensArea(r1, r2, s float64) float64 {
	if r1 < 0 || r2 < 0 {
		return 0
	}
	s = math.Abs(s)
	if s >= r1+r2 || r1 == 0 || r2 == 0 {
		return 0
	}
	if s <= math.Abs(r2-r1) {
		rm := math.Min(r1, r2)
		return math.Pi * rm * rm
	}
	// Clamp the arccos arguments against floating-point drift at the branch
	// boundaries.
	c1 := clamp((s*s+r1*r1-r2*r2)/(2*s*r1), -1, 1)
	c2 := clamp((s*s+r2*r2-r1*r1)/(2*s*r2), -1, 1)
	th1 := math.Acos(c1)
	th2 := math.Acos(c2)
	return th1*r1*r1 + th2*r2*r2 - s*r1*math.Sin(th1)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Segment is the line segment from A to B.
type Segment struct {
	A, B Vec2
}

// Length returns the segment's length.
func (s Segment) Length() float64 { return s.B.Sub(s.A).Norm() }

// IntersectsRect reports whether the segment touches the rectangle,
// including the cases where an endpoint lies inside and where the segment
// crosses the interior without either endpoint inside. It is the kill test
// for a void tail (modeled as a line, §III-C) against a die's pad array.
//
// The implementation is the slab (Liang–Barsky) clip: the segment is
// parameterized as A + t·(B−A), t ∈ [0,1], and the parameter interval is
// clipped against each of the four half-planes; a nonempty interval means
// intersection.
func (s Segment) IntersectsRect(r Rect) bool {
	d := s.B.Sub(s.A)
	t0, t1 := 0.0, 1.0

	clip := func(p, q float64) bool {
		// Half-plane p·t ≤ q.
		if p == 0 {
			return q >= 0 // parallel: inside iff q ≥ 0
		}
		t := q / p
		if p < 0 {
			if t > t1 {
				return false
			}
			if t > t0 {
				t0 = t
			}
		} else {
			if t < t0 {
				return false
			}
			if t < t1 {
				t1 = t
			}
		}
		return true
	}

	return clip(-d.X, s.A.X-r.X0) &&
		clip(d.X, r.X1-s.A.X) &&
		clip(-d.Y, s.A.Y-r.Y0) &&
		clip(d.Y, r.Y1-s.A.Y)
}

// CircleOverlapsRect reports whether the disk of the given radius centered
// at c intersects the rectangle r.
func CircleOverlapsRect(c Vec2, radius float64, r Rect) bool {
	// Distance from c to the rectangle.
	dx := math.Max(math.Max(r.X0-c.X, 0), c.X-r.X1)
	dy := math.Max(math.Max(r.Y0-c.Y, 0), c.Y-r.Y1)
	return dx*dx+dy*dy <= radius*radius
}

// SegmentRectAvgCriticalArea returns the orientation-averaged critical area
// A(l) = a·b + (2/π)(a+b)·l of a length-l line defect against an a×b
// rectangle (Eq. 19 of the paper): the measure of defect anchor positions,
// averaged over uniform defect direction φ ∈ [0,2π), for which the defect
// segment intersects the rectangle.
func SegmentRectAvgCriticalArea(a, b, l float64) float64 {
	return a*b + 2/math.Pi*(a+b)*l
}

// SquaresOverlap reports whether two axis-aligned squares, centered at c1
// and c2 with half-sides h1 and h2, intersect. Used by the D2W defect
// model's square-void/square-pad kill rule (Eq. 25).
func SquaresOverlap(c1 Vec2, h1 float64, c2 Vec2, h2 float64) bool {
	return math.Abs(c1.X-c2.X) <= h1+h2 && math.Abs(c1.Y-c2.Y) <= h1+h2
}
