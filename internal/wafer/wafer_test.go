package wafer

import (
	"math"
	"testing"

	"yap/internal/geom"
)

func TestLayoutValidate(t *testing.T) {
	good := Layout{WaferRadius: 0.15, DieWidth: 0.01, DieHeight: 0.01}
	if err := good.Validate(); err != nil {
		t.Errorf("valid layout rejected: %v", err)
	}
	bad := []Layout{
		{WaferRadius: 0, DieWidth: 0.01, DieHeight: 0.01},
		{WaferRadius: 0.15, DieWidth: 0, DieHeight: 0.01},
		{WaferRadius: 0.15, DieWidth: 0.01, DieHeight: -1},
		{WaferRadius: 0.15, EdgeExclusion: 0.2, DieWidth: 0.01, DieHeight: 0.01},
		{WaferRadius: 0.15, EdgeExclusion: -0.01, DieWidth: 0.01, DieHeight: 0.01},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad layout %d accepted", i)
		}
	}
}

func TestDiesAllInsideUsableRadius(t *testing.T) {
	l := Layout{WaferRadius: 0.15, EdgeExclusion: 0.003, DieWidth: 0.01, DieHeight: 0.01}
	r := l.UsableRadius()
	for _, d := range l.Dies() {
		for _, c := range d.Rect.Corners() {
			if math.Hypot(c.X, c.Y) > r+1e-12 {
				t.Fatalf("die corner %v outside usable radius %g", c, r)
			}
		}
	}
}

func TestDieCount300mmWafer10mmDie(t *testing.T) {
	// A 300 mm wafer with 10×10 mm dies holds ~600–700 full dies on a
	// symmetric grid (π·150²/100 ≈ 707 gross; corner loss removes ~10%).
	l := Layout{WaferRadius: 0.15, DieWidth: 0.01, DieHeight: 0.01}
	n := l.DieCount()
	if n < 550 || n > 707 {
		t.Errorf("die count = %d, want within [550, 707]", n)
	}
}

func TestDieCountScalesWithDieArea(t *testing.T) {
	l10 := Layout{WaferRadius: 0.15, DieWidth: 0.01, DieHeight: 0.01}
	l5 := Layout{WaferRadius: 0.15, DieWidth: 0.005, DieHeight: 0.005}
	if l5.DieCount() < 3*l10.DieCount() {
		t.Errorf("quartered die area should roughly quadruple count: %d vs %d",
			l5.DieCount(), l10.DieCount())
	}
}

func TestDiesSymmetric(t *testing.T) {
	l := Layout{WaferRadius: 0.15, DieWidth: 0.01, DieHeight: 0.01}
	centers := make(map[[2]float64]bool)
	for _, d := range l.Dies() {
		c := d.Center()
		centers[[2]float64{math.Round(c.X * 1e9), math.Round(c.Y * 1e9)}] = true
	}
	// The grid is symmetric about the origin: each center's mirror exists.
	for k := range centers {
		if !centers[[2]float64{-k[0], -k[1]}] {
			t.Fatalf("missing mirrored die for center %v", k)
		}
	}
}

func TestDiesDisjoint(t *testing.T) {
	l := Layout{WaferRadius: 0.05, DieWidth: 0.011, DieHeight: 0.013}
	dies := l.Dies()
	for i := range dies {
		for j := i + 1; j < len(dies); j++ {
			a, b := dies[i].Rect, dies[j].Rect
			// Shrink slightly: grid neighbors share edges.
			if a.Expand(-1e-9).Overlaps(b.Expand(-1e-9)) {
				t.Fatalf("dies %d and %d overlap: %v vs %v", i, j, a, b)
			}
		}
	}
}

func TestDieTooLargeForWafer(t *testing.T) {
	l := Layout{WaferRadius: 0.004, DieWidth: 0.01, DieHeight: 0.01}
	if n := l.DieCount(); n != 0 {
		t.Errorf("oversized die count = %d, want 0", n)
	}
}

// Dies sizes its slice once, for a bound on the dies that fit rather than
// for the sites the grid walks: a thin die taller (or wider) than the
// usable radius walks over a million sites, fits none and must reserve
// nothing.
func TestDiesReserveFittingBound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		l      Layout
		allocs float64
	}{
		{"10mm", Layout{WaferRadius: 0.15, EdgeExclusion: 0.003, DieWidth: 0.01, DieHeight: 0.01}, 1},
		{"tall-narrow", Layout{WaferRadius: 0.15, EdgeExclusion: 0.003, DieWidth: 1e-6, DieHeight: 0.2}, 0},
		{"wide-flat", Layout{WaferRadius: 0.15, EdgeExclusion: 0.003, DieWidth: 0.2, DieHeight: 1e-6}, 0},
	} {
		dies := tc.l.Dies()
		if tc.allocs == 0 && len(dies) != 0 {
			t.Errorf("%s: %d dies, want none", tc.name, len(dies))
		}
		if c := cap(dies); c > len(dies)*5/4 {
			t.Errorf("%s: capacity %d for %d dies", tc.name, c, len(dies))
		}
		if a := testing.AllocsPerRun(2, func() { tc.l.Dies() }); a != tc.allocs {
			t.Errorf("%s: %v allocations per call, want %v", tc.name, a, tc.allocs)
		}
	}
}

func TestPadArrayFor(t *testing.T) {
	p := PadArrayFor(10e-3, 10e-3, 6e-6)
	wantN := 1666 // floor(10mm / 6µm)
	if p.NX != wantN || p.NY != wantN {
		t.Errorf("pad grid %dx%d, want %dx%d", p.NX, p.NY, wantN, wantN)
	}
	if p.Pads() != wantN*wantN {
		t.Errorf("pads = %d", p.Pads())
	}
	// The array rect is centered and spans NX·pitch.
	if !almostEq(p.Rect.Width(), float64(wantN)*6e-6, 1e-12) {
		t.Errorf("array width = %g", p.Rect.Width())
	}
	if !almostEq(p.Rect.Center().X, 0, 1e-15) || !almostEq(p.Rect.Center().Y, 0, 1e-15) {
		t.Errorf("array not centered: %v", p.Rect.Center())
	}
}

// TestPadArrayInFullDieBitIdentical pins the identity PadArrayFor is built
// on: laying out in the explicit full-die rectangle reproduces the legacy
// grid field for field, floats bit for bit (w/2 − (−w/2) recovers w
// exactly; the center is exactly the origin).
func TestPadArrayInFullDieBitIdentical(t *testing.T) {
	for _, dims := range [][3]float64{
		{10e-3, 10e-3, 6e-6},
		{7.3e-3, 11.1e-3, 4e-6},
		{2e-3, 2e-3, 50e-6},
	} {
		dieW, dieH, pitch := dims[0], dims[1], dims[2]
		legacy := PadArrayFor(dieW, dieH, pitch)
		in := PadArrayIn(geom.Rect{X0: -dieW / 2, Y0: -dieH / 2, X1: dieW / 2, Y1: dieH / 2}, pitch)
		if legacy != in {
			t.Errorf("PadArrayIn(full die %gx%g @ %g) = %+v, PadArrayFor = %+v",
				dieW, dieH, pitch, in, legacy)
		}
	}
}

func TestPadArrayInOffCenterRegion(t *testing.T) {
	rect := geom.Rect{X0: 1e-3, Y0: 2e-3, X1: 4e-3, Y1: 4.5e-3}
	p := PadArrayIn(rect, 6e-6)
	if p.NX != 500 || p.NY != 416 { // floor(3mm/6µm), floor(2.5mm/6µm)
		t.Errorf("pad grid %dx%d, want 500x416", p.NX, p.NY)
	}
	if c, rc := p.Rect.Center(), rect.Center(); !almostEq(c.X, rc.X, 1e-12) || !almostEq(c.Y, rc.Y, 1e-12) {
		t.Errorf("grid center %v, want region center %v", c, rc)
	}
	if p.Rect.X0 < rect.X0 || p.Rect.X1 > rect.X1 || p.Rect.Y0 < rect.Y0 || p.Rect.Y1 > rect.Y1 {
		t.Errorf("grid rect %+v escapes region %+v", p.Rect, rect)
	}
}

func TestPadArrayInDegenerate(t *testing.T) {
	if p := PadArrayIn(geom.Rect{X0: 0, Y0: 0, X1: 1e-6, Y1: 1e-6}, 6e-6); p.Pads() != 0 {
		t.Errorf("region smaller than pitch should hold no pads, got %d", p.Pads())
	}
	if p := PadArrayIn(geom.Rect{X0: 0, Y0: 0, X1: 1e-3, Y1: 1e-3}, 0); p.Pads() != 0 {
		t.Errorf("zero pitch should hold no pads, got %d", p.Pads())
	}
	if p := PadArrayIn(geom.Rect{X0: 0, Y0: 0, X1: 1e-3, Y1: 1e-3}, -1); p.Pads() != 0 {
		t.Errorf("negative pitch should hold no pads, got %d", p.Pads())
	}
}

func TestPadArrayDegenerate(t *testing.T) {
	if p := PadArrayFor(1e-6, 1e-6, 6e-6); p.Pads() != 0 {
		t.Errorf("die smaller than pitch should hold no pads, got %d", p.Pads())
	}
	if p := PadArrayFor(10e-3, 10e-3, 0); p.Pads() != 0 {
		t.Errorf("zero pitch should hold no pads, got %d", p.Pads())
	}
}

func TestPadCentersInsideArray(t *testing.T) {
	p := PadArrayFor(100e-6, 80e-6, 9e-6)
	for i := 0; i < p.NX; i++ {
		for j := 0; j < p.NY; j++ {
			c := p.PadCenter(i, j)
			if !p.Rect.Contains(c) {
				t.Fatalf("pad (%d,%d) center %v outside array %v", i, j, c, p.Rect)
			}
		}
	}
	// Adjacent pads are exactly one pitch apart.
	a := p.PadCenter(0, 0)
	b := p.PadCenter(1, 0)
	if !almostEq(b.X-a.X, 9e-6, 1e-15) {
		t.Errorf("pitch spacing = %g", b.X-a.X)
	}
}

func TestEffectiveDieRadius(t *testing.T) {
	// √(ab/π) preserves area: π·R² = a·b.
	r := EffectiveDieRadius(10e-3, 10e-3)
	if !almostEq(math.Pi*r*r, 1e-4, 1e-12) {
		t.Errorf("effective radius area mismatch: %g", math.Pi*r*r)
	}
}

func TestHalfDiagonal(t *testing.T) {
	if got := HalfDiagonal(6e-3, 8e-3); !almostEq(got, 5e-3, 1e-15) {
		t.Errorf("half diagonal = %g, want 5e-3", got)
	}
}

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}
