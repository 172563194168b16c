package sim

import (
	"math"
	"testing"

	"yap/internal/core"
	"yap/internal/geom"
	"yap/internal/layout"
	"yap/internal/num"
)

func TestGenerateVoidMapBasics(t *testing.T) {
	p := core.Baseline()
	m, err := GenerateVoidMap(p, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Voids) != 50 {
		t.Errorf("voids = %d, want 50", len(m.Voids))
	}
	if len(m.Dies) == 0 || len(m.Dies) != len(m.PadRects) || len(m.Dies) != len(m.Killed) {
		t.Errorf("floorplan slices inconsistent: %d dies, %d rects, %d kill flags",
			len(m.Dies), len(m.PadRects), len(m.Killed))
	}
	if m.WaferRadius != p.WaferRadius() {
		t.Errorf("wafer radius = %g", m.WaferRadius)
	}
	for i, v := range m.Voids {
		if v.Particle.Norm() > m.WaferRadius {
			t.Errorf("void %d particle outside wafer", i)
		}
		if v.Thickness < p.MinParticleThickness {
			t.Errorf("void %d thickness %g below t0", i, v.Thickness)
		}
		if v.MainRadius <= 0 {
			t.Errorf("void %d main radius %g", i, v.MainRadius)
		}
		// Tail points radially outward: B is farther from center than A
		// (or equal for a center particle).
		if v.Tail.B.Norm() < v.Tail.A.Norm()-1e-12 {
			t.Errorf("void %d tail points inward", i)
		}
	}
}

func TestGenerateVoidMapPoissonCount(t *testing.T) {
	p := core.Baseline()
	m, err := GenerateVoidMap(p, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// λ = D_t·πR² ≈ 70.7; a Poisson draw should land within ±6σ.
	lambda := p.DefectDensity * math.Pi * p.WaferRadius() * p.WaferRadius()
	dev := math.Abs(float64(len(m.Voids)) - lambda)
	if dev > 6*math.Sqrt(lambda) {
		t.Errorf("Poisson draw %d too far from λ=%g", len(m.Voids), lambda)
	}
}

// TestGenerateVoidMapKillConsistency recomputes every die's kill flag
// from the voids and the pad regions of the params' layout, independently
// of the map's own rects: a map that ignored the layout would kill the
// dies under the full-die pad array (268 rather than 189 of the left-half
// layout's dies at seed 9, 200 particles).
func TestGenerateVoidMapKillConsistency(t *testing.T) {
	leftHalf := core.Baseline()
	w, h := leftHalf.DieWidth, leftHalf.DieHeight
	leftHalf.PadLayout = &layout.Layout{Regions: []layout.Region{
		{Name: "left", X0: -w / 2, Y0: -h / 2, X1: 0, Y1: h / 2},
	}}
	for _, tc := range []struct {
		name string
		p    core.Params
	}{{"uniform", core.Baseline()}, {"left half", leftHalf}} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := GenerateVoidMap(tc.p, 9, 200)
			if err != nil {
				t.Fatal(err)
			}
			grids := tc.p.RegionGrids()
			if len(m.PadRects) != len(m.Dies)*len(grids) {
				t.Fatalf("%d pad rects for %d dies of %d regions", len(m.PadRects), len(m.Dies), len(grids))
			}
			for i, d := range m.Dies {
				want := false
				for r, g := range grids {
					rect := g.Grid.Rect.Translate(d.Center())
					if m.PadRects[i*len(grids)+r] != rect {
						t.Fatalf("die %d region %d rect %+v, want %+v", i, r, m.PadRects[i*len(grids)+r], rect)
					}
					for _, v := range m.Voids {
						if v.Tail.IntersectsRect(rect) || geom.CircleOverlapsRect(v.Particle, v.MainRadius, rect) {
							want = true
						}
					}
				}
				if m.Killed[i] != want {
					t.Errorf("die %d kill flag %v, recomputed %v", i, m.Killed[i], want)
				}
			}
			if m.KilledCount() == 0 {
				t.Error("200 particles killed no dies — implausible at baseline")
			}
		})
	}
}

func TestGenerateVoidMapDeterministic(t *testing.T) {
	p := core.Baseline()
	a, err := GenerateVoidMap(p, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateVoidMap(p, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Voids {
		if a.Voids[i] != b.Voids[i] {
			t.Fatal("same seed produced different voids")
		}
	}
}

func TestGenerateVoidMapRejectsInvalid(t *testing.T) {
	p := core.Baseline()
	p.DefectShape = 1
	if _, err := GenerateVoidMap(p, 1, 10); err == nil {
		t.Error("accepted invalid params")
	}
}

func TestSampleTailLengthsMoments(t *testing.T) {
	p := core.Baseline()
	ls := SampleTailLengths(p, 12, 200000)
	if len(ls) != 200000 {
		t.Fatalf("samples = %d", len(ls))
	}
	// E[l] = (8/9)·k_l·R·√t0 ≈ 8.27 mm at baseline.
	want := p.DefectParams().MeanTailLength()
	got := num.Mean(ls)
	if math.Abs(got-want) > 0.02*want {
		t.Errorf("mean tail = %g, want %g", got, want)
	}
	for _, l := range ls[:100] {
		if l < 0 {
			t.Fatalf("negative tail length %g", l)
		}
	}
}

func TestSampleMainVoidSizesSupport(t *testing.T) {
	p := core.Baseline()
	rs := SampleMainVoidSizes(p, 13, 50000)
	rMin := p.KR0Void * math.Sqrt(p.MinParticleThickness)
	for _, r := range rs {
		if r < rMin-1e-12 {
			t.Fatalf("main void %g below support %g", r, rMin)
		}
	}
	// Median should sit within a factor ~2 of r_min (heavy tail above).
	med := num.Quantile(rs, 0.5)
	if med < rMin || med > 2*rMin {
		t.Errorf("median main void %g vs r_min %g", med, rMin)
	}
}
