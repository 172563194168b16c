package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"yap/internal/layout"
	"yap/internal/units"
)

// twoPitchParams is the 0.8 µm baseline with a two-region layout: a core
// region inheriting the die-level pads and an io strip at 12 µm pitch.
func twoPitchParams() Params {
	p := Baseline().WithPitch(0.8 * units.Micrometer)
	p.PadLayout = &layout.Layout{Regions: []layout.Region{
		{Name: "core", X0: -5e-3, Y0: -5e-3, X1: 2e-3, Y1: 5e-3},
		{Name: "io", X0: 2e-3, Y0: -5e-3, X1: 5e-3, Y1: 5e-3,
			Pitch: 12e-6, TopPadDiameter: 4e-6, BottomPadDiameter: 6e-6},
	}}
	return p
}

func TestW2WDieYieldsConsistentWithWaferAverage(t *testing.T) {
	p := Baseline()
	dies, err := p.W2WDieYields()
	if err != nil {
		t.Fatal(err)
	}
	if len(dies) != p.Layout().DieCount() {
		t.Fatalf("dies = %d, want %d", len(dies), p.Layout().DieCount())
	}
	var sumOverlay, sumTotal float64
	for _, d := range dies {
		for name, v := range map[string]float64{
			"overlay": d.Overlay, "recess": d.Recess, "defect": d.Defect, "total": d.Total,
		} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s yield %g outside [0,1]", name, v)
			}
		}
		if math.Abs(d.Total-d.Overlay*d.Recess*d.Defect) > 1e-12 {
			t.Fatal("total is not the product")
		}
		sumOverlay += d.Overlay
		sumTotal += d.Total
	}
	model, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 8: the wafer overlay yield is exactly the per-die average.
	if got := sumOverlay / float64(len(dies)); math.Abs(got-model.Overlay) > 1e-9 {
		t.Errorf("mean per-die overlay %g vs Eq. 8 %g", got, model.Overlay)
	}
	// With uniform defects, the per-die totals average to the wafer total.
	if got := sumTotal / float64(len(dies)); math.Abs(got-model.Total) > 1e-6 {
		t.Errorf("mean per-die total %g vs model %g", got, model.Total)
	}
}

func TestW2WDieYieldsEdgeFalloff(t *testing.T) {
	// At sub-µm pitch the systematic magnification kills edge dies first:
	// the innermost-bin yield must exceed the outermost-bin yield.
	p := Baseline().WithPitch(0.8 * units.Micrometer)
	dies, err := p.W2WDieYields()
	if err != nil {
		t.Fatal(err)
	}
	centers, yields := RadialProfile(dies, 6, p.WaferRadius())
	if len(centers) < 3 {
		t.Fatalf("profile too sparse: %d bins", len(centers))
	}
	if !(yields[0] > yields[len(yields)-1]+0.05) {
		t.Errorf("expected center-to-edge falloff: %v", yields)
	}
	// Monotone-ish: every bin ≥ the last bin.
	last := yields[len(yields)-1]
	for i, y := range yields[:len(yields)-1] {
		if y < last-1e-9 {
			t.Errorf("bin %d (%g) below edge bin (%g)", i, y, last)
		}
	}
}

func TestW2WDieYieldsClusteringRaisesEdgeDefectExposure(t *testing.T) {
	p := Baseline()
	p.RadialDefectClustering = 3
	dies, err := p.W2WDieYields()
	if err != nil {
		t.Fatal(err)
	}
	// Find the most central and most peripheral dies.
	var center, edge DieYield
	minR, maxR := math.Inf(1), -1.0
	for _, d := range dies {
		if r := d.Radius(); r < minR {
			minR, center = r, d
		}
		if r := d.Radius(); r > maxR {
			maxR, edge = r, d
		}
	}
	if center.Defect <= edge.Defect {
		t.Errorf("clustered defects: center %g should out-yield edge %g",
			center.Defect, edge.Defect)
	}
}

func TestRadialProfileEdgeCases(t *testing.T) {
	if c, y := RadialProfile(nil, 5, 0.15); c != nil || y != nil {
		t.Error("empty dies should give nil profile")
	}
	p := Baseline()
	dies, err := p.W2WDieYields()
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := RadialProfile(dies, 0, p.WaferRadius()); c != nil {
		t.Error("zero bins should give nil")
	}
	// One bin = overall mean.
	c, y := RadialProfile(dies, 1, p.WaferRadius())
	if len(c) != 1 || len(y) != 1 {
		t.Fatalf("one-bin profile: %d/%d", len(c), len(y))
	}
	var sum float64
	for _, d := range dies {
		sum += d.Total
	}
	if math.Abs(y[0]-sum/float64(len(dies))) > 1e-12 {
		t.Errorf("one-bin mean = %g, want %g", y[0], sum/float64(len(dies)))
	}
}

func TestW2WDieYieldsRejectsInvalid(t *testing.T) {
	p := Baseline()
	p.DefectShape = 1
	if _, err := p.W2WDieYields(); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestW2WDieYieldsHonorsLayout: the per-die map evaluates the same region
// grids as EvaluateW2W, so its mean overlay is Eq. 8's average and every
// recess entry is the layout's recess term (not the uniform grid's).
func TestW2WDieYieldsHonorsLayout(t *testing.T) {
	p := twoPitchParams()
	dies, err := p.W2WDieYields()
	if err != nil {
		t.Fatal(err)
	}
	model, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	var sumOverlay float64
	for _, d := range dies {
		sumOverlay += d.Overlay
		if d.Recess != model.Recess {
			t.Fatalf("die recess %g, want the layout's Y_cr %g", d.Recess, model.Recess)
		}
	}
	if got := sumOverlay / float64(len(dies)); math.Abs(got-model.Overlay) > 1e-12 {
		t.Errorf("mean per-die overlay %g vs layout Eq. 8 %g", got, model.Overlay)
	}
}

// TestW2WDieYieldsGolden pins a digest of every bit of the nil-layout map
// at 0.8 µm pitch (overlay in the informative regime), with uniform and
// radially clustered defects. The digests were captured from the
// single-array map that predates pad layouts.
func TestW2WDieYieldsGolden(t *testing.T) {
	for _, tc := range []struct {
		clustering float64
		want       uint64
	}{
		{0, 0xd738761359057791},
		{3, 0x078dbb6fb600611c},
	} {
		p := Baseline().WithPitch(0.8 * units.Micrometer)
		p.RadialDefectClustering = tc.clustering
		dies, err := p.W2WDieYields()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, d := range dies {
			for _, v := range []float64{d.Overlay, d.Recess, d.Defect, d.Total} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("clustering %g: map digest %016x, want %016x", tc.clustering, got, tc.want)
		}
	}
}
