package core

import (
	"math"
	"strings"
	"testing"

	"yap/internal/units"
)

func TestBaselineMatchesTableI(t *testing.T) {
	p := Baseline()
	checks := []struct {
		name      string
		got, want float64
	}{
		{"pitch", p.Pitch, 6e-6},
		{"top pad", p.TopPadDiameter, 2e-6},
		{"bottom pad", p.BottomPadDiameter, 3e-6},
		{"die width", p.DieWidth, 10e-3},
		{"wafer diameter", p.WaferDiameter, 300e-3},
		{"sigma1", p.RandomMisalignmentSigma, 5e-9},
		{"Tx", p.TranslationX, 5e-9},
		{"rotation", p.Rotation, 0.1e-6},
		{"warpage", p.Warpage, 10e-6},
		{"k_mag", p.KMag, 0.09},
		{"k_ca", p.ContactAreaFraction, 0.75},
		{"k_cd", p.CriticalDistanceFraction, 0.75},
		{"defect density", p.DefectDensity, 1000}, // 0.1 cm⁻² = 1000 m⁻²
		{"t0", p.MinParticleThickness, 1e-6},
		{"z", p.DefectShape, 3},
		{"recess", p.RecessTop, 10e-9},
		{"recess sigma", p.RecessSigma, 1e-9},
		{"roughness", p.Roughness, 1e-9},
		{"adhesion", p.AdhesionEnergy, 1.2},
		{"modulus", p.YoungModulus, 73e9},
		{"dielectric", p.DielectricThickness, 1.5e-6},
		{"k_peel", p.KPeel, 6.55e15},
		{"h0", p.H0, 75e-9},
		{"k_r", p.KRVoid, 0.18},   // 1.8e-4 µm^-1/2 = 0.18 m^-1/2
		{"k_r0", p.KR0Void, 0.23}, // 230 µm^1/2 = 0.23 m^1/2
		{"k_l", p.KLTail, 62},     // 6.2e-2 µm^-1/2 = 62 m^-1/2
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-9*math.Max(math.Abs(c.want), 1e-20) {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
}

func TestBaselineValid(t *testing.T) {
	if err := Baseline().Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero wafer", func(p *Params) { p.WaferDiameter = 0 }},
		{"negative sigma1", func(p *Params) { p.RandomMisalignmentSigma = -1 }},
		{"pad exceeds pitch", func(p *Params) { p.BottomPadDiameter = 7e-6 }},
		{"top pad over bottom", func(p *Params) { p.TopPadDiameter = 4e-6 }},
		{"zero die", func(p *Params) { p.DieWidth = 0 }},
		{"bad z", func(p *Params) { p.DefectShape = 1 }},
		{"anneal below ref", func(p *Params) { p.AnnealTemp = p.RefTemp - 1 }},
		{"die smaller than pitch", func(p *Params) { p.DieWidth, p.DieHeight = 1e-6, 1e-6 }},
		{"bad roughness", func(p *Params) { p.Roughness = -1e-9 }},
	}
	for _, m := range mutations {
		p := Baseline()
		m.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	p := Baseline()
	if got := p.WaferRadius(); got != 0.15 {
		t.Errorf("wafer radius = %g", got)
	}
	if got := p.Magnification(); math.Abs(got-0.9e-6) > 1e-15 {
		t.Errorf("magnification = %g, want 0.9 ppm", got)
	}
	if got := p.CuDensity(); math.Abs(got-0.19635) > 1e-4 {
		t.Errorf("Cu density = %g, want 0.196", got)
	}
	if got := p.PadArray().Pads(); got != 1666*1666 {
		t.Errorf("pads = %d, want %d", got, 1666*1666)
	}
	n := p.Layout().DieCount()
	if n < 550 || n > 707 {
		t.Errorf("die count = %d", n)
	}
}

// TestTotalPads: the pad count of the effective layout is the uniform
// grid's for a nil layout and the per-region sum otherwise.
func TestTotalPads(t *testing.T) {
	p := Baseline()
	if got, want := p.TotalPads(), p.PadArray().Pads(); got != want {
		t.Errorf("nil layout TotalPads = %d, want PadArray's %d", got, want)
	}
	q := twoPitchParams()
	want := 0
	for _, g := range q.RegionGrids() {
		want += g.Grid.Pads()
	}
	if got := q.TotalPads(); got != want || got != 109_583_250 {
		t.Errorf("two-region TotalPads = %d, want the region sum %d (109583250)", got, want)
	}
}

func TestWithPitchSizingRule(t *testing.T) {
	p := Baseline().WithPitch(1e-6)
	if p.Pitch != 1e-6 {
		t.Errorf("pitch = %g", p.Pitch)
	}
	if math.Abs(p.BottomPadDiameter-0.5e-6) > 1e-18 {
		t.Errorf("bottom pad = %g, want p/2", p.BottomPadDiameter)
	}
	if math.Abs(p.TopPadDiameter-1e-6/3) > 1e-18 {
		t.Errorf("top pad = %g, want p/3", p.TopPadDiameter)
	}
	// The rule reproduces Table I at 6 µm.
	q := Baseline().WithPitch(6e-6)
	if math.Abs(q.BottomPadDiameter-3e-6) > 1e-18 || math.Abs(q.TopPadDiameter-2e-6) > 1e-18 {
		t.Errorf("6 µm sizing: d1=%g d2=%g", q.TopPadDiameter, q.BottomPadDiameter)
	}
}

func TestWithDieAreaAndDensity(t *testing.T) {
	p := Baseline().WithDieArea(50 * units.SquareMillimeter)
	if math.Abs(p.DieWidth*p.DieHeight-50e-6) > 1e-12 {
		t.Errorf("die area = %g", p.DieWidth*p.DieHeight)
	}
	if p.DieWidth != p.DieHeight {
		t.Error("WithDieArea should produce a square die")
	}
	q := Baseline().WithDefectDensity(0.01 * units.PerSquareCentimeter)
	if q.DefectDensity != 100 {
		t.Errorf("defect density = %g", q.DefectDensity)
	}
}

func TestEvaluateW2WBaseline(t *testing.T) {
	b, err := Baseline().EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	// Baseline regime: overlay ≈ 1, recess ≈ 0.99, defect-limited ≈ 0.81.
	if b.Overlay < 0.999 {
		t.Errorf("Y_ovl = %g, want ≈ 1", b.Overlay)
	}
	if b.Recess < 0.98 || b.Recess > 1 {
		t.Errorf("Y_cr = %g, want ≈ 0.99", b.Recess)
	}
	if math.Abs(b.Defect-0.814) > 0.01 {
		t.Errorf("Y_df = %g, want ≈ 0.814", b.Defect)
	}
	want := b.Overlay * b.Recess * b.Defect
	if math.Abs(b.Total-want) > 1e-12 {
		t.Errorf("Total = %g, want product %g", b.Total, want)
	}
	if b.Limiter() != "defect" {
		t.Errorf("baseline limiter = %s, want defect", b.Limiter())
	}
}

func TestEvaluateD2WBaseline(t *testing.T) {
	b, err := Baseline().EvaluateD2W()
	if err != nil {
		t.Fatal(err)
	}
	if b.Overlay < 0.999 {
		t.Errorf("Y_ovl = %g", b.Overlay)
	}
	// D2W defect yield beats W2W (no tails).
	w, _ := Baseline().EvaluateW2W()
	if b.Defect <= w.Defect {
		t.Errorf("Y_df,D2W (%g) should exceed Y_df,W2W (%g)", b.Defect, w.Defect)
	}
}

func TestFinePitchRegimes(t *testing.T) {
	// §IV-B shapes: at 1 µm pitch the *additional* W2W loss vs 6 µm comes
	// from Cu recess (defect yield barely moves), D2W becomes
	// overlay-limited, and W2W total beats D2W total.
	p := Baseline().WithPitch(1e-6)
	w, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.EvaluateD2W()
	if err != nil {
		t.Fatal(err)
	}
	w6, err := Baseline().EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if w6.Recess-w.Recess < 0.05 {
		t.Errorf("W2W recess yield should drop markedly at 1 µm: %g → %g", w6.Recess, w.Recess)
	}
	if math.Abs(w6.Defect-w.Defect) > 0.005 {
		t.Errorf("W2W defect yield should be pitch-insensitive: %g → %g", w6.Defect, w.Defect)
	}
	if w6.Overlay-w.Overlay > 0.01 {
		t.Errorf("W2W overlay stays near 1 at 1 µm: %g → %g", w6.Overlay, w.Overlay)
	}
	if d.Limiter() != "overlay" {
		t.Errorf("D2W fine-pitch limiter = %s (%v), want overlay", d.Limiter(), d)
	}
	if w.Total <= d.Total {
		t.Errorf("W2W (%g) should beat D2W (%g) at fine pitch", w.Total, d.Total)
	}
	// Overlay loss in D2W must be substantial, not cosmetic.
	if d.Overlay > 0.9 {
		t.Errorf("D2W fine-pitch overlay yield = %g, expected visible loss", d.Overlay)
	}
}

func TestEvaluateRejectsInvalid(t *testing.T) {
	p := Baseline()
	p.DefectShape = 1
	if _, err := p.EvaluateW2W(); err == nil {
		t.Error("EvaluateW2W accepted invalid params")
	}
	if _, err := p.EvaluateD2W(); err == nil {
		t.Error("EvaluateD2W accepted invalid params")
	}
	if _, _, err := p.SystemYield(1e-3); err == nil {
		t.Error("SystemYield accepted invalid params")
	}
}

func TestSystemYield(t *testing.T) {
	p := Baseline() // 100 mm² chiplets
	y, n, err := p.SystemYield(1000 * units.SquareMillimeter)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("chiplets = %d, want 10", n)
	}
	d, _ := p.EvaluateD2W()
	want := math.Pow(d.Total, 10)
	if math.Abs(y-want) > 1e-12 {
		t.Errorf("Y_sys = %g, want %g", y, want)
	}
}

func TestSystemYieldGrowsWithChipletSize(t *testing.T) {
	// §IV-C: even though Y_D2W decreases with chiplet size, fewer chiplets
	// per system makes Y_sys increase.
	sys := 1000 * units.SquareMillimeter
	var prev float64 = -1
	for _, area := range []float64{10, 50, 100} {
		p := Baseline().WithDieArea(area * units.SquareMillimeter)
		y, _, err := p.SystemYield(sys)
		if err != nil {
			t.Fatal(err)
		}
		if y < prev {
			t.Errorf("Y_sys decreased at %g mm²: %g < %g", area, y, prev)
		}
		prev = y
	}
}

func TestChipletSizeDecreasesDieYield(t *testing.T) {
	// §IV-C: bonding yield drops with chiplet size for both styles.
	var prevW, prevD float64 = 2, 2
	for _, area := range []float64{10, 50, 100} {
		p := Baseline().WithDieArea(area * units.SquareMillimeter)
		w, err := p.EvaluateW2W()
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.EvaluateD2W()
		if err != nil {
			t.Fatal(err)
		}
		if w.Total >= prevW {
			t.Errorf("W2W yield did not drop at %g mm²", area)
		}
		if d.Total >= prevD {
			t.Errorf("D2W yield did not drop at %g mm²", area)
		}
		prevW, prevD = w.Total, d.Total
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{Overlay: 0.9, Recess: 0.8, Defect: 0.7, Total: 0.504}
	s := b.String()
	for _, frag := range []string{"Y_ovl=0.9", "Y_cr=0.8", "Y_df=0.7", "Y=0.504"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestBreakdownLimiter(t *testing.T) {
	cases := []struct {
		b    Breakdown
		want string
	}{
		{Breakdown{Overlay: 0.5, Recess: 0.9, Defect: 0.9}, "overlay"},
		{Breakdown{Overlay: 0.9, Recess: 0.5, Defect: 0.9}, "recess"},
		{Breakdown{Overlay: 0.9, Recess: 0.9, Defect: 0.5}, "defect"},
	}
	for _, c := range cases {
		if got := c.b.Limiter(); got != c.want {
			t.Errorf("Limiter(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}
