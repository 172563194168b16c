package overlay

import (
	"math"
	"testing"

	"yap/internal/geom"
	"yap/internal/num"
	"yap/internal/randx"
	"yap/internal/units"
	"yap/internal/wafer"
)

// basePads is the Table I pad stack: 6 µm pitch, 2/3 µm pads, k = 0.75.
func basePads() PadGeometry {
	return PadGeometry{
		Pitch:                    6 * units.Micrometer,
		TopDiameter:              2 * units.Micrometer,
		BottomDiameter:           3 * units.Micrometer,
		ContactAreaFraction:      0.75,
		CriticalDistanceFraction: 0.75,
	}
}

func TestPadGeometryValidate(t *testing.T) {
	if err := basePads().Validate(); err != nil {
		t.Errorf("baseline rejected: %v", err)
	}
	mutations := []func(*PadGeometry){
		func(g *PadGeometry) { g.Pitch = 0 },
		func(g *PadGeometry) { g.TopDiameter = 0 },
		func(g *PadGeometry) { g.BottomDiameter = -1 },
		func(g *PadGeometry) { g.TopDiameter = 4 * units.Micrometer },    // d1 > d2
		func(g *PadGeometry) { g.BottomDiameter = 7 * units.Micrometer }, // d2 > p
		func(g *PadGeometry) { g.ContactAreaFraction = 0 },
		func(g *PadGeometry) { g.ContactAreaFraction = 1.5 },
		func(g *PadGeometry) { g.CriticalDistanceFraction = -0.1 },
	}
	for i, mutate := range mutations {
		g := basePads()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDeltaCriticalDistanceClosedForm(t *testing.T) {
	// δ_cd = (1−k_cd)p − d1/2 + (k_cd−1/2)d2 = 0.25·6 − 1 + 0.25·3 = 1.25 µm.
	g := basePads()
	want := 1.25 * units.Micrometer
	if got := g.DeltaCriticalDistance(); math.Abs(got-want) > 1e-12 {
		t.Errorf("δ_cd = %g, want %g", got, want)
	}
}

func TestDeltaContactAreaSatisfiesConstraint(t *testing.T) {
	g := basePads()
	delta := g.DeltaContactArea()
	r1 := g.TopRadius()
	target := g.ContactAreaFraction * math.Pi * r1 * r1
	// At δ_ca the contact area equals the constraint.
	got := g.ContactArea(delta)
	if math.Abs(got-target) > 1e-6*target {
		t.Errorf("S_ovl(δ_ca) = %g, want %g", got, target)
	}
	// Just inside, the constraint holds; just outside, it fails.
	if g.ContactArea(delta*0.999) < target {
		t.Error("contact area below target inside δ_ca")
	}
	if g.ContactArea(delta*1.001) > target {
		t.Error("contact area above target outside δ_ca")
	}
}

func TestDeltaContactAreaFullOverlapWindow(t *testing.T) {
	// For k_ca ≤ 1, δ_ca is always at least the containment range r2−r1.
	g := basePads()
	if got := g.DeltaContactArea(); got < g.BottomRadius()-g.TopRadius() {
		t.Errorf("δ_ca = %g below containment bound", got)
	}
	// k_ca = 1: δ_ca collapses to exactly the containment bound.
	g.ContactAreaFraction = 1
	want := g.BottomRadius() - g.TopRadius()
	if got := g.DeltaContactArea(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("δ_ca(k_ca=1) = %g, want %g", got, want)
	}
}

func TestMaxMisalignmentIsMin(t *testing.T) {
	g := basePads()
	want := math.Min(g.DeltaContactArea(), g.DeltaCriticalDistance())
	if got := g.MaxMisalignment(); got != want {
		t.Errorf("δ = %g, want min(%g, %g)", got, g.DeltaContactArea(), g.DeltaCriticalDistance())
	}
}

func TestFinePitchDeltaRegime(t *testing.T) {
	// At 1 µm pitch with d2 = p/2, d1 = p/3, δ lands near 165 nm — the
	// regime where Table I distortions produce visible D2W yield loss.
	g := PadGeometry{
		Pitch:                    1 * units.Micrometer,
		TopDiameter:              1.0 / 3 * units.Micrometer,
		BottomDiameter:           0.5 * units.Micrometer,
		ContactAreaFraction:      0.75,
		CriticalDistanceFraction: 0.75,
	}
	delta := g.MaxMisalignment()
	if delta < 120*units.Nanometer || delta > 220*units.Nanometer {
		t.Errorf("fine-pitch δ = %v, want ~165 nm", units.FormatMeters(delta))
	}
}

func TestMagnificationFromWarpage(t *testing.T) {
	// Table I: k_mag = 0.09 m⁻¹, B = 10 µm ⇒ E = 0.9 ppm.
	got := MagnificationFromWarpage(0.09, 10*units.Micrometer)
	if math.Abs(got-0.9e-6) > 1e-12 {
		t.Errorf("E = %g, want 0.9e-6", got)
	}
}

func TestDistortionDisplacement(t *testing.T) {
	d := Distortion{TX: 1e-9, TY: 2e-9, Rotation: 1e-6, Magnification: 2e-6}
	p := geom.Vec2{X: 0.1, Y: 0.05}
	got := d.Displacement(p)
	wantX := 1e-9 - 1e-6*0.05 + 2e-6*0.1
	wantY := 2e-9 + 1e-6*0.1 + 2e-6*0.05
	if math.Abs(got.X-wantX) > 1e-18 || math.Abs(got.Y-wantY) > 1e-18 {
		t.Errorf("displacement = %v, want (%g, %g)", got, wantX, wantY)
	}
}

func TestDistortionMagnitudeAtOrigin(t *testing.T) {
	d := Distortion{TX: 3e-9, TY: 4e-9, Rotation: 5e-6, Magnification: 5e-6}
	// At the origin rotation and magnification vanish: s = |(TX, TY)|.
	if got := d.Magnitude(geom.Vec2{}); math.Abs(got-5e-9) > 1e-18 {
		t.Errorf("s(0,0) = %g, want 5e-9", got)
	}
}

func TestMaxOverRectMatchesDenseGrid(t *testing.T) {
	d := Distortion{TX: 5e-9, TY: -3e-9, Rotation: 2e-6, Magnification: 1e-6}
	r := geom.Rect{X0: -0.004, Y0: -0.005, X1: 0.006, Y1: 0.003}
	got := d.MaxOverRect(r)
	want := 0.0
	const steps = 200
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			p := geom.Vec2{
				X: r.X0 + float64(i)/steps*r.Width(),
				Y: r.Y0 + float64(j)/steps*r.Height(),
			}
			if s := d.Magnitude(p); s > want {
				want = s
			}
		}
	}
	if got < want-1e-15 {
		t.Errorf("MaxOverRect = %g below dense-grid max %g", got, want)
	}
	if got > want*1.0001 {
		t.Errorf("MaxOverRect = %g implausibly above grid max %g", got, want)
	}
}

func TestMinOverRectNullPointInside(t *testing.T) {
	// Pure magnification: the null point is the origin; any rect containing
	// it has zero minimum.
	d := Distortion{Magnification: 1e-6}
	r := geom.Rect{X0: -0.01, Y0: -0.01, X1: 0.01, Y1: 0.01}
	if got := d.MinOverRect(r); got != 0 {
		t.Errorf("min with interior null point = %g, want 0", got)
	}
}

func TestMinOverRectMatchesDenseGrid(t *testing.T) {
	cases := []struct {
		d Distortion
		r geom.Rect
	}{
		{Distortion{TX: 5e-9, TY: -3e-9, Rotation: 2e-6, Magnification: 1e-6},
			geom.Rect{X0: 0.002, Y0: 0.001, X1: 0.006, Y1: 0.004}},
		{Distortion{TX: -2e-8, TY: 1e-8, Rotation: -1e-6, Magnification: 3e-6},
			geom.Rect{X0: -0.006, Y0: 0.002, X1: -0.001, Y1: 0.007}},
		{Distortion{TX: 1e-9, TY: 1e-9}, // pure translation
			geom.Rect{X0: 0, Y0: 0, X1: 0.01, Y1: 0.01}},
	}
	for k, c := range cases {
		got := c.d.MinOverRect(c.r)
		want := math.Inf(1)
		const steps = 400
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				p := geom.Vec2{
					X: c.r.X0 + float64(i)/steps*c.r.Width(),
					Y: c.r.Y0 + float64(j)/steps*c.r.Height(),
				}
				if s := c.d.Magnitude(p); s < want {
					want = s
				}
			}
		}
		if got > want+1e-15 {
			t.Errorf("case %d: MinOverRect = %g above grid min %g", k, got, want)
		}
		if got < want*0.99-1e-15 {
			t.Errorf("case %d: MinOverRect = %g implausibly below grid min %g", k, got, want)
		}
	}
}

func TestScaleToDiePreservesEdgeError(t *testing.T) {
	// The marker alignment error at the maximum edge distance is an
	// equipment property: α·R_ref must equal α'·r_die.
	d := Distortion{Rotation: 0.1e-6, Magnification: 0.9e-6}
	refR := 0.15
	dieHalfDiag := wafer.HalfDiagonal(10e-3, 10e-3)
	scaled := d.ScaleToDie(refR, dieHalfDiag)
	if got, want := scaled.Rotation*dieHalfDiag, d.Rotation*refR; math.Abs(got-want) > 1e-18 {
		t.Errorf("rotation edge error %g, want %g", got, want)
	}
	if got, want := scaled.Magnification*dieHalfDiag, d.Magnification*refR; math.Abs(got-want) > 1e-18 {
		t.Errorf("magnification edge error %g, want %g", got, want)
	}
	// Translation is untouched.
	d.TX, d.TY = 5e-9, 7e-9
	scaled = d.ScaleToDie(refR, dieHalfDiag)
	if scaled.TX != d.TX || scaled.TY != d.TY {
		t.Error("translation should not scale")
	}
	// Degenerate half-diagonal: unchanged.
	if got := d.ScaleToDie(refR, 0); got != d {
		t.Error("zero half-diagonal should be identity")
	}
}

func TestPadPOSProperties(t *testing.T) {
	delta, sigma := 1e-6, 5e-9
	// Perfect alignment: probability ≈ 1.
	if got := PadPOS(0, delta, sigma); got < 0.9999 {
		t.Errorf("POS(0) = %g", got)
	}
	// Monotone decreasing in |s|.
	prev := 2.0
	for s := 0.0; s < 2e-6; s += 1e-8 {
		pos := PadPOS(s, delta, sigma)
		if pos > prev+1e-15 {
			t.Fatalf("POS increased at s=%g", s)
		}
		prev = pos
	}
	// s far beyond δ: ≈ 0.
	if got := PadPOS(2e-6, delta, sigma); got > 1e-10 {
		t.Errorf("POS(2δ) = %g", got)
	}
	// Non-positive δ kills the pad.
	if got := PadPOS(0, 0, sigma); got != 0 {
		t.Errorf("POS with δ=0 should be 0, got %g", got)
	}
	// s at exactly δ: the window is half covered.
	if got := PadPOS(delta, delta, sigma); math.Abs(got-0.5) > 1e-6 {
		t.Errorf("POS(s=δ) = %g, want ~0.5", got)
	}
}

// checkPadLaw fails t unless the resolved law, and PadPOS, return
// num.NormalInterval(−δ−s, δ−s, 0, σ₁) bit for bit, and reports whether
// the input took the law's flat lower tail.
func checkPadLaw(t *testing.T, s, delta, sigma1 float64) (flat bool) {
	t.Helper()
	want := num.NormalInterval(-delta-s, delta-s, 0, sigma1)
	l := newPadLaw(delta, sigma1)
	for name, got := range map[string]float64{"padLaw": l.pos(s), "PadPOS": PadPOS(s, delta, sigma1)} {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("s=%v δ=%v σ₁=%v: %s %v (%#x), NormalInterval %v (%#x)",
				s, delta, sigma1, name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	return l.flat && 0 <= s && s <= delta
}

// TestPadLawMatchesNormalInterval: the resolved pad-POS law is
// num.NormalInterval bit for bit for s ∈ {±0, inside (0, δ), δ, the next
// float above δ, inside (δ, 2δ), far above δ, NaN, ±Inf}, with δ/σ₁ on
// both sides of the flat-tail threshold 6√2 (δ within a few ulps of it),
// σ₁ zero, subnormal, normal and NaN, and δ ≤ 0. Both the flat lower tail
// and NormalInterval's own path must be reached, on both sides of the
// threshold.
func TestPadLawMatchesNormalInterval(t *testing.T) {
	rng := randx.NewSource(34)
	negZero := math.Copysign(0, -1)
	var flat, general, flatLaws, otherLaws int
	for _, sigma1 := range []float64{0, negZero, math.SmallestNonzeroFloat64, 3e-320, 1e-310, 5e-9, 2e-7, math.NaN()} {
		deltas := []float64{0, negZero, -1e-7, math.Inf(-1), 1e-9, 165e-9, 1e-6, math.Inf(1), math.NaN()}
		for _, ratio := range []float64{1, 6, 8, 6 * math.Sqrt2, 9, 1e3} {
			for k := -3; k <= 3; k++ {
				deltas = append(deltas, nudge(ratio*sigma1, k))
			}
		}
		for _, delta := range deltas {
			if newPadLaw(delta, sigma1).flat {
				flatLaws++
			} else {
				otherLaws++
			}
			ss := []float64{0, negZero, delta, nudge(delta, 1), nudge(delta, -1), 10 * delta, 1e300,
				math.NaN(), math.Inf(1), math.Inf(-1), -delta, 1e-9}
			for i := 0; i < 8; i++ {
				ss = append(ss, delta*rng.Float64(), delta*(1+rng.Float64()))
			}
			for _, s := range ss {
				if checkPadLaw(t, s, delta, sigma1) {
					flat++
				} else {
					general++
				}
			}
		}
	}
	t.Logf("%d inputs took the flat lower tail, %d NormalInterval; %d flat laws, %d others", flat, general, flatLaws, otherLaws)
	if flat == 0 || general == 0 || flatLaws == 0 || otherLaws == 0 {
		t.Errorf("flat-tail inputs %d, others %d, flat laws %d, others %d: every count must be positive", flat, general, flatLaws, otherLaws)
	}
	// The threshold itself: δ a few ulps either side of 6√2·σ₁ resolves
	// both ways.
	const sigma1 = 5e-9
	var sides [2]int
	for k := -3; k <= 3; k++ {
		if newPadLaw(nudge(6*math.Sqrt2*sigma1, k), sigma1).flat {
			sides[1]++
		} else {
			sides[0]++
		}
	}
	if sides[0] == 0 || sides[1] == 0 {
		t.Errorf("δ within 3 ulps of 6√2·σ₁: %d laws flat, %d not; the cases do not straddle the threshold", sides[1], sides[0])
	}
}

// FuzzPadLaw: on any (s, δ, σ₁) the resolved pad-POS law and PadPOS are
// num.NormalInterval(−δ−s, δ−s, 0, σ₁) bit for bit.
func FuzzPadLaw(f *testing.F) {
	const sigma1 = 5e-9
	edge := 6 * math.Sqrt2 * sigma1
	for _, c := range [][3]float64{
		{0, 165e-9, sigma1},
		{100e-9, 165e-9, sigma1},
		{165e-9, 165e-9, sigma1},
		{nudge(165e-9, 1), 165e-9, sigma1},
		{edge / 2, nudge(edge, -1), sigma1},
		{edge / 2, nudge(edge, 1), sigma1},
		{1e-9, 1e-6, math.SmallestNonzeroFloat64},
		{0, 165e-9, 0},
		{math.NaN(), 0, sigma1},
		{math.Inf(1), math.Inf(1), sigma1},
		{math.Copysign(0, -1), math.Copysign(0, -1), math.NaN()},
	} {
		f.Add(c[0], c[1], c[2])
	}
	f.Fuzz(func(t *testing.T, s, delta, sigma1 float64) {
		checkPadLaw(t, s, delta, sigma1)
	})
}

func TestWaferYieldW2WBaselineNearUnity(t *testing.T) {
	m := Model{
		Pads: basePads(),
		Dist: Distortion{
			TX: 5 * units.Nanometer, TY: 5 * units.Nanometer,
			Rotation:      0.1 * units.Microradian,
			Magnification: 0.9 * units.PPM,
		},
		Sigma1: 5 * units.Nanometer,
	}
	layout := wafer.Layout{WaferRadius: 0.15, DieWidth: 0.01, DieHeight: 0.01}
	y := m.WaferYieldW2W(layout)
	if y < 0.999 || y > 1 {
		t.Errorf("baseline W2W overlay yield = %g, want ≈ 1", y)
	}
}

func TestWaferYieldW2WDegradesWithDistortion(t *testing.T) {
	m := Model{Pads: basePads(), Sigma1: 5 * units.Nanometer}
	layout := wafer.Layout{WaferRadius: 0.15, DieWidth: 0.01, DieHeight: 0.01}
	// Crank magnification until edge dies fail: yield must fall below 1
	// but stay above 0 (center dies survive).
	m.Dist.Magnification = 8e-6 // 8 ppm ⇒ 1.2 µm at the wafer edge > δ
	y := m.WaferYieldW2W(layout)
	if y <= 0 || y >= 0.99 {
		t.Errorf("distorted W2W overlay yield = %g, want interior loss", y)
	}
	// Monotone: more magnification, less yield.
	m2 := m
	m2.Dist.Magnification = 12e-6
	if m2.WaferYieldW2W(layout) > y {
		t.Error("yield increased with magnification")
	}
}

func TestWaferYieldEmptyLayout(t *testing.T) {
	m := Model{Pads: basePads(), Sigma1: 5 * units.Nanometer}
	layout := wafer.Layout{WaferRadius: 0.004, DieWidth: 0.01, DieHeight: 0.01}
	if y := m.WaferYieldW2W(layout); y != 0 {
		t.Errorf("yield on empty layout = %g, want 0", y)
	}
}

func TestDieYieldD2WCenterDieEquivalence(t *testing.T) {
	// A D2W die has the distortion evaluated in its own frame; with scaling
	// disabled (half-diagonal = reference radius) and pure translation the
	// D2W yield equals the translation-only pad POS.
	m := Model{
		Pads:   basePads(),
		Dist:   Distortion{TX: 10 * units.Nanometer},
		Sigma1: 5 * units.Nanometer,
	}
	refR := wafer.HalfDiagonal(10e-3, 10e-3)
	got := m.DieYieldD2W(10e-3, 10e-3, refR)
	want := PadPOS(10*units.Nanometer, m.Pads.MaxMisalignment(), m.Sigma1)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("D2W translation-only yield = %g, want %g", got, want)
	}
}

func TestDieYieldD2WSmallerDieNotBetter(t *testing.T) {
	// With the edge-error-preserving scaling, shrinking the chiplet does
	// not reduce the corner misalignment — D2W yield is roughly
	// size-invariant under pure rotation/magnification (§IV-B).
	m := Model{
		Pads:   basePads(),
		Dist:   Distortion{Rotation: 0.1e-6, Magnification: 0.9e-6},
		Sigma1: 5 * units.Nanometer,
	}
	yLarge := m.DieYieldD2W(10e-3, 10e-3, 0.15)
	ySmall := m.DieYieldD2W(3.16e-3, 3.16e-3, 0.15)
	if math.Abs(yLarge-ySmall) > 1e-3 {
		t.Errorf("D2W overlay yield should be ~size-invariant: %g vs %g", yLarge, ySmall)
	}
}

func TestPadPOS2DVsScalarConvention(t *testing.T) {
	delta := 165 * units.Nanometer
	sigma := 5 * units.Nanometer
	// At zero systematic error: scalar gives 2Φ(δ/σ)−1 ≈ 1, Rice gives
	// 1−exp(−δ²/2σ²) ≈ 1 — indistinguishable at δ ≫ σ.
	if s2 := PadPOS2D(0, delta, sigma); s2 < 0.999999 {
		t.Errorf("2-D POS(0) = %g", s2)
	}
	// Near the cliff (s close to δ) the scalar convention is optimistic.
	for _, s := range []float64{140e-9, 160e-9, 165e-9, 170e-9} {
		scalar := PadPOS(s, delta, sigma)
		twoD := PadPOS2D(s, delta, sigma)
		if twoD > scalar+1e-9 {
			t.Errorf("s=%v: 2-D POS %g exceeds scalar %g", units.FormatMeters(s), twoD, scalar)
		}
	}
	// At s = δ exactly, scalar gives ~0.5 while the Rice magnitude can
	// escape only inward: 2-D is strictly below.
	scalar := PadPOS(delta, delta, sigma)
	twoD := PadPOS2D(delta, delta, sigma)
	if !(twoD < scalar && twoD > 0.3) {
		t.Errorf("at the cliff: scalar %g vs 2-D %g", scalar, twoD)
	}
	// Zero delta kills.
	if PadPOS2D(0, 0, sigma) != 0 {
		t.Error("2-D POS with δ=0 should be 0")
	}
}

func TestDiePOS2DWorstCorner(t *testing.T) {
	dist := Distortion{TX: 50e-9, Magnification: 18e-6}
	rect := geom.Rect{X0: -5e-3, Y0: -5e-3, X1: 5e-3, Y1: 5e-3}
	delta := 165 * units.Nanometer
	sigma := 5 * units.Nanometer
	want := PadPOS2D(LiteralMaxOverRect(dist, rect), delta, sigma)
	if got := DiePOS2D(dist, rect, delta, sigma); got != want {
		t.Errorf("DiePOS2D = %g, want worst-corner %g", got, want)
	}
}

func TestDiePOSExactUpperBoundedByEq7(t *testing.T) {
	// Eq. 7 keeps only the worst pad's window; the exact shared-error POS
	// intersects every pad's window and can only be smaller. In ordinary
	// regimes (δ ≫ σ₁) the two coincide to machine precision.
	dist := Distortion{TX: 50e-9, TY: -20e-9, Rotation: 2e-6, Magnification: 18e-6}
	rect := geom.Rect{X0: -5e-3, Y0: -5e-3, X1: 5e-3, Y1: 5e-3}
	delta := 165 * units.Nanometer
	sigma := 5 * units.Nanometer
	eq7 := DiePOS(dist, rect, delta, sigma)
	exact := DiePOSExact(dist, rect, delta, sigma)
	if eq7 < exact-1e-15 {
		t.Errorf("Eq. 7 (%g) must upper-bound exact (%g)", eq7, exact)
	}
	if eq7-exact > 1e-9 {
		t.Errorf("approximation gap %g too large for δ ≫ σ", eq7-exact)
	}
}

func TestDiePOSExactDivergesWhenSigmaComparableToDelta(t *testing.T) {
	// When σ₁ approaches δ the dropped s_min window side matters: the
	// exact value must fall strictly below Eq. 7's. The magnification term
	// spreads s over the die so that s_min ≠ s_max.
	dist := Distortion{TX: 100e-9, Magnification: 50e-6}
	rect := geom.Rect{X0: -1e-3, Y0: -1e-3, X1: 1e-3, Y1: 1e-3}
	delta := 120 * units.Nanometer
	sigma := 100 * units.Nanometer
	eq7 := DiePOS(dist, rect, delta, sigma)
	exact := DiePOSExact(dist, rect, delta, sigma)
	if eq7-exact < 1e-4 {
		t.Errorf("expected a visible gap in the σ₁≈δ regime: eq7=%g exact=%g", eq7, exact)
	}
}

func TestDiePOSExactZeroDelta(t *testing.T) {
	if got := DiePOSExact(Distortion{}, geom.Rect{X1: 1, Y1: 1}, 0, 1e-9); got != 0 {
		t.Errorf("POS with δ=0 should be 0, got %g", got)
	}
}

func TestExpectedDieYieldD2WZeroSpreadMatchesDeterministic(t *testing.T) {
	m := Model{
		Pads:   basePads(),
		Dist:   Distortion{TX: 5e-9, Rotation: 0.1e-6, Magnification: 0.9e-6},
		Sigma1: 5 * units.Nanometer,
	}
	got := m.ExpectedDieYieldD2W(10e-3, 10e-3, 0.15, PlacementSpread{})
	want := m.DieYieldD2W(10e-3, 10e-3, 0.15)
	if got != want {
		t.Errorf("zero spread expected yield = %g, want deterministic %g", got, want)
	}
}

func TestExpectedDieYieldD2WBounds(t *testing.T) {
	m := Model{
		Pads:   basePads(),
		Dist:   Distortion{TX: 5e-9, TY: 5e-9, Rotation: 0.1e-6, Magnification: 0.9e-6},
		Sigma1: 5 * units.Nanometer,
	}
	spread := PlacementSpread{
		TXSigma: 10e-9, TYSigma: 10e-9,
		RotationSigma:      0.05e-6,
		MagnificationSigma: 0.27e-6,
	}
	y := m.ExpectedDieYieldD2W(10e-3, 10e-3, 0.15, spread)
	if y < 0 || y > 1 {
		t.Errorf("expected yield %g outside [0,1]", y)
	}
	// Averaging over placement spread cannot beat the best-case
	// deterministic yield at zero systematic error.
	best := Model{Pads: m.Pads, Sigma1: m.Sigma1}.DieYieldD2W(10e-3, 10e-3, 0.15)
	if y > best+1e-12 {
		t.Errorf("expected yield %g exceeds zero-error yield %g", y, best)
	}
}

func TestExpectedDieYieldD2WMatchesMonteCarlo(t *testing.T) {
	// The quadrature must agree with brute-force Monte-Carlo placement
	// draws in the hard fine-pitch regime.
	pads := PadGeometry{
		Pitch:                    1 * units.Micrometer,
		TopDiameter:              1.0 / 3 * units.Micrometer,
		BottomDiameter:           0.5 * units.Micrometer,
		ContactAreaFraction:      0.75,
		CriticalDistanceFraction: 0.75,
	}
	m := Model{
		Pads:   pads,
		Dist:   Distortion{TX: 5e-9, TY: 5e-9, Rotation: 0.1e-6, Magnification: 0.9e-6},
		Sigma1: 5 * units.Nanometer,
	}
	spread := PlacementSpread{
		TXSigma: 10e-9, TYSigma: 10e-9,
		RotationSigma:      0.05e-6,
		MagnificationSigma: 0.27e-6,
	}
	got := m.ExpectedDieYieldD2W(10e-3, 10e-3, 0.15, spread)

	// Monte-Carlo reference with deterministic subrandom draws (Halton-ish
	// stratified normal quantiles would be overkill; plain LCG suffices at
	// 200k samples for ~0.3% accuracy).
	padsArr := wafer.PadArrayFor(10e-3, 10e-3, pads.Pitch)
	delta := pads.MaxMisalignment()
	halfDiag := wafer.HalfDiagonal(10e-3, 10e-3)
	var state uint64 = 12345
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	gauss := func() float64 {
		// Box-Muller from two uniforms.
		u1, u2 := next(), next()
		if u1 < 1e-300 {
			u1 = 1e-300
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
	const nMC = 200000
	var sum float64
	for i := 0; i < nMC; i++ {
		dist := Distortion{
			TX:            m.Dist.TX + spread.TXSigma*gauss(),
			TY:            m.Dist.TY + spread.TYSigma*gauss(),
			Rotation:      m.Dist.Rotation + spread.RotationSigma*gauss(),
			Magnification: m.Dist.Magnification + spread.MagnificationSigma*gauss(),
		}.ScaleToDie(0.15, halfDiag)
		sum += DiePOS(dist, padsArr.Rect, delta, m.Sigma1)
	}
	mc := sum / nMC
	if math.Abs(got-mc) > 0.01 {
		t.Errorf("quadrature %g vs Monte-Carlo %g", got, mc)
	}
}
