package defect

import (
	"math"
	"testing"

	"yap/internal/num"
	"yap/internal/randx"
	"yap/internal/units"
	"yap/internal/wafer"
)

// baseline mirrors the Table I defect process.
func baseline() Params {
	return Params{
		Density:      0.1 * units.PerSquareCentimeter,
		MinThickness: 1 * units.Micrometer,
		Shape:        3,
		KR:           1.8e-4 * units.PerSquareRootUm,
		KR0:          230 * units.SquareRootUm,
		KL:           6.2e-2 * units.PerSquareRootUm,
		WaferRadius:  150 * units.Millimeter,
	}
}

func TestValidate(t *testing.T) {
	if err := baseline().Validate(); err != nil {
		t.Errorf("baseline rejected: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.Density = -1 },
		func(p *Params) { p.MinThickness = 0 },
		func(p *Params) { p.Shape = 1.4 },
		func(p *Params) { p.KR = -1 },
		func(p *Params) { p.WaferRadius = 0 },
	}
	for i, mutate := range mutations {
		p := baseline()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestVoidSizeLaws(t *testing.T) {
	p := baseline()
	t0 := p.MinThickness
	// A center particle of minimum thickness: r_mv = k_r0·√t0 = 230 µm.
	if got := p.MainVoidRadius(0, t0); math.Abs(got-230e-6) > 1e-9 {
		t.Errorf("center main void = %v, want 230 µm", units.FormatMeters(got))
	}
	// At the wafer edge: + k_r·R·√t0 = +27 µm.
	if got := p.MainVoidRadius(p.WaferRadius, t0); math.Abs(got-257e-6) > 1e-9 {
		t.Errorf("edge main void = %v, want 257 µm", units.FormatMeters(got))
	}
	// Tail at the edge: k_l·R·√t0 = 9.3 mm — "a few millimeters".
	if got := p.TailLength(p.WaferRadius, t0); math.Abs(got-9.3e-3) > 1e-8 {
		t.Errorf("edge tail = %v, want 9.3 mm", units.FormatMeters(got))
	}
	// Center particles produce no tail.
	if got := p.TailLength(0, t0); got != 0 {
		t.Errorf("center tail = %g, want 0", got)
	}
	// √t scaling: 4× thickness doubles sizes.
	if got, want := p.TailLength(0.1, 4*t0), 2*p.TailLength(0.1, t0); math.Abs(got-want) > 1e-15 {
		t.Errorf("tail √t scaling: %g vs %g", got, want)
	}
}

func TestThicknessPDFNormalized(t *testing.T) {
	p := baseline()
	integral := num.IntegrateToInfinity(p.ThicknessPDF, p.MinThickness, p.MinThickness, 1e-12)
	if math.Abs(integral-1) > 1e-6 {
		t.Errorf("thickness pdf integrates to %g, want 1", integral)
	}
	if p.ThicknessPDF(0.5*p.MinThickness) != 0 {
		t.Error("pdf below t0 should vanish")
	}
}

func TestTailLengthDensityIntegratesToDensity(t *testing.T) {
	// Eq. 18's defining property: ∫ f_l dl = D_t (every particle produces
	// exactly one tail).
	p := baseline()
	knee := p.TailKnee()
	head := num.Integrate(p.TailLengthDensity, 0, knee, 1e-12*p.Density*knee)
	tail := num.IntegrateToInfinity(p.TailLengthDensity, knee, knee, 1e-12*p.Density*knee)
	got := head + tail
	if math.Abs(got-p.Density) > 1e-6*p.Density {
		t.Errorf("∫f_l = %g, want D_t = %g", got, p.Density)
	}
}

func TestTailLengthDensityContinuousAtKnee(t *testing.T) {
	p := baseline()
	knee := p.TailKnee()
	below := p.TailLengthDensity(knee * (1 - 1e-9))
	above := p.TailLengthDensity(knee * (1 + 1e-9))
	if math.Abs(below-above) > 1e-6*below {
		t.Errorf("f_l discontinuous at knee: %g vs %g", below, above)
	}
}

func TestTailLengthPDFMatchesSampling(t *testing.T) {
	// The analytic law (Eq. 18) against the generative process it models:
	// L uniform over the disk, t from the Glang law, l = k_l·L·√t.
	p := baseline()
	rng := randx.NewSource(99)
	const n = 300000
	knee := p.TailKnee()
	h, err := num.NewHistogram(0, 3*knee, 30)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for i := 0; i < n; i++ {
		x, y := rng.InDisk(p.WaferRadius)
		t0 := rng.ParticleThickness(p.MinThickness, p.Shape)
		h.Add(p.TailLength(math.Hypot(x, y), t0))
	}
	for i := range h.Counts {
		if h.Counts[i] < 200 {
			continue // skip bins with large relative sampling error
		}
		got := h.Density(i)
		want := p.TailLengthPDF(h.BinCenter(i))
		// Tolerance: 5 Poisson sigmas of the bin count, floored at 3%.
		tol := math.Max(0.03, 5/math.Sqrt(float64(h.Counts[i])))
		if math.Abs(got-want) > tol*want {
			t.Errorf("bin %d (l=%v): sampled %g, analytic %g",
				i, units.FormatMeters(h.BinCenter(i)), got, want)
		}
	}
}

func TestTailLengthCDFConsistentWithPDF(t *testing.T) {
	p := baseline()
	knee := p.TailKnee()
	for _, x := range []float64{0.2 * knee, 0.7 * knee, knee, 1.5 * knee, 4 * knee} {
		numeric := num.Integrate(p.TailLengthPDF, 0, x, 1e-10)
		if math.Abs(numeric-p.TailLengthCDF(x)) > 1e-6 {
			t.Errorf("CDF(%g·knee): closed %g vs ∫pdf %g", x/knee, p.TailLengthCDF(x), numeric)
		}
	}
	if p.TailLengthCDF(0) != 0 {
		t.Error("CDF(0) != 0")
	}
	if got := p.TailLengthCDF(1e6 * knee); math.Abs(got-1) > 1e-9 {
		t.Errorf("CDF(∞) = %g", got)
	}
}

func TestTailLengthLawPassesKS(t *testing.T) {
	// Distribution-level acceptance: 50k simulated tails against the
	// closed-form CDF must not be rejected by Kolmogorov–Smirnov. This is
	// the strongest form of the Fig. 8a comparison.
	p := baseline()
	rng := randx.NewSource(321)
	const n = 50000
	samples := make([]float64, n)
	for i := range samples {
		x, y := rng.InDisk(p.WaferRadius)
		t0 := rng.ParticleThickness(p.MinThickness, p.Shape)
		samples[i] = p.TailLength(math.Hypot(x, y), t0)
	}
	d, pv := num.KolmogorovSmirnov(samples, p.TailLengthCDF)
	if pv < 0.001 {
		t.Errorf("tail-length law rejected: D = %g, p = %g", d, pv)
	}
}

func TestMeanTailLength(t *testing.T) {
	p := baseline()
	// z = 3: E[l] = (8/9)·knee.
	want := 8.0 / 9 * p.TailKnee()
	if got := p.MeanTailLength(); math.Abs(got-want) > 1e-12 {
		t.Errorf("E[l] = %g, want %g", got, want)
	}
	// Cross-check by integrating l·f_l/D_t.
	f := func(l float64) float64 { return l * p.TailLengthPDF(l) }
	knee := p.TailKnee()
	integral := num.Integrate(f, 0, knee, 1e-12*knee) +
		num.IntegrateToInfinity(f, knee, knee, 1e-12*knee)
	if math.Abs(integral-want) > 1e-4*want {
		t.Errorf("∫l·f_l = %g, want %g", integral, want)
	}
}

func TestLambdaW2WClosedFormVsNumeric(t *testing.T) {
	for _, z := range []float64{2, 2.5, 3} {
		p := baseline()
		p.Shape = z
		for _, die := range [][2]float64{{10e-3, 10e-3}, {5e-3, 8e-3}, {2e-3, 2e-3}} {
			closed := p.LambdaW2W(die[0], die[1])
			numeric := p.LambdaW2WNumeric(die[0], die[1])
			if math.Abs(closed-numeric) > 1e-4*closed {
				t.Errorf("z=%g die=%v: closed %g vs numeric %g", z, die, closed, numeric)
			}
		}
	}
}

func TestLambdaW2WBaselineValue(t *testing.T) {
	// Hand calculation at Table I: D_t·ab = 0.1 and the tail term
	// 8·2/(9π)·D_t·(a+b)·k_l·R·√t₀ ≈ 0.105 ⇒ Λ ≈ 0.205, Y ≈ 0.815.
	p := baseline()
	lambda := p.LambdaW2W(10e-3, 10e-3)
	if math.Abs(lambda-0.205) > 0.005 {
		t.Errorf("Λ = %g, want ≈ 0.205", lambda)
	}
	y := p.YieldW2W(10e-3, 10e-3)
	if math.Abs(y-0.8144) > 0.005 {
		t.Errorf("Y_df = %g, want ≈ 0.814", y)
	}
}

func TestYieldW2WMonotonicity(t *testing.T) {
	p := baseline()
	base := p.YieldW2W(10e-3, 10e-3)
	// Bigger die: lower yield.
	if p.YieldW2W(20e-3, 20e-3) >= base {
		t.Error("larger die should yield less")
	}
	// Cleaner process: higher yield.
	clean := p
	clean.Density = p.Density / 10
	if clean.YieldW2W(10e-3, 10e-3) <= base {
		t.Error("lower defect density should yield more")
	}
	// Zero defects: perfect yield.
	zero := p
	zero.Density = 0
	if got := zero.YieldW2W(10e-3, 10e-3); got != 1 {
		t.Errorf("zero density yield = %g, want 1", got)
	}
}

func TestTenXDefectImprovementNearPerfect(t *testing.T) {
	// §IV-A: a 10× defect-density improvement gives near-perfect bonding
	// yield at all chiplet sizes.
	p := baseline()
	p.Density = 0.01 * units.PerSquareCentimeter
	for _, area := range []float64{10e-6, 50e-6, 100e-6} {
		side := math.Sqrt(area)
		if y := p.YieldW2W(side, side); y < 0.97 {
			t.Errorf("W2W yield at %g mm², 0.01 cm⁻² = %g, want ≥ 0.97", area*1e6, y)
		}
	}
}

func TestMainVoidPDFD2WNormalized(t *testing.T) {
	p := baseline()
	for _, die := range [][2]float64{{10e-3, 10e-3}, {3.16e-3, 3.16e-3}} {
		effR := wafer.EffectiveDieRadius(die[0], die[1])
		rMin := p.KR0 * math.Sqrt(p.MinThickness)
		knee := (p.KR*effR + p.KR0) * math.Sqrt(p.MinThickness)
		f := func(r float64) float64 { return p.MainVoidPDFD2W(r, effR) }
		integral := num.Integrate(f, rMin, knee, 1e-12) +
			num.IntegrateToInfinity(f, knee, knee, 1e-12)
		if math.Abs(integral-1) > 1e-5 {
			t.Errorf("die %v: ∫f_r = %g, want 1", die, integral)
		}
	}
}

func TestMainVoidPDFD2WSupport(t *testing.T) {
	p := baseline()
	effR := wafer.EffectiveDieRadius(10e-3, 10e-3)
	rMin := p.KR0 * math.Sqrt(p.MinThickness)
	if got := p.MainVoidPDFD2W(rMin*0.99, effR); got != 0 {
		t.Errorf("pdf below support = %g", got)
	}
	if got := p.MainVoidPDFD2W(rMin*1.001, effR); got <= 0 {
		t.Errorf("pdf just above r_min = %g, want positive", got)
	}
	// Deep tail decays but stays nonnegative.
	if got := p.MainVoidPDFD2W(rMin*100, effR); got < 0 {
		t.Errorf("tail pdf negative: %g", got)
	}
}

func TestMainVoidPDFD2WMatchesSampling(t *testing.T) {
	p := baseline()
	effR := wafer.EffectiveDieRadius(10e-3, 10e-3)
	rng := randx.NewSource(77)
	const n = 300000
	rMin := p.KR0 * math.Sqrt(p.MinThickness)
	h, err := num.NewHistogram(rMin, 2.2*rMin, 25)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	for i := 0; i < n; i++ {
		x, y := rng.InDisk(effR)
		t0 := rng.ParticleThickness(p.MinThickness, p.Shape)
		h.Add(p.MainVoidRadius(math.Hypot(x, y), t0))
	}
	f := func(r float64) float64 { return p.MainVoidPDFD2W(r, effR) }
	for i := range h.Counts {
		if h.Counts[i] < 300 {
			continue
		}
		got := h.Density(i)
		// The pdf curves sharply near its support edge, so compare the
		// empirical density against the analytic bin average, not the
		// midpoint value.
		lo := h.Min + float64(i)*h.BinWidth()
		want := num.Integrate(f, lo, lo+h.BinWidth(), 1e-9) / h.BinWidth()
		tol := math.Max(0.03, 5/math.Sqrt(float64(h.Counts[i])))
		if math.Abs(got-want) > tol*want {
			t.Errorf("bin %d (r=%v): sampled %g, analytic %g",
				i, units.FormatMeters(h.BinCenter(i)), got, want)
		}
	}
}

func TestMainVoidPDFNoLocationFallback(t *testing.T) {
	p := baseline()
	p.KR = 0 // void size independent of position
	effR := wafer.EffectiveDieRadius(10e-3, 10e-3)
	rMin := p.KR0 * math.Sqrt(p.MinThickness)
	f := func(r float64) float64 { return p.MainVoidPDFD2W(r, effR) }
	integral := num.IntegrateToInfinity(f, rMin, rMin, 1e-12)
	if math.Abs(integral-1) > 1e-5 {
		t.Errorf("k_r = 0 pdf integrates to %g, want 1", integral)
	}
}

func TestCriticalAreaD2WBranches(t *testing.T) {
	a, b, pitch, r1 := 10e-3, 10e-3, 6e-6, 1e-6
	n := 1666 * 1666
	// Tiny void: disjoint per-pad boxes.
	rv := 1e-6 // 2(rv+r1) = 4 µm < 6 µm
	want := 4 * float64(n) * (rv + r1) * (rv + r1)
	if got := CriticalAreaD2W(a, b, pitch, r1, n, rv); math.Abs(got-want) > 1e-12 {
		t.Errorf("disjoint branch = %g, want %g", got, want)
	}
	// Large void: merged envelope.
	rv = 230e-6
	want = (a + 2*(rv+r1)) * (b + 2*(rv+r1))
	if got := CriticalAreaD2W(a, b, pitch, r1, n, rv); math.Abs(got-want) > 1e-12 {
		t.Errorf("merged branch = %g, want %g", got, want)
	}
}

func TestCriticalAreaD2WRoughlyContinuousAtBranch(t *testing.T) {
	// At 2(rv+r1) = p the disjoint boxes tile the array: N·p² ≈ (a+p)(b+p)
	// up to the pad-array/die-edge mismatch. The branch point must not jump
	// by more than that geometric slack.
	a, b, pitch, r1 := 10e-3, 10e-3, 6e-6, 1e-6
	n := 1666 * 1666
	rv := pitch/2 - r1
	below := CriticalAreaD2W(a, b, pitch, r1, n, rv*(1-1e-9))
	above := CriticalAreaD2W(a, b, pitch, r1, n, rv*(1+1e-9))
	if math.Abs(below-above) > 0.01*above {
		t.Errorf("branch jump: %g vs %g", below, above)
	}
}

func TestLambdaD2WBaselineValue(t *testing.T) {
	// Hand estimate: voids ≈ 230 µm ≫ pitch, so Λ ≈ D_t·(a+2r̄)(b+2r̄) with
	// r̄ a √t-weighted effective reach ⇒ Y_df ≈ 0.89 at Table I.
	p := baseline()
	n := 1666 * 1666
	y := p.YieldD2W(10e-3, 10e-3, 6e-6, 1e-6, n)
	if y < 0.85 || y > 0.93 {
		t.Errorf("D2W defect yield = %g, want ≈ 0.89", y)
	}
}

func TestD2WDefectBeatsW2W(t *testing.T) {
	// W2W's void tails make it more particle-sensitive than D2W (§IV-A).
	p := baseline()
	n := 1666 * 1666
	w2w := p.YieldW2W(10e-3, 10e-3)
	d2w := p.YieldD2W(10e-3, 10e-3, 6e-6, 1e-6, n)
	if d2w <= w2w {
		t.Errorf("expected Y_df,D2W (%g) > Y_df,W2W (%g)", d2w, w2w)
	}
}

func TestLambdaD2WScalesWithDensity(t *testing.T) {
	p := baseline()
	n := 1666 * 1666
	l1 := p.LambdaD2W(10e-3, 10e-3, 6e-6, 1e-6, n)
	p.Density *= 3
	l3 := p.LambdaD2W(10e-3, 10e-3, 6e-6, 1e-6, n)
	if math.Abs(l3-3*l1) > 1e-6*l3 {
		t.Errorf("Λ not linear in D_t: %g vs 3·%g", l3, l1)
	}
}

func TestYieldD2WPitchInsensitive(t *testing.T) {
	// §IV-B: defect yield is nearly pitch-independent because voids dwarf
	// the pitch (the critical area stays the merged envelope).
	p := baseline()
	y6 := p.YieldD2W(10e-3, 10e-3, 6e-6, 1e-6, 1666*1666)
	y1 := p.YieldD2W(10e-3, 10e-3, 1e-6, 1e-6/6, 10000*10000)
	if math.Abs(y6-y1) > 0.01 {
		t.Errorf("defect yield moved with pitch: %g vs %g", y6, y1)
	}
}

// TestLambdaD2WDivergesForShapeAtMostTwo: above the knee the D2W
// integrand decays as r^(3−2z), so for z ≤ 2 the kill rate is infinite
// and the defect yield is exactly 0, monotone in z where the unconverged
// quadrature was not; zero density still kills nothing.
func TestLambdaD2WDivergesForShapeAtMostTwo(t *testing.T) {
	n := 1666 * 1666
	for _, z := range []float64{1.6, 1.8, 2.0} {
		p := baseline()
		p.Shape = z
		if l := p.LambdaD2W(10e-3, 10e-3, 6e-6, 1e-6, n); !math.IsInf(l, 1) {
			t.Errorf("z = %g: Λ_D2W = %g, want +Inf", z, l)
		}
		if y := p.YieldD2W(10e-3, 10e-3, 6e-6, 1e-6, n); y != 0 {
			t.Errorf("z = %g: Y_df,D2W = %g, want 0", z, y)
		}
		p.Density = 0
		if l := p.LambdaD2W(10e-3, 10e-3, 6e-6, 1e-6, n); l != 0 {
			t.Errorf("z = %g, no particles: Λ_D2W = %g, want 0", z, l)
		}
	}
	p := baseline()
	p.Shape = 2.2
	if y := p.YieldD2W(10e-3, 10e-3, 6e-6, 1e-6, n); !(y > 0) {
		t.Errorf("z = 2.2: Y_df,D2W = %g, want positive", y)
	}
}
