package overlay_test

import (
	"fmt"
	"math"
	"testing"

	"yap/internal/core"
	"yap/internal/geom"
	"yap/internal/layout"
	"yap/internal/num"
	"yap/internal/overlay"
	"yap/internal/randx"
	"yap/internal/units"
	"yap/internal/validate"
	"yap/internal/wafer"
)

// d2wCase is one input of the placement quadrature.
type d2wCase struct {
	name             string
	m                overlay.Model
	dieW, dieH, refR float64
	spread           overlay.PlacementSpread
	regions          []overlay.PadRegion
}

// literalDiePOSRegions is DiePOSRegions written out: each region's worst
// corner by the literal loop over the corner norms
// (overlay.LiteralMaxOverRect) and its pad POS straight from
// num.NormalInterval, multiplied in region order.
func literalDiePOSRegions(dist overlay.Distortion, regions []overlay.PadRegion, sigma1 float64) float64 {
	pos := 1.0
	for _, r := range regions {
		s := overlay.LiteralMaxOverRect(dist, r.Rect)
		pos *= num.NormalInterval(-r.Delta-s, r.Delta-s, 0, sigma1)
	}
	return pos
}

// deterministic is DieYieldD2WRegions on the literal region product: c's
// yield without placement spread.
func (c d2wCase) deterministic() float64 {
	dist := c.m.Dist.ScaleToDie(c.refR, wafer.HalfDiagonal(c.dieW, c.dieH))
	return literalDiePOSRegions(dist, c.regions, c.m.Sigma1)
}

// closureInner is the placement integrand written as closures over the
// public pieces: num.ExpectNormal over (T_x, T_y, α) at magnification mag,
// each node building a Distortion, rescaling it with ScaleToDie and
// evaluating the literal region product.
func (c d2wCase) closureInner() func(mag float64) float64 {
	halfDiag := wafer.HalfDiagonal(c.dieW, c.dieH)
	mu := []float64{c.m.Dist.TX, c.m.Dist.TY, c.m.Dist.Rotation}
	sigma := []float64{c.spread.TXSigma, c.spread.TYSigma, c.spread.RotationSigma}
	return func(mag float64) float64 {
		return num.ExpectNormal(func(x []float64) float64 {
			dist := overlay.Distortion{TX: x[0], TY: x[1], Rotation: x[2], Magnification: mag}.
				ScaleToDie(c.refR, halfDiag)
			return literalDiePOSRegions(dist, c.regions, c.m.Sigma1)
		}, mu, sigma)
	}
}

// reference is ExpectedDieYieldD2WRegions written as closures: closureInner
// inside num.ExpectNormalAdaptive over E, split at zero magnification. The
// production quadrature runs the same rules over per-call tables and must
// reproduce this bit for bit.
func (c d2wCase) reference() float64 {
	if c.spread.Zero() {
		return c.deterministic()
	}
	y := num.ExpectNormalAdaptive(c.closureInner(), c.m.Dist.Magnification, c.spread.MagnificationSigma, 0)
	return num.Clamp(y, 0, 1)
}

// yield is the production quadrature's answer for c.
func (c d2wCase) yield() float64 {
	return c.m.ExpectedDieYieldD2WRegions(c.dieW, c.dieH, c.refR, c.spread, c.regions)
}

// caseOf resolves a parameter set to the overlay term's inputs as
// core.Params.EvaluateD2W does.
func caseOf(name string, p core.Params) d2wCase {
	grids := p.RegionGrids()
	regions := make([]overlay.PadRegion, len(grids))
	for i, g := range grids {
		regions[i] = overlay.PadRegion{Rect: g.Grid.Rect, Delta: g.Geometry.MaxMisalignment()}
	}
	return d2wCase{name, p.OverlayModel(), p.DieWidth, p.DieHeight, p.WaferRadius(), p.PlacementSpread(), regions}
}

// checkBits compares the quadrature with the reference bit for bit and
// returns the yield.
func (c d2wCase) checkBits(t *testing.T) float64 {
	t.Helper()
	got, want := c.yield(), c.reference()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: quadrature %v (bits %016x), reference %v (bits %016x)",
			c.name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return got
}

// jitteredParams draws a Table I point with σ₁, warpage and T_x jittered
// by about ±20% and a pad layout of 0 (none), 2 or 8 regions with
// jittered boundaries and region pitches of 6–10 µm.
func jitteredParams(rng *randx.Source, regions int) core.Params {
	const mm, um = units.Millimeter, units.Micrometer
	p := core.Baseline()
	p.RandomMisalignmentSigma = rng.Uniform(4, 6) * units.Nanometer
	p.Warpage = rng.Uniform(8, 12) * um
	p.TranslationX = rng.Uniform(4, 6) * units.Nanometer
	var l layout.Layout
	switch regions {
	case 2:
		split := rng.Uniform(-1, 1) * mm
		l.Regions = []layout.Region{
			{Name: "core", X0: -5 * mm, Y0: -5 * mm, X1: split, Y1: 5 * mm},
			{Name: "io", X0: split, Y0: -5 * mm, X1: 5 * mm, Y1: 5 * mm, Pitch: float64(7+rng.IntN(4)) * um},
		}
	case 8:
		l.Regions = jitteredBlocks(rng, func() float64 { return float64(6+rng.IntN(5)) * um })
	}
	if regions > 0 {
		p.PadLayout = &l
	}
	return p
}

// jitteredBlocks splits the 10 mm Table I die into 4 × 2 regions with
// jittered boundaries, each at the pitch pitch draws.
func jitteredBlocks(rng *randx.Source, pitch func() float64) []layout.Region {
	const mm = units.Millimeter
	xs := []float64{-5 * mm, (-2.5 + rng.Uniform(-0.3, 0.3)) * mm, rng.Uniform(-0.3, 0.3) * mm, (2.5 + rng.Uniform(-0.3, 0.3)) * mm, 5 * mm}
	ys := []float64{-5 * mm, rng.Uniform(-0.5, 0.5) * mm, 5 * mm}
	var out []layout.Region
	for j := 0; j < 2; j++ {
		for i := 0; i < 4; i++ {
			out = append(out, layout.Region{
				Name: fmt.Sprintf("b%d%d", j, i),
				X0:   xs[i], Y0: ys[j], X1: xs[i+1], Y1: ys[j+1],
				Pitch: pitch(),
			})
		}
	}
	return out
}

// fineLayoutParams draws a Table I point at a die pitch of 0.6–1.2 µm and
// a warpage of 8–30 µm with a pad layout of 2 or 8 regions, jittered as in
// jitteredParams, each region at its own pitch of 0.6–1.2 µm with pads of a
// third and a half of it: layouts whose D2W overlay yield is informative.
func fineLayoutParams(rng *randx.Source, regions int) core.Params {
	const mm, um = units.Millimeter, units.Micrometer
	p := core.Baseline().WithPitch(rng.Uniform(0.6, 1.2) * um)
	p.Warpage = rng.Uniform(8, 30) * um
	var l layout.Layout
	if regions == 2 {
		split := rng.Uniform(-1, 1) * mm
		l.Regions = []layout.Region{
			{Name: "core", X0: -5 * mm, Y0: -5 * mm, X1: split, Y1: 5 * mm, Pitch: rng.Uniform(0.6, 1.2) * um},
			{Name: "io", X0: split, Y0: -5 * mm, X1: 5 * mm, Y1: 5 * mm, Pitch: rng.Uniform(0.6, 1.2) * um},
		}
	} else {
		l.Regions = jitteredBlocks(rng, func() float64 { return rng.Uniform(0.6, 1.2) * um })
	}
	for i := range l.Regions {
		r := &l.Regions[i]
		r.TopPadDiameter, r.BottomPadDiameter = r.Pitch/3, r.Pitch/2
	}
	p.PadLayout = &l
	return p
}

// jitteredCases are the first n jitteredParams points of seed 1, cycling
// through 0, 2 and 8 regions: the benchmark's kind of points, whose D2W
// overlay yield saturates at 1.
func jitteredCases(n int) []d2wCase {
	rng := randx.NewSource(1)
	out := make([]d2wCase, n)
	for i := range out {
		regions := []int{0, 2, 8}[i%3]
		out[i] = caseOf(fmt.Sprintf("r%d/%d", regions, i), jitteredParams(rng, regions))
	}
	return out
}

// finePitchCases are the 18 Table I points at 0.6–1.2 µm pitch and 10,
// 20 and 40 µm warpage, where the D2W overlay yield is informative.
func finePitchCases() []d2wCase {
	var out []d2wCase
	for _, pitch := range []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.2} {
		for _, warp := range []float64{10, 20, 40} {
			p := core.Baseline().WithPitch(pitch * units.Micrometer)
			p.Warpage = warp * units.Micrometer
			out = append(out, caseOf(fmt.Sprintf("pitch%.1fum/warp%.0fum", pitch, warp), p))
		}
	}
	return out
}

// sampleCases are the sets of validate.SampleParams(core.Baseline(), 1,
// 300) that keep reports true.
func sampleCases(keep func(i int) bool) []d2wCase {
	var out []d2wCase
	for i, p := range validate.SampleParams(core.Baseline(), 1, 300) {
		if keep(i) {
			out = append(out, caseOf(fmt.Sprintf("set%d", i), p))
		}
	}
	return out
}

// zeroSigmaCases are the 0.8 µm pitch point at 20 µm warpage, a 2- and an
// 8-region jittered point and stressedCase, each as is and with each of its
// four spreads zeroed in turn.
func zeroSigmaCases() []d2wCase {
	fine := core.Baseline().WithPitch(0.8 * units.Micrometer)
	fine.Warpage = 20 * units.Micrometer
	rng := randx.NewSource(2)
	var out []d2wCase
	for _, c := range []d2wCase{
		caseOf("pitch0.8um", fine),
		caseOf("r2", jitteredParams(rng, 2)),
		caseOf("r8", jitteredParams(rng, 8)),
		stressedCase(),
	} {
		out = append(out, c)
		out = append(out, zeroEachSigma(c)...)
	}
	return out
}

// gridCases are Table I points on a pitch × warpage grid, 0.5–1.4 µm in
// 0.1 µm steps by 5–30 µm in 3.125 µm steps, that keep reports true.
func gridCases(keep func(i, j int) bool) []d2wCase {
	var out []d2wCase
	for i := 0; i < 10; i++ {
		for j := 0; j < 9; j++ {
			if !keep(i, j) {
				continue
			}
			pitch, warp := 0.5+0.1*float64(i), 5+3.125*float64(j)
			p := core.Baseline().WithPitch(pitch * units.Micrometer)
			p.Warpage = warp * units.Micrometer
			out = append(out, caseOf(fmt.Sprintf("grid/pitch%.1fum/warp%.3gum", pitch, warp), p))
		}
	}
	return out
}

// fineLayoutCases are the first n fineLayoutParams points of seed 5,
// alternating 2 and 8 regions.
func fineLayoutCases(n int) []d2wCase {
	rng := randx.NewSource(5)
	out := make([]d2wCase, n)
	for i := range out {
		regions := []int{2, 8}[i%2]
		out[i] = caseOf(fmt.Sprintf("fine-r%d/%d", regions, i), fineLayoutParams(rng, regions))
	}
	return out
}

// zeroEachSigma returns c with each of its four spreads zeroed in turn.
func zeroEachSigma(c d2wCase) []d2wCase {
	out := make([]d2wCase, 4)
	for i := range out {
		z := c
		switch i {
		case 0:
			z.spread.TXSigma = 0
		case 1:
			z.spread.TYSigma = 0
		case 2:
			z.spread.RotationSigma = 0
		case 3:
			z.spread.MagnificationSigma = 0
		}
		z.name = fmt.Sprintf("%s/zero-sigma-%d", c.name, i)
		out[i] = z
	}
	return out
}

// TestD2WQuadratureMatchesReference: the table-driven placement
// quadrature is the closure integrator bit for bit on the benchmark's kind
// of points (saturated), on the fine-pitch and sampled points where the
// yield is informative, and with each spread zero in turn. Both run the
// same outer magnification rule, so this pins the Gauss–Hermite tensor over
// the tables. It checks that the informative regime is actually reached.
func TestD2WQuadratureMatchesReference(t *testing.T) {
	var informative int
	for _, set := range []struct {
		name  string
		cases []d2wCase
	}{
		{"jittered", jitteredCases(12)},
		{"fine-pitch", finePitchCases()},
		{"sample300", sampleCases(func(int) bool { return true })},
		{"zero-sigma", zeroSigmaCases()},
	} {
		t.Run(set.name, func(t *testing.T) {
			for _, c := range set.cases {
				if y := c.checkBits(t); y > 0 && y < 1 {
					informative++
				}
			}
		})
	}
	t.Logf("%d compared yields lie strictly inside (0, 1)", informative)
	if informative < 50 {
		t.Errorf("only %d compared yields lie strictly inside (0, 1); the comparison no longer reaches the informative regime", informative)
	}
}

// glNodes8 and glWeights8 are the positive half of the 8-point
// Gauss–Legendre rule on [−1, 1].
var (
	glNodes8   = [4]float64{0.1834346424956498, 0.5255324099163290, 0.7966664774136267, 0.9602898564975363}
	glWeights8 = [4]float64{0.3626837833783620, 0.3137066458778873, 0.2223810344533745, 0.1012285362903763}
)

// converged is c's placement-averaged yield by a fixed rule independent
// of num.ExpectNormalAdaptive: closureInner times the standard normal
// density, integrated over z = (E − µ)/σ ∈ [−7, 7] by composite 8-point
// Gauss–Legendre on panels equal panels and divided by the window's mass.
func (c d2wCase) converged(panels int) float64 {
	if c.spread.Zero() {
		return c.deterministic()
	}
	g := c.closureInner()
	mu, sigma := c.m.Dist.Magnification, c.spread.MagnificationSigma
	if sigma == 0 {
		return num.Clamp(g(mu), 0, 1)
	}
	h := 14 / float64(panels)
	var sum float64
	for p := 0; p < panels; p++ {
		mid := -7 + (float64(p)+0.5)*h
		for i, x := range glNodes8 {
			for _, z := range [2]float64{mid - x*h/2, mid + x*h/2} {
				sum += glWeights8[i] * g(mu+sigma*z) * math.Exp(-z*z/2)
			}
		}
	}
	mass := 1 - math.Erfc(7/math.Sqrt2)
	return num.Clamp(sum*h/2/math.Sqrt(2*math.Pi)/mass, 0, 1)
}

// referencePanels is the panel count of the converged reference in
// TestD2WPlacementAccuracy; TestD2WConvergedReference checks it against a
// grid four times finer.
const referencePanels = 100

// sampleMisses are the sets of the 300-set sample on which the adaptive
// Simpson rule in x that preceded the probability-space rule was off by
// more than 1e-6.
var sampleMisses = map[int]bool{60: true, 67: true, 99: true, 230: true, 265: true, 295: true}

// TestD2WPlacementAccuracy: the placement-averaged yield is within 1e-6 of
// the converged fixed-grid reference on the saturated jittered points, the
// fine-pitch points, the 300-set sample, the stressed and zero-σ inputs, a
// fine pitch × warpage grid and fine-pitch layouts of 2 and 8 regions. The
// sample, grid and layout sets are thinned to keep the package's tests
// fast; the thinned sample keeps every sampleMisses set.
func TestD2WPlacementAccuracy(t *testing.T) {
	const tol = 1e-6
	for _, set := range []struct {
		name  string
		cases []d2wCase
	}{
		{"jittered", jitteredCases(6)},
		{"fine-pitch", finePitchCases()},
		{"sample300", sampleCases(func(i int) bool { return i%10 == 0 || sampleMisses[i] })},
		{"zero-sigma", zeroSigmaCases()},
		{"grid", gridCases(func(i, j int) bool { return (i+j)%3 == 0 })},
		{"fine-layouts", fineLayoutCases(8)},
	} {
		t.Run(set.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range set.cases {
				got, want := c.yield(), c.converged(referencePanels)
				if d := math.Abs(got - want); d > tol {
					t.Errorf("%s: yield %.10g, converged reference %.10g (|Δ| = %.2g > %g)", c.name, got, want, d, tol)
				}
			}
		})
	}
}

// TestD2WConvergedReference: the reference of TestD2WPlacementAccuracy
// agrees with a grid four times finer, within a hundredth of the accuracy
// it checks, at the golden pin point and where the survival window is
// narrowest.
func TestD2WConvergedReference(t *testing.T) {
	for _, c := range finePitchCases() {
		if c.name != "pitch0.6um/warp20um" && c.name != "pitch0.7um/warp20um" && c.name != "pitch0.8um/warp10um" {
			continue
		}
		coarse, fine := c.converged(referencePanels), c.converged(4*referencePanels)
		if d := math.Abs(coarse - fine); d > 1e-8 {
			t.Errorf("%s: %d panels %.12g, %d panels %.12g (|Δ| = %.2g)", c.name, referencePanels, coarse, 4*referencePanels, fine, d)
		}
	}
}

// stressedCase is the input of the package's region pin
// (TestD2WRegionsSingleRegionBitIdentical): yields strictly inside (0, 1)
// at a 57.5 mm reference radius.
func stressedCase() d2wCase {
	m := overlay.Model{
		Pads: overlay.PadGeometry{
			Pitch: 6 * units.Micrometer, TopDiameter: 2 * units.Micrometer, BottomDiameter: 3 * units.Micrometer,
			ContactAreaFraction: 0.75, CriticalDistanceFraction: 0.75,
		},
		Dist: overlay.Distortion{
			TX: 5 * units.Nanometer, TY: 5 * units.Nanometer,
			Rotation: 0.1 * units.Microradian, Magnification: 17 * units.PPM,
		},
		Sigma1: 5 * units.Nanometer,
	}
	const die = 0.01
	pads := wafer.PadArrayFor(die, die, m.Pads.Pitch)
	return d2wCase{
		name: "stressed", m: m, dieW: die, dieH: die, refR: 0.0575,
		spread: overlay.PlacementSpread{
			TXSigma: 10 * units.Nanometer, TYSigma: 10 * units.Nanometer,
			RotationSigma: 0.05 * units.Microradian, MagnificationSigma: 0.27 * units.PPM,
		},
		regions: []overlay.PadRegion{{Rect: pads.Rect, Delta: m.Delta()}},
	}
}

// TestD2WQuadratureAllocations reports the quadrature's allocations per
// call: its tables are one allocation per call and no node allocates, so
// the count does not grow with the layout's region count.
func TestD2WQuadratureAllocations(t *testing.T) {
	rng := randx.NewSource(3)
	var counts []float64
	for _, regions := range []int{0, 2, 8} {
		c := caseOf(fmt.Sprintf("r%d", regions), jitteredParams(rng, regions))
		allocs := testing.AllocsPerRun(3, func() {
			c.m.ExpectedDieYieldD2WRegions(c.dieW, c.dieH, c.refR, c.spread, c.regions)
		})
		t.Logf("%s: %v allocations per call", c.name, allocs)
		counts = append(counts, allocs)
	}
	if counts[1] != counts[0] || counts[2] != counts[0] {
		t.Errorf("allocations per call vary with the region count: %v", counts)
	}
	if counts[0] > 1 {
		t.Errorf("%v allocations per call, want at most 1 (the tables)", counts[0])
	}
}

// fuzzRegions splits rect into n = 1, 2 or 8 regions with boundaries jittered
// by j ∈ [−1, 1], the i-th region at δ·(1 + i/20).
func fuzzRegions(rect geom.Rect, n int, j, delta float64) []overlay.PadRegion {
	w, h := rect.Width(), rect.Height()
	var rects []geom.Rect
	switch n {
	case 1:
		rects = []geom.Rect{rect}
	case 2:
		x := rect.X0 + (0.5+0.2*j)*w
		rects = []geom.Rect{{X0: rect.X0, Y0: rect.Y0, X1: x, Y1: rect.Y1}, {X0: x, Y0: rect.Y0, X1: rect.X1, Y1: rect.Y1}}
	default:
		xs := []float64{rect.X0, rect.X0 + (0.25+0.03*j)*w, rect.X0 + (0.5-0.03*j)*w, rect.X0 + (0.75+0.02*j)*w, rect.X1}
		ys := []float64{rect.Y0, rect.Y0 + (0.5+0.05*j)*h, rect.Y1}
		for yi := 0; yi < 2; yi++ {
			for xi := 0; xi < 4; xi++ {
				rects = append(rects, geom.Rect{X0: xs[xi], Y0: ys[yi], X1: xs[xi+1], Y1: ys[yi+1]})
			}
		}
	}
	out := make([]overlay.PadRegion, len(rects))
	for i, r := range rects {
		out[i] = overlay.PadRegion{Rect: r, Delta: delta * (1 + float64(i)/20)}
	}
	return out
}

// FuzzExpectedDieYieldD2WRegions: on any inputs in a generous physical
// range (others are folded into it), the placement quadrature is the
// closure integrator bit for bit. The region layouts are the pitch-aligned
// pad array of the die split into 1, 2 or 8 regions.
func FuzzExpectedDieYieldD2WRegions(f *testing.F) {
	// layout selects 1, 2 or 8 regions (0, 1, 2 mod 3).
	add := func(layout uint8, jitter, pitch, die, refR, sigma1, delta float64, d overlay.Distortion, s overlay.PlacementSpread) {
		f.Add(layout, jitter, pitch, die, refR, sigma1, delta, d.TX, d.TY, d.Rotation, d.Magnification,
			s.TXSigma, s.TYSigma, s.RotationSigma, s.MagnificationSigma)
	}
	sc := stressedCase()
	for _, p := range []core.Params{core.Baseline().WithPitch(0.8 * units.Micrometer), core.Baseline()} {
		m := p.OverlayModel()
		for layout := uint8(0); layout < 3; layout++ {
			add(layout, 0.3, p.Pitch, p.DieWidth, p.WaferRadius(), m.Sigma1, m.Delta(), m.Dist, p.PlacementSpread())
			add(layout, -0.6, sc.m.Pads.Pitch, sc.dieW, sc.refR, sc.m.Sigma1, sc.m.Delta(), sc.m.Dist, sc.spread)
		}
		for _, z := range zeroEachSigma(caseOf("", p)) {
			add(1, 0, p.Pitch, p.DieWidth, p.WaferRadius(), m.Sigma1, m.Delta(), m.Dist, z.spread)
		}
	}
	for _, z := range zeroEachSigma(sc) {
		add(2, 0.9, sc.m.Pads.Pitch, sc.dieW, sc.refR, sc.m.Sigma1, sc.m.Delta(), sc.m.Dist, z.spread)
	}
	f.Fuzz(func(t *testing.T, layout uint8, jitter, pitch, die, refR, sigma1, delta, tx, ty, rot, mag, txS, tyS, rotS, magS float64) {
		// fit keeps a value inside [lo, hi] and folds any other into it.
		fit := func(v *float64, lo, hi float64) {
			switch {
			case math.IsNaN(*v) || math.IsInf(*v, 0):
				*v = lo
			case *v < lo || *v > hi:
				*v = lo + math.Mod(math.Abs(*v), hi-lo)
			}
		}
		fit(&jitter, -1, 1)
		fit(&pitch, 0.1e-6, 100e-6)
		fit(&die, 0, 0.05)
		fit(&refR, 0, 0.5)
		fit(&sigma1, 0, 1e-7)
		fit(&delta, -1e-6, 1e-5)
		for _, v := range []*float64{&tx, &ty} {
			fit(v, -1e-6, 1e-6)
		}
		fit(&rot, -1e-4, 1e-4)
		fit(&mag, -1e-3, 1e-3)
		for _, v := range []*float64{&txS, &tyS} {
			fit(v, 0, 1e-6)
		}
		fit(&rotS, 0, 1e-4)
		fit(&magS, 0, 1e-3)
		c := d2wCase{
			name: "fuzz",
			m:    overlay.Model{Dist: overlay.Distortion{TX: tx, TY: ty, Rotation: rot, Magnification: mag}, Sigma1: sigma1},
			dieW: die, dieH: die, refR: refR,
			spread:  overlay.PlacementSpread{TXSigma: txS, TYSigma: tyS, RotationSigma: rotS, MagnificationSigma: magS},
			regions: fuzzRegions(wafer.PadArrayFor(die, die, pitch).Rect, []int{1, 2, 8}[layout%3], jitter, delta),
		}
		c.checkBits(t)
	})
}

// BenchmarkD2WPlacement times the placement quadrature on one jittered
// Table I point per region class and on the 0.8 µm pitch pin point, whose
// yield (0.333) is informative rather than saturated.
func BenchmarkD2WPlacement(b *testing.B) {
	rng := randx.NewSource(4)
	cases := []d2wCase{
		caseOf("r0", jitteredParams(rng, 0)),
		caseOf("r2", jitteredParams(rng, 2)),
		caseOf("r8", jitteredParams(rng, 8)),
		caseOf("pitch0.8um", core.Baseline().WithPitch(0.8*units.Micrometer)),
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.m.ExpectedDieYieldD2WRegions(c.dieW, c.dieH, c.refR, c.spread, c.regions)
			}
		})
	}
}

// sinkYield keeps the benchmarked yields live.
var sinkYield float64

// BenchmarkW2WWaferOverlay times Eq. 8's wafer sum, the W2W overlay term,
// on a jittered Table I point without a pad layout and with 8 regions, and
// on the 0.8 µm pitch point, whose yield is informative.
func BenchmarkW2WWaferOverlay(b *testing.B) {
	rng := randx.NewSource(4)
	for _, pc := range []struct {
		name string
		p    core.Params
	}{
		{"r0", jitteredParams(rng, 0)},
		{"r8", jitteredParams(rng, 8)},
		{"pitch0.8um", core.Baseline().WithPitch(0.8 * units.Micrometer)},
	} {
		c, lay := caseOf(pc.name, pc.p), pc.p.Layout()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkYield = c.m.WaferYieldW2WRegions(lay, c.regions)
			}
		})
	}
}
