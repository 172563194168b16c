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

// referenceD2W is ExpectedDieYieldD2WRegions written as closures over the
// public pieces: num.ExpectNormal over (T_x, T_y, α) inside
// num.ExpectNormalAdaptive over E, each node building a Distortion,
// rescaling it with ScaleToDie and evaluating DiePOSRegions. The
// production quadrature runs the same rule over per-call tables and must
// reproduce this bit for bit.
func referenceD2W(m overlay.Model, dieW, dieH, refRadius float64, spread overlay.PlacementSpread, regions []overlay.PadRegion) float64 {
	if spread.Zero() {
		return m.DieYieldD2WRegions(dieW, dieH, refRadius, regions)
	}
	halfDiag := wafer.HalfDiagonal(dieW, dieH)
	muSmooth := []float64{m.Dist.TX, m.Dist.TY, m.Dist.Rotation}
	sigmaSmooth := []float64{spread.TXSigma, spread.TYSigma, spread.RotationSigma}
	pos := func(tx, ty, rot, mag float64) float64 {
		dist := overlay.Distortion{TX: tx, TY: ty, Rotation: rot, Magnification: mag}.
			ScaleToDie(refRadius, halfDiag)
		return overlay.DiePOSRegions(dist, regions, m.Sigma1)
	}
	y := num.ExpectNormalAdaptive(func(mag float64) float64 {
		return num.ExpectNormal(func(x []float64) float64 {
			return pos(x[0], x[1], x[2], mag)
		}, muSmooth, sigmaSmooth)
	}, m.Dist.Magnification, spread.MagnificationSigma)
	return num.Clamp(y, 0, 1)
}

// d2wCase is one input of the placement quadrature.
type d2wCase struct {
	name             string
	m                overlay.Model
	dieW, dieH, refR float64
	spread           overlay.PlacementSpread
	regions          []overlay.PadRegion
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
	got := c.m.ExpectedDieYieldD2WRegions(c.dieW, c.dieH, c.refR, c.spread, c.regions)
	want := referenceD2W(c.m, c.dieW, c.dieH, c.refR, c.spread, c.regions)
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
		xs := []float64{-5 * mm, (-2.5 + rng.Uniform(-0.3, 0.3)) * mm, rng.Uniform(-0.3, 0.3) * mm, (2.5 + rng.Uniform(-0.3, 0.3)) * mm, 5 * mm}
		ys := []float64{-5 * mm, rng.Uniform(-0.5, 0.5) * mm, 5 * mm}
		for j := 0; j < 2; j++ {
			for i := 0; i < 4; i++ {
				l.Regions = append(l.Regions, layout.Region{
					Name: fmt.Sprintf("b%d%d", j, i),
					X0:   xs[i], Y0: ys[j], X1: xs[i+1], Y1: ys[j+1],
					Pitch: float64(6+rng.IntN(5)) * um,
				})
			}
		}
	}
	if regions > 0 {
		p.PadLayout = &l
	}
	return p
}

// finePitchParams are the 18 Table I points at 0.6–1.2 µm pitch and 10,
// 20 and 40 µm warpage, where the D2W overlay yield is informative.
func finePitchParams() map[string]core.Params {
	out := make(map[string]core.Params)
	for _, pitch := range []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.2} {
		for _, warp := range []float64{10, 20, 40} {
			p := core.Baseline().WithPitch(pitch * units.Micrometer)
			p.Warpage = warp * units.Micrometer
			out[fmt.Sprintf("pitch%.1fum/warp%.0fum", pitch, warp)] = p
		}
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
// yield is informative, and with each spread zero in turn. It checks that
// the informative regime is actually reached.
func TestD2WQuadratureMatchesReference(t *testing.T) {
	var informative int
	count := func(y float64) {
		if y > 0 && y < 1 {
			informative++
		}
	}
	t.Run("jittered", func(t *testing.T) {
		rng := randx.NewSource(1)
		for i := 0; i < 12; i++ {
			regions := []int{0, 2, 8}[i%3]
			c := caseOf(fmt.Sprintf("r%d/%d", regions, i), jitteredParams(rng, regions))
			count(c.checkBits(t))
		}
	})
	t.Run("fine-pitch", func(t *testing.T) {
		for name, p := range finePitchParams() {
			count(caseOf(name, p).checkBits(t))
		}
	})
	t.Run("sample300", func(t *testing.T) {
		for i, p := range validate.SampleParams(core.Baseline(), 1, 300) {
			count(caseOf(fmt.Sprintf("set%d", i), p).checkBits(t))
		}
	})
	t.Run("zero-sigma", func(t *testing.T) {
		fine := core.Baseline().WithPitch(0.8 * units.Micrometer)
		fine.Warpage = 20 * units.Micrometer
		rng := randx.NewSource(2)
		for _, c := range []d2wCase{
			caseOf("pitch0.8um", fine),
			caseOf("r2", jitteredParams(rng, 2)),
			caseOf("r8", jitteredParams(rng, 8)),
			stressedCase(),
		} {
			for _, z := range zeroEachSigma(c) {
				count(z.checkBits(t))
			}
		}
	})
	t.Logf("%d compared yields lie strictly inside (0, 1)", informative)
	if informative < 50 {
		t.Errorf("only %d compared yields lie strictly inside (0, 1); the comparison no longer reaches the informative regime", informative)
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
