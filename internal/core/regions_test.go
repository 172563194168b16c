package core

import (
	"math"
	"testing"

	"yap/internal/units"
)

// TestRecessDriftSingleRegionBitIdentical: with common-mode drift the
// region product's expectation over the shared shift runs
// recess.Params.DieYield's own drift rule, so on the paper's one-region
// grid every recess reader reproduces DieYield bit for bit.
func TestRecessDriftSingleRegionBitIdentical(t *testing.T) {
	for _, recessNM := range []float64{10, 10.5, 11} {
		for _, driftNM := range []float64{0.2, 0.5, 1, 2} {
			p := Baseline()
			p.RecessTop, p.RecessBottom = recessNM*units.Nanometer, recessNM*units.Nanometer
			p.RecessWaferSigma = driftNM * units.Nanometer
			want := math.Float64bits(p.RecessParams().DieYield(p.PadArray().Pads()))
			w, err := p.EvaluateW2W()
			if err != nil {
				t.Fatal(err)
			}
			d, err := p.EvaluateD2W()
			if err != nil {
				t.Fatal(err)
			}
			dies, err := p.W2WDieYields()
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]float64{"W2W": w.Recess, "D2W": d.Recess, "die map": dies[0].Recess} {
				if math.Float64bits(got) != want {
					t.Errorf("recess %g nm, drift %g nm: %s recess %v (bits %016x), DieYield bits %016x",
						recessNM, driftNM, name, got, math.Float64bits(got), want)
				}
			}
		}
	}
}

// TestRecessDriftRegionsMatchQuadrature: the regions of a layout share
// each bond event's drift, so the recess term of the two-pitch layout is
// E_m[Π_r q_r(m)]. It must lie within 1e-6 of a composite Simpson rule
// over ±9σ that is itself converged; the product of the per-region
// expectations, Π_r E_m[q_r(m)], must lie well outside that bound, or the
// case could not tell the two apart.
func TestRecessDriftRegionsMatchQuadrature(t *testing.T) {
	simpson := func(rs []Region, sigma float64, n int) float64 {
		a, h := -9*sigma, 18*sigma/float64(n)
		var sum float64
		for i := 0; i <= n; i++ {
			x := a + float64(i)*h
			w := 2.0
			switch {
			case i == 0 || i == n:
				w = 1
			case i%2 == 1:
				w = 4
			}
			pdf := math.Exp(-0.5*(x/sigma)*(x/sigma)) / (sigma * math.Sqrt(2*math.Pi))
			sum += w * pdf * RecessYieldAt(rs, x)
		}
		return sum * h / 3
	}
	for _, driftNM := range []float64{0.5, 1, 2} {
		p := Baseline()
		p.PadLayout = twoPitchParams().PadLayout
		p.RecessWaferSigma = driftNM * units.Nanometer
		rs := p.Regions()
		if len(rs) != 2 {
			t.Fatalf("%d regions, want 2", len(rs))
		}
		ref := simpson(rs, p.RecessWaferSigma, 200000)
		if coarse := simpson(rs, p.RecessWaferSigma, 100000); math.Abs(coarse-ref) > 1e-9 {
			t.Fatalf("drift %g nm: reference not converged: %.12f at n/2 vs %.12f", driftNM, coarse, ref)
		}
		b, err := p.EvaluateW2W()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(b.Recess-ref) > 1e-6 {
			t.Errorf("drift %g nm: recess %.9f, quadrature of E[Π q_r] %.9f", driftNM, b.Recess, ref)
		}
		perRegion := 1.0
		for _, r := range rs {
			perRegion *= r.Recess.DieYield(r.Grid.Pads())
		}
		if math.Abs(perRegion-ref) < 100e-6 {
			t.Errorf("drift %g nm: Π E q_r %.6f is within 1e-4 of E Π q_r; the case does not tell them apart", driftNM, perRegion)
		}
	}
}
