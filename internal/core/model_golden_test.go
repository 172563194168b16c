package core

import (
	"math"
	"testing"

	"yap/internal/layout"
	"yap/internal/units"
)

// The bit patterns below were captured from the single-array analytic
// model that predates pad layouts. The evaluators resolve a nil PadLayout
// to the paper's uniform pad grid as the one full-die region and run the
// per-region terms, so these pin that the region path reproduces the
// paper's model bit for bit.

func checkBits(t *testing.T, name string, got float64, want uint64) {
	t.Helper()
	if math.Float64bits(got) != want {
		t.Errorf("%s = %v (bits %016x), want bits %016x", name, got, math.Float64bits(got), want)
	}
}

func TestAnalyticGoldenReplay(t *testing.T) {
	b, err := Baseline().EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "W2W baseline Overlay", b.Overlay, 0x3ff0000000000000)
	checkBits(t, "W2W baseline Recess", b.Recess, 0x3fefd35265d67efa)
	checkBits(t, "W2W baseline Defect", b.Defect, 0x3fea0fe48f30a0b2)
	checkBits(t, "W2W baseline Total", b.Total, 0x3fe9eb815171ce53)

	b4, err := Baseline().WithPitch(4e-6).EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "W2W pitch4 Overlay", b4.Overlay, 0x3ff0000000000000)
	checkBits(t, "W2W pitch4 Recess", b4.Recess, 0x3fef9bbcac186201)
	checkBits(t, "W2W pitch4 Defect", b4.Defect, 0x3fea0fe48f30a0b2)
	checkBits(t, "W2W pitch4 Total", b4.Total, 0x3fe9be3c0f54c0b3)

	d, err := Baseline().EvaluateD2W()
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "D2W baseline Overlay", d.Overlay, 0x3ff0000000000000)
	checkBits(t, "D2W baseline Recess", d.Recess, 0x3fefd35265d67efa)
	checkBits(t, "D2W baseline Defect", d.Defect, 0x3fec965dcc3d7ddb)
	checkBits(t, "D2W baseline Total", d.Total, 0x3fec6e73f4a0d9cf)

	d4, err := Baseline().WithPitch(4e-6).EvaluateD2W()
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "D2W pitch4 Overlay", d4.Overlay, 0x3ff0000000000000)
	checkBits(t, "D2W pitch4 Recess", d4.Recess, 0x3fef9bbcac186201)
	checkBits(t, "D2W pitch4 Defect", d4.Defect, 0x3fec9678519d4b14)
	checkBits(t, "D2W pitch4 Total", d4.Total, 0x3fec3ce5f39d213a)
}

// TestAnalyticGoldenReplayFinePitch pins the overlay term where it is
// informative: at the baseline and 4 µm pitch it is exactly 1.0, while at
// 0.8 µm the magnification field costs edge dies (W2W) and placement draws
// (D2W). The D2W Overlay bits pin the placement quadrature.
func TestAnalyticGoldenReplayFinePitch(t *testing.T) {
	p := Baseline().WithPitch(0.8 * units.Micrometer)
	w, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "W2W pitch0.8 Overlay", w.Overlay, 0x3fed5d569a7ef7dd)
	checkBits(t, "W2W pitch0.8 Recess", w.Recess, 0x3fe7853b41f58d13)
	checkBits(t, "W2W pitch0.8 Defect", w.Defect, 0x3fea0fe48f30a0b2)
	checkBits(t, "W2W pitch0.8 Total", w.Total, 0x3fe194101edd3c31)

	d, err := p.EvaluateD2W()
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "D2W pitch0.8 Overlay", d.Overlay, 0x3fd5511c90c70173)
	checkBits(t, "D2W pitch0.8 Recess", d.Recess, 0x3fe7853b41f58d13)
	checkBits(t, "D2W pitch0.8 Defect", d.Defect, 0x3fec96a2bfed2250)
	checkBits(t, "D2W pitch0.8 Total", d.Total, 0x3fcbfed9f35faffd)
}

// TestAnalyticUniformLayoutBitIdentical: the analytic half of the YAP+
// identity pin — an explicit single full-die uniform region evaluates to
// the exact nil-layout Breakdown for both bonding styles.
func TestAnalyticUniformLayoutBitIdentical(t *testing.T) {
	for _, p := range []Params{Baseline(), Baseline().WithPitch(4e-6)} {
		q := p
		uni := layout.Uniform(p.DieWidth, p.DieHeight, p.PadGeometry())
		q.PadLayout = &uni

		lw, err := p.EvaluateW2W()
		if err != nil {
			t.Fatal(err)
		}
		rw, err := q.EvaluateW2W()
		if err != nil {
			t.Fatal(err)
		}
		if lw != rw {
			t.Errorf("W2W uniform layout %+v != nil layout %+v", rw, lw)
		}

		ld, err := p.EvaluateD2W()
		if err != nil {
			t.Fatal(err)
		}
		rd, err := q.EvaluateD2W()
		if err != nil {
			t.Fatal(err)
		}
		if ld != rd {
			t.Errorf("D2W uniform layout %+v != nil layout %+v", rd, ld)
		}
	}
}

// TestAnalyticMultiRegionDiffers: heterogeneous regions must move the
// analytic answer (coarser io pads change δ, D_Cu and critical area).
func TestAnalyticMultiRegionDiffers(t *testing.T) {
	p := Baseline()
	l := layout.Layout{Regions: []layout.Region{
		{Name: "core", X0: -5e-3, Y0: -5e-3, X1: 2e-3, Y1: 5e-3},
		{Name: "io", X0: 2e-3, Y0: -5e-3, X1: 5e-3, Y1: 5e-3,
			Pitch: 12e-6, TopPadDiameter: 4e-6, BottomPadDiameter: 6e-6},
	}}
	p.PadLayout = &l
	if err := p.Validate(); err != nil {
		t.Fatalf("multi-region params invalid: %v", err)
	}
	legacy, err := Baseline().EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	multi, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if legacy == multi {
		t.Errorf("two-pitch layout reproduced the uniform breakdown %+v", legacy)
	}
	if multi.Total <= 0 || multi.Total > 1 {
		t.Errorf("multi-region total %g out of (0,1]", multi.Total)
	}
	multiD, err := p.EvaluateD2W()
	if err != nil {
		t.Fatal(err)
	}
	if multiD.Total <= 0 || multiD.Total > 1 {
		t.Errorf("multi-region D2W total %g out of (0,1]", multiD.Total)
	}
}
