package sim

import (
	"math"
	"testing"

	"yap/internal/core"
	"yap/internal/num"
	"yap/internal/overlay"
	"yap/internal/units"
	"yap/internal/wafer"
)

// TestTwoDSimMatchesRiceAnalytics closes the loop on the 2-D misalignment
// ablation: the simulator's 2-D mode must agree with the analytic Rice
// model (overlay.DiePOS2D averaged over placement draws) — the two
// independent implementations of the convention the paper approximates.
func TestTwoDSimMatchesRiceAnalytics(t *testing.T) {
	p := core.Baseline().WithPitch(1 * units.Micrometer)
	res, err := RunD2W(Options{Params: p, Seed: 43, Dies: 25000, TwoDRandomMisalignment: true})
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: E over placement draws of the Rice die POS, via the same
	// hybrid quadrature the production model uses for the scalar form.
	m := p.OverlayModel()
	pads := wafer.PadArrayFor(p.DieWidth, p.DieHeight, p.Pitch)
	halfDiag := wafer.HalfDiagonal(p.DieWidth, p.DieHeight)
	delta := m.Pads.MaxMisalignment()
	spread := p.PlacementSpread()
	muSmooth := []float64{m.Dist.TX, m.Dist.TY, m.Dist.Rotation}
	sigmaSmooth := []float64{spread.TXSigma, spread.TYSigma, spread.RotationSigma}
	want := num.ExpectNormalAdaptive(func(mag float64) float64 {
		return num.ExpectNormal(func(x []float64) float64 {
			dist := overlay.Distortion{TX: x[0], TY: x[1], Rotation: x[2], Magnification: mag}.
				ScaleToDie(p.WaferRadius(), halfDiag)
			return overlay.DiePOS2D(dist, pads.Rect, delta, m.Sigma1)
		}, muSmooth, sigmaSmooth)
	}, m.Dist.Magnification, spread.MagnificationSigma, 0)

	if math.Abs(res.OverlayYield-want) > 0.015 {
		t.Errorf("2-D sim overlay %g vs Rice analytics %g", res.OverlayYield, want)
	}
}

// TestModelConventionDefectsMatchesClosedForm verifies that when the W2W
// simulator adopts the analytic model's idealizations (uniform defect field
// extending past the wafer edge, marginal tail-length law, uniform
// orientation), the simulated defect yield converges to the closed-form
// exp(−Λ) of Eq. 20/21 — demonstrating that the residual model-vs-sim gap
// in the default mode is the wafer-edge/radial-orientation effect, not an
// algebra error.
func TestModelConventionDefectsMatchesClosedForm(t *testing.T) {
	p := core.Baseline()
	model, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	conv, err := RunW2W(Options{Params: p, Seed: 3, Wafers: 150, ModelConventionDefects: true})
	if err != nil {
		t.Fatal(err)
	}
	// 150 wafers × 648 dies ⇒ binomial se ≈ 0.0013; allow 4σ plus a small
	// truncation allowance.
	if math.Abs(conv.DefectYield-model.Defect) > 0.008 {
		t.Errorf("model-convention sim %g vs closed form %g", conv.DefectYield, model.Defect)
	}

	// The default (physical) mode must sit on the optimistic side: edge
	// dies see less defect flux and radial tails hug fewer dies.
	phys, err := RunW2W(Options{Params: p, Seed: 3, Wafers: 150})
	if err != nil {
		t.Fatal(err)
	}
	if phys.DefectYield < model.Defect-0.005 {
		t.Errorf("physical sim %g should not be below the closed form %g",
			phys.DefectYield, model.Defect)
	}
	if phys.DefectYield <= conv.DefectYield {
		t.Errorf("physical sim %g should exceed model-convention sim %g (edge effect)",
			phys.DefectYield, conv.DefectYield)
	}
}

// TestRadialClusteringSimMatchesModel verifies the clustered-density
// extension end-to-end: the simulator samples particle positions from the
// edge-weighted profile and the model scales Eq. 20's tail term by the
// clustering factor; the two must still agree (within the documented
// edge-effect bias, which clustering slightly enlarges).
func TestRadialClusteringSimMatchesModel(t *testing.T) {
	p := core.Baseline()
	p.RadialDefectClustering = 2
	model, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunW2W(Options{Params: p, Seed: 13, Wafers: 120})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DefectYield-model.Defect) > 0.05 {
		t.Errorf("clustered defect: sim %g vs model %g", res.DefectYield, model.Defect)
	}
	// Clustering lowers the model's defect yield vs uniform.
	uniform, err := core.Baseline().EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if model.Defect >= uniform.Defect {
		t.Errorf("clustered model defect %g should be below uniform %g",
			model.Defect, uniform.Defect)
	}
}

// TestExplicitOverlayMatchesCornerCheck: the per-pad overlay walk and the
// convexity-based corner check are the same test up to the sub-pitch gap
// between the outermost pad centers and the array corners, so their pass
// rates must agree closely. Coarse pads keep the explicit walk affordable.
// ExplicitPads also draws every pad's recess height; recess is drawn last
// in every sample, so the overlay tallies are those of the walk alone.
func TestExplicitOverlayMatchesCornerCheck(t *testing.T) {
	// Small wafer and die keep the explicit O(N_pads·N_dies) walk cheap;
	// a large rotation error puts the overlay cliff mid-wafer so the check
	// actually discriminates (pass radius δ/α ≈ 8 mm inside R = 10 mm).
	p := rotationParams()
	fast, err := RunW2W(Options{Params: p, Seed: 29, Wafers: 5})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := RunW2W(Options{Params: p, Seed: 29, Wafers: 5, ExplicitPads: true})
	if err != nil {
		t.Fatal(err)
	}
	if fast.OverlayYield < 0.02 || fast.OverlayYield > 0.98 {
		t.Fatalf("regime check: overlay yield %g not informative", fast.OverlayYield)
	}
	if math.Abs(fast.OverlayYield-explicit.OverlayYield) > 0.03 {
		t.Errorf("corner check %g vs explicit pads %g", fast.OverlayYield, explicit.OverlayYield)
	}
	// The corner check is conservative (corners bound pad centers): it
	// can only reject at least as often.
	if fast.OverlayYield > explicit.OverlayYield+0.02 {
		t.Errorf("corner check %g should not pass more dies than explicit %g",
			fast.OverlayYield, explicit.OverlayYield)
	}
}

// TestModelConventionOtherChecksUnaffected confirms the flag only touches
// the defect generator.
func TestModelConventionOtherChecksUnaffected(t *testing.T) {
	p := core.Baseline()
	a, err := RunW2W(Options{Params: p, Seed: 9, Wafers: 25})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunW2W(Options{Params: p, Seed: 9, Wafers: 25, ModelConventionDefects: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts.OverlayPass != b.Counts.OverlayPass {
		t.Errorf("overlay counts changed: %d vs %d", a.Counts.OverlayPass, b.Counts.OverlayPass)
	}
}
