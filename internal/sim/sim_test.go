package sim

import (
	"math"
	"testing"

	"yap/internal/core"
	"yap/internal/units"
)

// fastOpts returns options small enough for unit-test latency but large
// enough for ±1–2% yield resolution.
func fastOpts(p core.Params) Options {
	return Options{Params: p, Seed: 1234, Wafers: 60, Dies: 8000}
}

func TestRunW2WDeterministicAcrossWorkerCounts(t *testing.T) {
	p := core.Baseline()
	base := fastOpts(p)
	base.Wafers = 20

	o1 := base
	o1.Workers = 1
	r1, err := RunW2W(o1)
	if err != nil {
		t.Fatal(err)
	}
	o8 := base
	o8.Workers = 8
	r8, err := RunW2W(o8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counts != r8.Counts {
		t.Errorf("worker count changed results: %+v vs %+v", r1.Counts, r8.Counts)
	}
}

func TestRunW2WSeedSensitivity(t *testing.T) {
	p := core.Baseline()
	a, err := RunW2W(Options{Params: p, Seed: 1, Wafers: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunW2W(Options{Params: p, Seed: 1, Wafers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts != b.Counts {
		t.Error("same seed gave different results")
	}
	c, err := RunW2W(Options{Params: p, Seed: 2, Wafers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Counts == c.Counts {
		t.Error("different seeds gave identical results (suspicious)")
	}
}

func TestRunD2WDeterministicAcrossWorkerCounts(t *testing.T) {
	p := core.Baseline()
	base := Options{Params: p, Seed: 77, Dies: 3000}
	o1 := base
	o1.Workers = 1
	r1, err := RunD2W(o1)
	if err != nil {
		t.Fatal(err)
	}
	o5 := base
	o5.Workers = 5
	r5, err := RunD2W(o5)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counts != r5.Counts {
		t.Errorf("worker count changed results: %+v vs %+v", r1.Counts, r5.Counts)
	}
}

func TestRunRejectsInvalidParams(t *testing.T) {
	p := core.Baseline()
	p.DefectShape = 1
	if _, err := RunW2W(Options{Params: p, Wafers: 1}); err == nil {
		t.Error("W2W accepted invalid params")
	}
	if _, err := RunD2W(Options{Params: p, Dies: 1}); err == nil {
		t.Error("D2W accepted invalid params")
	}
}

func TestRunW2WNoDies(t *testing.T) {
	p := core.Baseline()
	p.WaferDiameter = 8 * units.Millimeter // smaller than one die
	if _, err := RunW2W(Options{Params: p, Wafers: 1}); err == nil {
		t.Error("expected ErrNoDies")
	}
}

func TestW2WSimMatchesModelBaseline(t *testing.T) {
	p := core.Baseline()
	model, err := p.EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunW2W(fastOpts(p))
	if err != nil {
		t.Fatal(err)
	}
	// Overlay and recess agree tightly; the defect term carries the
	// documented wafer-edge bias (sim slightly optimistic), so allow 4%.
	if math.Abs(res.OverlayYield-model.Overlay) > 0.01 {
		t.Errorf("overlay: sim %g vs model %g", res.OverlayYield, model.Overlay)
	}
	if math.Abs(res.RecessYield-model.Recess) > 0.01 {
		t.Errorf("recess: sim %g vs model %g", res.RecessYield, model.Recess)
	}
	if math.Abs(res.DefectYield-model.Defect) > 0.04 {
		t.Errorf("defect: sim %g vs model %g", res.DefectYield, model.Defect)
	}
	if math.Abs(res.Yield-model.Total) > 0.05 {
		t.Errorf("total: sim %g vs model %g", res.Yield, model.Total)
	}
}

func TestD2WSimMatchesModelBaseline(t *testing.T) {
	p := core.Baseline()
	model, err := p.EvaluateD2W()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunD2W(Options{Params: p, Seed: 5, Dies: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.OverlayYield-model.Overlay) > 0.01 {
		t.Errorf("overlay: sim %g vs model %g", res.OverlayYield, model.Overlay)
	}
	if math.Abs(res.RecessYield-model.Recess) > 0.01 {
		t.Errorf("recess: sim %g vs model %g", res.RecessYield, model.Recess)
	}
	if math.Abs(res.DefectYield-model.Defect) > 0.015 {
		t.Errorf("defect: sim %g vs model %g", res.DefectYield, model.Defect)
	}
}

func TestD2WSimMatchesModelFinePitch(t *testing.T) {
	// The hard regime: overlay-limited D2W at 1 µm pitch.
	p := core.Baseline().WithPitch(1 * units.Micrometer)
	model, err := p.EvaluateD2W()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunD2W(Options{Params: p, Seed: 5, Dies: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.OverlayYield-model.Overlay) > 0.02 {
		t.Errorf("fine-pitch overlay: sim %g vs model %g", res.OverlayYield, model.Overlay)
	}
	if model.Overlay > 0.9 {
		t.Errorf("model overlay %g — regime check failed, expected visible loss", model.Overlay)
	}
}

func TestResultYieldConsistency(t *testing.T) {
	res, err := RunW2W(fastOpts(core.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts
	if c.Survived > c.OverlayPass || c.Survived > c.DefectPass || c.Survived > c.RecessPass {
		t.Errorf("survivors exceed a mechanism pass count: %+v", c)
	}
	if c.OverlayPass > c.Dies || c.DefectPass > c.Dies || c.RecessPass > c.Dies {
		t.Errorf("pass count exceeds dies: %+v", c)
	}
	if res.YieldLo > res.Yield || res.Yield > res.YieldHi {
		t.Errorf("yield %g outside its own CI [%g, %g]", res.Yield, res.YieldLo, res.YieldHi)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed time not recorded")
	}
	// Independence sanity: survivors can't be fewer than the inclusion-
	// exclusion lower bound.
	lower := c.OverlayPass + c.DefectPass + c.RecessPass - 2*c.Dies
	if c.Survived < lower {
		t.Errorf("survived %d below inclusion-exclusion bound %d", c.Survived, lower)
	}
}

func TestExplicitPadsRecessMatchesBernoulliShortcut(t *testing.T) {
	// Use a small pad count (coarse die) so the explicit path is feasible,
	// and a stressed recess process so failures actually occur. The
	// per-pad overlay walk draws what the scalar check draws, so the
	// recess draws are those of the explicit recess path alone.
	p := core.Baseline()
	p.DieWidth, p.DieHeight = 0.6*units.Millimeter, 0.6*units.Millimeter
	p.ExpansionRate = 0.046 * units.NanometerPerK // per-pad fail ~ 1e-4
	pads := p.PadArray().Pads()
	if pads == 0 || pads > 11000 {
		t.Fatalf("unexpected pad count %d", pads)
	}

	shortcut, err := RunD2W(Options{Params: p, Seed: 9, Dies: 4000})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := RunD2W(Options{Params: p, Seed: 10, Dies: 4000, ExplicitPads: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both must sit near the analytic value — the Bernoulli shortcut is
	// exactly distributed as the per-pad path, so both converge to it.
	want := p.RecessParams().DieYield(pads)
	if want > 0.95 || want < 0.2 {
		t.Fatalf("test regime broken: analytic recess yield %g", want)
	}
	if math.Abs(shortcut.RecessYield-want) > 0.05 {
		t.Errorf("shortcut recess yield %g vs analytic %g", shortcut.RecessYield, want)
	}
	if math.Abs(explicit.RecessYield-want) > 0.05 {
		t.Errorf("explicit recess yield %g vs analytic %g", explicit.RecessYield, want)
	}
	if math.Abs(explicit.RecessYield-shortcut.RecessYield) > 0.06 {
		t.Errorf("paths disagree: explicit %g vs shortcut %g",
			explicit.RecessYield, shortcut.RecessYield)
	}
}

func TestW2WExplicitRecessPath(t *testing.T) {
	p := core.Baseline()
	p.DieWidth, p.DieHeight = 0.6*units.Millimeter, 0.6*units.Millimeter
	p.WaferDiameter = 20 * units.Millimeter
	p.ExpansionRate = 0.046 * units.NanometerPerK
	res, err := RunW2W(Options{Params: p, Seed: 11, Wafers: 30, ExplicitPads: true})
	if err != nil {
		t.Fatal(err)
	}
	want := p.RecessParams().DieYield(p.PadArray().Pads())
	if math.Abs(res.RecessYield-want) > 0.06 {
		t.Errorf("explicit W2W recess yield %g vs analytic %g", res.RecessYield, want)
	}
}

func TestTwoDRandomMisalignmentStricter(t *testing.T) {
	// With a 2-D random error of per-axis σ₁ the misalignment magnitude is
	// stochastically larger than the scalar convention, so overlay yield
	// cannot improve. Use a stressed regime where overlay actually bites.
	p := core.Baseline().WithPitch(1 * units.Micrometer)
	scalar, err := RunD2W(Options{Params: p, Seed: 21, Dies: 15000})
	if err != nil {
		t.Fatal(err)
	}
	twoD, err := RunD2W(Options{Params: p, Seed: 21, Dies: 15000, TwoDRandomMisalignment: true})
	if err != nil {
		t.Fatal(err)
	}
	if twoD.OverlayYield > scalar.OverlayYield+0.01 {
		t.Errorf("2-D overlay yield %g should not beat scalar %g",
			twoD.OverlayYield, scalar.OverlayYield)
	}
}

func TestIncludeMainVoidW2WReducesDefectYield(t *testing.T) {
	p := core.Baseline()
	base, err := RunW2W(Options{Params: p, Seed: 31, Wafers: 60})
	if err != nil {
		t.Fatal(err)
	}
	withDisk, err := RunW2W(Options{Params: p, Seed: 31, Wafers: 60, IncludeMainVoidW2W: true})
	if err != nil {
		t.Fatal(err)
	}
	if withDisk.DefectYield > base.DefectYield+0.005 {
		t.Errorf("main-void disk should not raise defect yield: %g vs %g",
			withDisk.DefectYield, base.DefectYield)
	}
}

// TestRunRefusesUnimplementedCombinations: a switch combination that no
// kernel implements fails the run. Run anyway, each would silently reduce
// to fewer switches: the per-pad walk ignores the 2-D draw, the
// model-convention generator has no main void, and a D2W run has no
// W2W-only check.
func TestRunRefusesUnimplementedCombinations(t *testing.T) {
	cases := []struct {
		name string
		mode string
		opts Options
	}{
		{"w2w explicitPads+twoD", "w2w", Options{Params: smallParams(), Wafers: 1,
			ExplicitPads: true, TwoDRandomMisalignment: true}},
		{"d2w explicitPads+twoD", "d2w", Options{Params: smallParams(), Dies: 10,
			ExplicitPads: true, TwoDRandomMisalignment: true}},
		{"w2w modelConv+mainVoid", "w2w", Options{Params: core.Baseline(), Wafers: 1,
			ModelConventionDefects: true, IncludeMainVoidW2W: true}},
		{"d2w mainVoid", "d2w", Options{Params: core.Baseline(), Dies: 10, IncludeMainVoidW2W: true}},
		{"d2w modelConv", "d2w", Options{Params: core.Baseline(), Dies: 10, ModelConventionDefects: true}},
		{"d2w collectPerDie", "d2w", Options{Params: core.Baseline(), Dies: 10, CollectPerDie: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.mode == "w2w" {
				_, err = RunW2W(tc.opts)
			} else {
				_, err = RunD2W(tc.opts)
			}
			if err == nil {
				t.Error("run accepted a switch combination no kernel implements")
			}
		})
	}
}

func TestDefaultSampleCounts(t *testing.T) {
	// Defaults are the paper's 1000 wafers / 20000 dies; verify the zero
	// value doesn't mean zero work by running a tiny explicit count and
	// comparing the dies-count bookkeeping.
	p := core.Baseline()
	res, err := RunW2W(Options{Params: p, Seed: 51, Wafers: 2})
	if err != nil {
		t.Fatal(err)
	}
	perWafer := p.Layout().DieCount()
	if res.Counts.Dies != 2*perWafer {
		t.Errorf("dies = %d, want %d", res.Counts.Dies, 2*perWafer)
	}
	resd, err := RunD2W(Options{Params: p, Seed: 51, Dies: 123})
	if err != nil {
		t.Fatal(err)
	}
	if resd.Counts.Dies != 123 {
		t.Errorf("D2W dies = %d, want 123", resd.Counts.Dies)
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{Dies: 1, OverlayPass: 1, DefectPass: 0, RecessPass: 1, Survived: 0}
	b := Counts{Dies: 2, OverlayPass: 1, DefectPass: 2, RecessPass: 1, Survived: 1}
	a.Add(b)
	want := Counts{Dies: 3, OverlayPass: 2, DefectPass: 2, RecessPass: 2, Survived: 1}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

func TestResultString(t *testing.T) {
	res, err := RunD2W(Options{Params: core.Baseline(), Seed: 61, Dies: 100})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if len(s) == 0 || res.Mode != "D2W" {
		t.Errorf("bad result string %q mode %q", s, res.Mode)
	}
}
