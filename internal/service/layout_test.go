package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"yap/internal/core"
	"yap/internal/jobs"
	"yap/internal/layout"
	"yap/internal/sim"
)

// multiRegionJSON is the wire form of a two-pitch pad layout: a fine-pitch
// core block inheriting the die-level process, plus a coarse io column.
const multiRegionJSON = `{
  "regions": [
    {"name": "core", "x0": -5e-3, "y0": -5e-3, "x1": 2e-3, "y1": 5e-3},
    {"name": "io", "x0": 2e-3, "y0": -5e-3, "x1": 5e-3, "y1": 5e-3,
     "pitch": 12e-6, "top_pad_diameter": 4e-6, "bottom_pad_diameter": 6e-6}
  ]
}`

// multiRegionParams is the decoded twin of multiRegionJSON.
func multiRegionParams() core.Params {
	p := core.Baseline()
	l := layout.Layout{Regions: []layout.Region{
		{Name: "core", X0: -5e-3, Y0: -5e-3, X1: 2e-3, Y1: 5e-3},
		{Name: "io", X0: 2e-3, Y0: -5e-3, X1: 5e-3, Y1: 5e-3,
			Pitch: 12e-6, TopPadDiameter: 4e-6, BottomPadDiameter: 6e-6},
	}}
	p.PadLayout = &l
	return p
}

func TestEvaluateLayoutEndToEnd(t *testing.T) {
	s := New(Config{})
	body := fmt.Sprintf(`{"mode": "w2w", "params": {"layout": %s}}`, multiRegionJSON)
	w := post(t, s, "/v1/evaluate", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[EvaluateResponse](t, w)
	want, err := multiRegionParams().EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	if resp.W2W == nil || resp.W2W.Total != want.Total {
		t.Errorf("layout evaluate %+v != model %+v", resp.W2W, want)
	}

	// The layout is part of the cache key: its hash must differ from the
	// nil-layout baseline, whose digest is pinned in core.
	base := decodeBody[EvaluateResponse](t, post(t, s, "/v1/evaluate", `{"mode": "w2w"}`))
	if base.ParamsHash != core.Baseline().HashString() {
		t.Errorf("baseline hash %s changed (want %s); layout must not perturb legacy hashes",
			base.ParamsHash, core.Baseline().HashString())
	}
	if resp.ParamsHash == base.ParamsHash {
		t.Error("layout request hashed like the baseline; layout not folded into the key")
	}

	// A repeated layout request decodes to a fresh *Layout pointer; the
	// cache must still hit (Params.Equal, not pointer identity).
	again := decodeBody[EvaluateResponse](t, post(t, s, "/v1/evaluate", body))
	if !again.Cached {
		t.Error("repeated layout request missed the cache")
	}
	if again.ParamsHash != resp.ParamsHash || again.W2W.Total != resp.W2W.Total {
		t.Errorf("cached layout response %+v differs from first %+v", again, resp)
	}
}

func TestEvaluateLayoutInvalid(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name    string
		layout  string
		wantMsg string
	}{
		{"empty regions", `{"regions": []}`, "no regions"},
		{"region outside die",
			`{"regions": [{"name": "hang", "x0": 0, "y0": 0, "x1": 9e-3, "y1": 1e-3}]}`,
			`region 0 ("hang")`},
		{"overlapping regions",
			`{"regions": [
			   {"name": "a", "x0": -5e-3, "y0": -5e-3, "x1": 1e-3, "y1": 5e-3},
			   {"name": "b", "x0": 0, "y0": -5e-3, "x1": 5e-3, "y1": 5e-3}]}`,
			`region 1 ("b") overlaps region 0 ("a")`},
		{"empty rectangle",
			`{"regions": [{"name": "dot", "x0": 1e-3, "y0": 1e-3, "x1": 1e-3, "y1": 2e-3}]}`,
			`region 0 ("dot"): empty rectangle`},
		{"no pads fit",
			`{"regions": [{"name": "tiny", "x0": 0, "y0": 0, "x1": 2e-6, "y1": 2e-6}]}`,
			`region 0 ("tiny"): no pads fit`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, path := range []string{"/v1/evaluate", "/v1/simulate"} {
				w := post(t, s, path, fmt.Sprintf(`{"params": {"layout": %s}}`, tc.layout))
				if w.Code != http.StatusBadRequest {
					t.Fatalf("%s: status %d, want 400: %s", path, w.Code, w.Body)
				}
				detail := decodeBody[ErrorResponse](t, w).Error
				if detail.Code != "invalid_params" {
					t.Errorf("%s: code %q, want invalid_params", path, detail.Code)
				}
				if !strings.Contains(detail.Message, tc.wantMsg) {
					t.Errorf("%s: message %q does not name the region (%q)", path, detail.Message, tc.wantMsg)
				}
			}
		})
	}
}

func TestSimulateLayoutEndToEnd(t *testing.T) {
	s := New(Config{})
	body := fmt.Sprintf(`{"mode": "d2w", "seed": 7, "dies": 500, "workers": 2, "params": {"layout": %s}}`, multiRegionJSON)
	w := post(t, s, "/v1/simulate", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[SimulateResponse](t, w)
	want, err := sim.RunD2W(sim.Options{Params: multiRegionParams(), Seed: 7, Dies: 500, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Survived != want.Counts.Survived || resp.Dies != want.Counts.Dies ||
		resp.Yield != want.Yield || resp.YieldLo != want.YieldLo || resp.YieldHi != want.YieldHi {
		t.Errorf("layout simulate %+v != direct run %+v", resp, want)
	}
	if resp.ParamsHash != multiRegionParams().HashString() {
		t.Errorf("params_hash %s != layout hash %s", resp.ParamsHash, multiRegionParams().HashString())
	}
}

// TestJobLayoutResumeAcrossServerRestart: a layout-bearing job spec must
// survive the WAL round-trip — the resumed run finishes with exactly the
// tallies of an uninterrupted run over the same layout.
func TestJobLayoutResumeAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	params := multiRegionParams()

	want, err := sim.RunW2WContext(context.Background(), sim.Options{Params: params, Seed: 33, Wafers: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	blocked := make(chan struct{})
	slices := 0
	jm, err := jobs.Open(jobs.Config{Dir: dir, Run: func(ctx context.Context, mode string, opts sim.Options) (sim.Result, error) {
		if opts.Params.PadLayout == nil {
			t.Error("job slice lost the pad layout")
		}
		slices++
		if slices == 3 {
			close(blocked)
			<-ctx.Done()
			return sim.Result{}, ctx.Err()
		}
		return sim.RunW2WContext(ctx, opts)
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Jobs: jm})
	body := fmt.Sprintf(`{"seed": 33, "wafers": 6, "workers": 2, "checkpoint_every": 2, "params": {"layout": %s}}`, multiRegionJSON)
	w := post(t, s, "/v1/jobs", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", w.Code, w.Body)
	}
	sub := decodeBody[JobResponse](t, w)
	if sub.ParamsHash != params.HashString() {
		t.Errorf("job params_hash %s != layout hash %s", sub.ParamsHash, params.HashString())
	}
	<-blocked
	if err := jm.Close(); err != nil {
		t.Fatal(err)
	}

	// The second incarnation replays the WAL: the spec's layout must come
	// back and steer the remaining slices.
	jm2, err := jobs.Open(jobs.Config{Dir: dir, SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jm2.Close() })
	s2 := New(Config{Jobs: jm2})
	done := pollJob(t, s2, sub.ID)
	if done.State != "done" {
		t.Fatalf("state %s (error %q), want done", done.State, done.Error)
	}
	if done.Resumes != 1 {
		t.Errorf("resumes %d, want 1", done.Resumes)
	}
	if done.Result.Survived != want.Counts.Survived || done.Result.Dies != want.Counts.Dies ||
		done.Result.Yield != want.Yield || done.Result.YieldLo != want.YieldLo {
		t.Errorf("resumed layout job result %+v != uninterrupted reference %+v", done.Result, want)
	}
}

// halvesJSON splits the die into two regions that name no pitch or pads,
// so both inherit the die-level geometry.
const halvesJSON = `{"regions": [
  {"name": "left", "x0": -5e-3, "y0": -5e-3, "x1": 0, "y1": 5e-3},
  {"name": "right", "x0": 0, "y0": -5e-3, "x1": 5e-3, "y1": 5e-3}
]}`

// halvesParams is Baseline carrying halvesJSON's layout.
func halvesParams() core.Params {
	p := core.Baseline()
	p.PadLayout = &layout.Layout{Regions: []layout.Region{
		{Name: "left", X0: -5e-3, Y0: -5e-3, X1: 0, Y1: 5e-3},
		{Name: "right", X0: 0, Y0: -5e-3, X1: 5e-3, Y1: 5e-3},
	}}
	return p
}

// TestLayoutOverrideLeavesDaemonDefaults: a request overriding the layout
// of layout-bearing daemon defaults gets exactly its own layout, and
// later requests still see the defaults' layout.
func TestLayoutOverrideLeavesDaemonDefaults(t *testing.T) {
	defaults := multiRegionParams()
	s := New(Config{Defaults: &defaults})
	want := multiRegionParams().HashString()
	if got := decodeBody[EvaluateResponse](t, post(t, s, "/v1/evaluate", `{"mode": "w2w"}`)); got.ParamsHash != want {
		t.Fatalf("defaults hash %s, want %s", got.ParamsHash, want)
	}
	w := post(t, s, "/v1/evaluate", fmt.Sprintf(`{"mode": "w2w", "params": {"layout": %s}}`, halvesJSON))
	if w.Code != http.StatusOK {
		t.Fatalf("override: status %d: %s", w.Code, w.Body)
	}
	if got := decodeBody[EvaluateResponse](t, w); got.ParamsHash != halvesParams().HashString() {
		t.Errorf("override hash %s, want %s (its regions inherit the die pitch)", got.ParamsHash, halvesParams().HashString())
	}
	if got := decodeBody[EvaluateResponse](t, post(t, s, "/v1/evaluate", `{"mode": "w2w"}`)); got.ParamsHash != want {
		t.Errorf("defaults hash %s after a layout override, want %s", got.ParamsHash, want)
	}
}

// TestBatchLayoutOverrideOverLayoutBase: in a batch whose base carries a
// layout, a point overriding the layout gets exactly its own, and the
// points running beside it keep the base's.
func TestBatchLayoutOverrideOverLayoutBase(t *testing.T) {
	s := New(Config{})
	base, err := multiRegionParams().EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	override, err := halvesParams().EvaluateW2W()
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"mode": "w2w", "params": {"layout": %s}, "points": [{"layout": %s}, {}, {}, {}]}`,
		multiRegionJSON, halvesJSON)
	for round := 0; round < 20; round++ {
		w := post(t, s, "/v1/evaluate/batch", body)
		if w.Code != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, w.Code, w.Body)
		}
		resp := decodeBody[BatchEvaluateResponse](t, w)
		for i, pt := range resp.Points {
			want, hash := base, multiRegionParams().HashString()
			if i == 0 {
				want, hash = override, halvesParams().HashString()
			}
			if pt.Error != "" || pt.ParamsHash != hash || pt.W2W.Total != want.Total {
				t.Fatalf("round %d point %d: %+v (w2w %+v), want hash %s total %v", round, i, pt, pt.W2W, hash, want.Total)
			}
		}
	}
}
