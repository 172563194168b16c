package sim

import (
	"context"
	"reflect"
	"testing"

	"yap/internal/converge"
	"yap/internal/core"
	"yap/internal/layout"
	"yap/internal/units"
)

// The golden tallies below were captured from the pre-layout engine (the
// scalar single-grid kernels this repo shipped before internal/layout
// existed), one scenario per option combination. The region-generalized
// kernels must reproduce them exactly: with no PadLayout set the single
// full-die uniform region has to degenerate to the legacy arithmetic bit
// for bit, so a changed tally here means the YAP+ refactor broke the
// paper-baseline simulator. The W2W modelConv case stands in for a
// scenario whose per-wafer systematic switch was deleted; its tally was
// captured from the kernels just before that deletion.

// smallParams is a cheap die/wafer for the explicit per-pad paths.
func smallParams() core.Params {
	p := core.Baseline().WithPitch(50 * units.Micrometer)
	p.DieWidth, p.DieHeight = 2*units.Millimeter, 2*units.Millimeter
	p.WaferDiameter = 20 * units.Millimeter
	return p
}

// waferSigmaParams arms the common-mode CMP drift extension.
func waferSigmaParams() core.Params {
	p := core.Baseline()
	p.RecessWaferSigma = 0.2 * units.Nanometer
	return p
}

func TestLegacyGoldenReplayW2W(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want Counts
	}{
		{"baseline", Options{Params: core.Baseline(), Seed: 1, Wafers: 4, Workers: 3},
			Counts{2592, 2592, 2144, 2574, 2128}},
		{"twoD+mainVoid", Options{Params: core.Baseline(), Seed: 2, Wafers: 3, Workers: 2,
			TwoDRandomMisalignment: true, IncludeMainVoidW2W: true},
			Counts{1944, 1944, 1587, 1935, 1580}},
		{"modelConv", Options{Params: core.Baseline(), Seed: 3, Wafers: 3, Workers: 2,
			ModelConventionDefects: true},
			Counts{1944, 1944, 1577, 1927, 1562}},
		{"waferSigma", Options{Params: waferSigmaParams(), Seed: 4, Wafers: 3, Workers: 2},
			Counts{1944, 1944, 1602, 1925, 1590}},
		{"explicitPads", Options{Params: smallParams(), Seed: 5, Wafers: 3, Workers: 2,
			ExplicitPads: true},
			Counts{180, 180, 179, 180, 179}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunW2W(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counts != tc.want {
				t.Errorf("counts %+v, want pre-layout golden %+v", res.Counts, tc.want)
			}
		})
	}
}

func TestLegacyGoldenReplayD2W(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want Counts
	}{
		{"baseline", Options{Params: core.Baseline(), Seed: 1, Dies: 4000, Workers: 3},
			Counts{4000, 4000, 3545, 3974, 3521}},
		{"twoD", Options{Params: core.Baseline(), Seed: 2, Dies: 3000, Workers: 2,
			TwoDRandomMisalignment: true},
			Counts{3000, 3000, 2665, 2982, 2648}},
		{"waferSigma", Options{Params: waferSigmaParams(), Seed: 3, Dies: 3000, Workers: 2},
			Counts{3000, 3000, 2698, 2978, 2677}},
		{"explicitPads", Options{Params: smallParams(), Seed: 4, Dies: 1500, Workers: 2,
			ExplicitPads: true},
			Counts{1500, 1500, 1493, 1500, 1493}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunD2W(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counts != tc.want {
				t.Errorf("counts %+v, want pre-layout golden %+v", res.Counts, tc.want)
			}
		})
	}
}

// TestLegacyGoldenReplayEarlyStop pins the converged stop index alongside
// the tallies: the early-stop rule consumes the same per-sample streams,
// so a layout regression would move the stop point too.
func TestLegacyGoldenReplayEarlyStop(t *testing.T) {
	res, err := RunD2W(Options{Params: core.Baseline(), Seed: 6, Dies: 4000, Workers: 3,
		EarlyStop: converge.Rule{Epsilon: 0.01, MinSamples: 500}})
	if err != nil {
		t.Fatal(err)
	}
	want := Counts{3600, 3600, 3246, 3582, 3229}
	if res.Counts != want {
		t.Errorf("counts %+v, want pre-layout golden %+v", res.Counts, want)
	}
	if !res.StoppedEarly || res.Completed != 3600 || res.Requested != 4000 {
		t.Errorf("stop state = (stopped=%v, completed=%d, requested=%d), want (true, 3600, 4000)",
			res.StoppedEarly, res.Completed, res.Requested)
	}
}

// withUniformLayout returns p with the explicit single full-die region
// layout — the YAP+ identity of the nil default.
func withUniformLayout(p core.Params) core.Params {
	uni := layout.Uniform(p.DieWidth, p.DieHeight, p.PadGeometry())
	p.PadLayout = &uni
	return p
}

// TestUniformLayoutBitIdenticalW2W / D2W: the load-bearing pin of the
// subsystem. An explicit layout.Uniform must produce the exact Result the
// nil-layout run does — same tallies, same yields, same CI — for every
// option combination the kernels branch on, at several worker counts.
func TestUniformLayoutBitIdenticalW2W(t *testing.T) {
	base := []Options{
		{Params: core.Baseline(), Seed: 11, Wafers: 3},
		{Params: core.Baseline(), Seed: 12, Wafers: 2, TwoDRandomMisalignment: true, IncludeMainVoidW2W: true},
		{Params: core.Baseline(), Seed: 13, Wafers: 2, TwoDRandomMisalignment: true, ModelConventionDefects: true},
		{Params: waferSigmaParams(), Seed: 14, Wafers: 2},
		{Params: smallParams(), Seed: 15, Wafers: 3, ExplicitPads: true},
	}
	for _, opts := range base {
		for _, workers := range []int{1, 2, 5} {
			opts.Workers = workers
			legacy, err := RunW2W(opts)
			if err != nil {
				t.Fatal(err)
			}
			lopts := opts
			lopts.Params = withUniformLayout(opts.Params)
			region, err := RunW2W(lopts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := stripElapsed(region), stripElapsed(legacy); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d workers %d: uniform-layout result %+v != legacy %+v",
					opts.Seed, workers, got, want)
			}
		}
	}
}

func TestUniformLayoutBitIdenticalD2W(t *testing.T) {
	base := []Options{
		{Params: core.Baseline(), Seed: 21, Dies: 800},
		{Params: core.Baseline(), Seed: 22, Dies: 600, TwoDRandomMisalignment: true},
		{Params: waferSigmaParams(), Seed: 23, Dies: 600},
		{Params: smallParams(), Seed: 24, Dies: 400, ExplicitPads: true},
	}
	for _, opts := range base {
		for _, workers := range []int{1, 2, 5} {
			opts.Workers = workers
			legacy, err := RunD2W(opts)
			if err != nil {
				t.Fatal(err)
			}
			lopts := opts
			lopts.Params = withUniformLayout(opts.Params)
			region, err := RunD2W(lopts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := stripElapsed(region), stripElapsed(legacy); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d workers %d: uniform-layout result %+v != legacy %+v",
					opts.Seed, workers, got, want)
			}
		}
	}
}

// TestUniformLayoutShardedBitIdentical extends the pin across the dist
// contract: FirstSample shards of a uniform-layout run must Merge to the
// legacy single-node result for every split.
func TestUniformLayoutShardedBitIdentical(t *testing.T) {
	w2w := Options{Params: core.Baseline(), Seed: 31, Wafers: 6, Workers: 2}
	legacyW, err := RunW2WContext(context.Background(), w2w)
	if err != nil {
		t.Fatal(err)
	}
	lw := w2w
	lw.Params = withUniformLayout(w2w.Params)
	for _, split := range [][]int{{6}, {3, 3}, {1, 2, 3}} {
		merged, err := Merge(shardResults(t, "w2w", lw, split)...)
		if err != nil {
			t.Fatalf("split %v: %v", split, err)
		}
		if got, want := stripElapsed(merged), stripElapsed(legacyW); !reflect.DeepEqual(got, want) {
			t.Errorf("w2w split %v: merged layout result %+v != legacy single-node %+v", split, got, want)
		}
	}

	d2w := Options{Params: core.Baseline(), Seed: 32, Dies: 900, Workers: 2}
	legacyD, err := RunD2WContext(context.Background(), d2w)
	if err != nil {
		t.Fatal(err)
	}
	ld := d2w
	ld.Params = withUniformLayout(d2w.Params)
	for _, split := range [][]int{{900}, {450, 450}, {100, 300, 500}} {
		merged, err := Merge(shardResults(t, "d2w", ld, split)...)
		if err != nil {
			t.Fatalf("split %v: %v", split, err)
		}
		if got, want := stripElapsed(merged), stripElapsed(legacyD); !reflect.DeepEqual(got, want) {
			t.Errorf("d2w split %v: merged layout result %+v != legacy single-node %+v", split, got, want)
		}
	}
}

// multiRegionParams is a heterogeneous two-pitch layout: a fine-pitch
// core block and a coarse-pitch io column, adjacent along x.
func multiRegionParams() core.Params {
	p := core.Baseline()
	l := layout.Layout{Regions: []layout.Region{
		{Name: "core", X0: -5e-3, Y0: -5e-3, X1: 2e-3, Y1: 5e-3},
		{Name: "io", X0: 2e-3, Y0: -5e-3, X1: 5e-3, Y1: 5e-3,
			Pitch: 12 * units.Micrometer, TopPadDiameter: 4 * units.Micrometer,
			BottomPadDiameter: 6 * units.Micrometer},
	}}
	p.PadLayout = &l
	return p
}

// quadrantParams splits the small die into four explicit regions.
func quadrantParams() core.Params {
	p := smallParams()
	half := p.DieWidth / 2
	mk := func(name string, x0, y0, x1, y1 float64) layout.Region {
		return layout.Region{Name: name, X0: x0, Y0: y0, X1: x1, Y1: y1}
	}
	l := layout.Layout{Regions: []layout.Region{
		mk("q1", -half, -half, 0, 0),
		mk("q2", 0, -half, half, 0),
		mk("q3", -half, 0, 0, half),
		mk("q4", 0, 0, half, half),
	}}
	p.PadLayout = &l
	return p
}

// TestMultiRegionWorkerInvariance: a heterogeneous layout's Result must
// not depend on the worker count (per-sample derived streams).
func TestMultiRegionWorkerInvariance(t *testing.T) {
	pm := multiRegionParams()
	if err := pm.Validate(); err != nil {
		t.Fatalf("multi-region params invalid: %v", err)
	}
	var first Result
	for i, workers := range []int{1, 2, 5} {
		res, err := RunW2W(Options{Params: pm, Seed: 41, Wafers: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
			continue
		}
		if got, want := stripElapsed(res), stripElapsed(first); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: %+v != workers=1 %+v", workers, got, want)
		}
	}
	var firstD Result
	for i, workers := range []int{1, 2, 5} {
		res, err := RunD2W(Options{Params: pm, Seed: 42, Dies: 800, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstD = res
			continue
		}
		if got, want := stripElapsed(res), stripElapsed(firstD); !reflect.DeepEqual(got, want) {
			t.Errorf("d2w workers=%d: %+v != workers=1 %+v", workers, got, want)
		}
	}
}

// TestMultiRegionShardMerge: heterogeneous layouts obey the same
// shard-and-merge contract as the uniform grid, including the explicit
// per-pad paths (whose draw order over regions is part of the contract).
func TestMultiRegionShardMerge(t *testing.T) {
	cases := []struct {
		name   string
		mode   string
		opts   Options
		splits [][]int
	}{
		{"w2w two-pitch", "w2w",
			Options{Params: multiRegionParams(), Seed: 51, Wafers: 6, Workers: 2},
			[][]int{{6}, {2, 4}, {1, 2, 3}}},
		{"d2w two-pitch", "d2w",
			Options{Params: multiRegionParams(), Seed: 52, Dies: 600, Workers: 2},
			[][]int{{600}, {200, 400}, {150, 150, 300}}},
		{"w2w quadrants explicit", "w2w",
			Options{Params: quadrantParams(), Seed: 53, Wafers: 4, Workers: 2,
				ExplicitPads: true},
			[][]int{{4}, {1, 3}}},
		{"d2w quadrants explicit", "d2w",
			Options{Params: quadrantParams(), Seed: 54, Dies: 400, Workers: 2,
				ExplicitPads: true},
			[][]int{{400}, {100, 300}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opts.Params.Validate(); err != nil {
				t.Fatalf("params invalid: %v", err)
			}
			var single Result
			var err error
			if tc.mode == "w2w" {
				single, err = RunW2WContext(context.Background(), tc.opts)
			} else {
				single, err = RunD2WContext(context.Background(), tc.opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if single.Counts.Survived == single.Counts.Dies && tc.mode == "d2w" {
				t.Logf("note: all %d dies survived; shard equality still meaningful", single.Counts.Dies)
			}
			for _, split := range tc.splits {
				merged, err := Merge(shardResults(t, tc.mode, tc.opts, split)...)
				if err != nil {
					t.Fatalf("split %v: %v", split, err)
				}
				if got, want := stripElapsed(merged), stripElapsed(single); !reflect.DeepEqual(got, want) {
					t.Errorf("split %v: merged %+v != single %+v", split, got, want)
				}
			}
		})
	}
}

// TestMultiRegionEarlyStopWorkerInvariance: the sequential stopping rule
// must pick the same stop index for a layout run at any worker count.
func TestMultiRegionEarlyStopWorkerInvariance(t *testing.T) {
	rule := converge.Rule{Epsilon: 0.02, MinSamples: 200}
	var first Result
	for i, workers := range []int{1, 3} {
		res, err := RunD2W(Options{Params: multiRegionParams(), Seed: 55, Dies: 3000,
			Workers: workers, EarlyStop: rule})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
			if !res.StoppedEarly {
				t.Logf("note: rule did not converge before the cap (completed=%d)", res.Completed)
			}
			continue
		}
		if got, want := stripElapsed(res), stripElapsed(first); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: %+v != workers=1 %+v", workers, got, want)
		}
	}
}

// TestMultiRegionDiffersFromUniform sanity-checks that the subsystem
// actually changes behavior when the layout is heterogeneous: the
// two-pitch layout must not reproduce the uniform-grid tallies (the io
// block's coarse pads change δ, D_Cu and the critical area).
func TestMultiRegionDiffersFromUniform(t *testing.T) {
	uni := Options{Params: core.Baseline(), Seed: 61, Dies: 2000, Workers: 2}
	res1, err := RunD2W(uni)
	if err != nil {
		t.Fatal(err)
	}
	multi := uni
	multi.Params = multiRegionParams()
	res2, err := RunD2W(multi)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Counts == res2.Counts {
		t.Errorf("heterogeneous layout reproduced uniform tallies %+v; regions are not being applied", res1.Counts)
	}
}
