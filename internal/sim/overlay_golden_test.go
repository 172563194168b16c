package sim

import (
	"fmt"
	"testing"

	"yap/internal/core"
	"yap/internal/layout"
	"yap/internal/units"
)

// The goldens below pin the overlay check where it decides dies. Every
// case of TestLegacyGoldenReplayW2W/D2W passes overlay on every die, so
// those replays cannot see a change to the overlay decision; these run at
// a fine pitch where it fails often. The tallies were captured from the
// kernels that evaluated |s_max+u| ≤ δ and |s_min+u| ≤ δ per region and
// per die directly, before the per-die pass interval (W2W) and the
// certified s_min skip (D2W) replaced that loop. The explicitPads cases
// pin the per-pad walk where it decides dies (the corner checks pass 787
// and 605 dies there); they were captured from the kernels in which each
// mode still walked the pads with its own loop.

// finePitchParams is the baseline at 0.8 µm pitch, where overlay fails
// a visible share of dies in both modes.
func finePitchParams() core.Params {
	return core.Baseline().WithPitch(0.8 * units.Micrometer)
}

// wideSigmaParams widens the random misalignment to 60 nm at 0.8 µm pitch:
// u then reaches below −δ often enough that the s_min side of the check
// decides dies, not only the s_max side.
func wideSigmaParams() core.Params {
	p := finePitchParams()
	p.RandomMisalignmentSigma = 60 * units.Nanometer
	return p
}

// rotationParams is a 20 mm wafer of 0.5 mm dies under a 120 µrad
// rotation: the overlay cliff lies mid-wafer, and the per-pad walk stays
// cheap.
func rotationParams() core.Params {
	p := core.Baseline()
	p.WaferDiameter = 20e-3
	p.DieWidth, p.DieHeight = 0.5e-3, 0.5e-3
	p.Rotation = 120e-6
	return p
}

// eightRegionFineParams is a 4×2 block layout with pitches from 0.8 to
// 1.5 µm, so each region has its own δ and the per-region overlay tests
// disagree about which dies pass.
func eightRegionFineParams() core.Params {
	p := finePitchParams()
	xs := []float64{-5e-3, -2.3e-3, 0.2e-3, 2.6e-3, 5e-3}
	ys := []float64{-5e-3, 0.4e-3, 5e-3}
	pitches := []float64{0.8, 1.0, 1.2, 1.5, 0.9, 1.1, 1.3, 0.8}
	l := layout.Layout{}
	for j := 0; j < 2; j++ {
		for i := 0; i < 4; i++ {
			pitch := pitches[j*4+i] * units.Micrometer
			l.Regions = append(l.Regions, layout.Region{
				Name: fmt.Sprintf("b%d%d", j, i),
				X0:   xs[i], Y0: ys[j], X1: xs[i+1], Y1: ys[j+1],
				Pitch: pitch, TopPadDiameter: pitch / 3, BottomPadDiameter: pitch / 2,
			})
		}
	}
	p.PadLayout = &l
	return p
}

func TestOverlayGoldenW2W(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want Counts
	}{
		{"pitch0.8", Options{Params: finePitchParams(), Seed: 7, Wafers: 10, Workers: 2},
			Counts{6480, 5940, 5467, 4771, 3714}},
		{"pitch0.8 sigma60nm", Options{Params: wideSigmaParams(), Seed: 7, Wafers: 10, Workers: 2},
			Counts{6480, 4604, 5467, 4771, 2872}},
		{"pitch0.8 twoD", Options{Params: finePitchParams(), Seed: 10, Wafers: 10, Workers: 2,
			TwoDRandomMisalignment: true},
			Counts{6480, 5931, 5380, 4782, 3642}},
		{"8 regions", Options{Params: eightRegionFineParams(), Seed: 12, Wafers: 10, Workers: 2},
			Counts{6480, 6033, 5298, 5343, 4097}},
		{"rotation explicitPads", Options{Params: rotationParams(), Seed: 29, Wafers: 1, Workers: 2,
			ExplicitPads: true},
			Counts{1176, 788, 1176, 1176, 788}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunW2W(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counts != tc.want {
				t.Errorf("counts %+v, want golden %+v", res.Counts, tc.want)
			}
		})
	}
}

func TestOverlayGoldenD2W(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want Counts
	}{
		{"pitch0.8", Options{Params: finePitchParams(), Seed: 7, Dies: 20000, Workers: 2},
			Counts{20000, 6732, 17912, 14616, 4411}},
		{"pitch0.8 sigma60nm", Options{Params: wideSigmaParams(), Seed: 7, Dies: 20000, Workers: 2},
			Counts{20000, 7768, 17912, 14616, 5036}},
		{"pitch0.8 twoD", Options{Params: finePitchParams(), Seed: 10, Dies: 20000, Workers: 2,
			TwoDRandomMisalignment: true},
			Counts{20000, 6438, 17851, 14730, 4238}},
		{"8 regions", Options{Params: eightRegionFineParams(), Seed: 12, Dies: 20000, Workers: 2},
			Counts{20000, 7212, 17797, 16367, 5277}},
		{"8 regions sigma60nm", Options{Params: func() core.Params {
			p := eightRegionFineParams()
			p.RandomMisalignmentSigma = 60 * units.Nanometer
			return p
		}(), Seed: 14, Dies: 20000, Workers: 2},
			Counts{20000, 8290, 17878, 16422, 6118}},
		{"rotation explicitPads", Options{Params: func() core.Params {
			p := rotationParams()
			p.PlacementRotationSigma = 80e-6
			return p
		}(), Seed: 4, Dies: 1500, Workers: 2, ExplicitPads: true},
			Counts{1500, 618, 1498, 1500, 617}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunD2W(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counts != tc.want {
				t.Errorf("counts %+v, want golden %+v", res.Counts, tc.want)
			}
		})
	}
}
