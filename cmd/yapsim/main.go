// Command yapsim runs the YAP Monte-Carlo yield simulator (Fig. 4 workflow)
// and prints the per-mechanism and overall die yields with 95% confidence
// intervals, next to the analytic model for comparison.
//
// Usage:
//
//	yapsim [-mode w2w|d2w] [-wafers n] [-dies n] [-seed n] [-workers n]
//	       [-pitch um] [-die-area mm2] [-density cm-2]
//	       [-2d-misalignment] [-main-void]
package main

import (
	"flag"
	"fmt"
	"os"

	"yap/internal/core"
	"yap/internal/sim"
	"yap/internal/units"
)

func main() {
	var (
		mode    = flag.String("mode", "w2w", "bonding style: w2w or d2w")
		wafers  = flag.Int("wafers", 1000, "bonded-wafer samples for w2w (paper default 1000)")
		dies    = flag.Int("dies", 20000, "bonded-die samples for d2w (paper default 20000)")
		seed    = flag.Uint64("seed", 1, "RNG seed (equal seeds reproduce exactly)")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		pitch   = flag.Float64("pitch", 0, "bonding pitch in um (0 = baseline)")
		dieArea = flag.Float64("die-area", 0, "square chiplet area in mm^2 (0 = baseline)")
		density = flag.Float64("density", 0, "defect density in cm^-2 (0 = baseline)")

		twoD     = flag.Bool("2d-misalignment", false, "ablation: 2-D random overlay error instead of the paper's scalar convention")
		mainVoid = flag.Bool("main-void", false, "ablation (w2w only): dies also killed by the main-void disk, not just the tail")
	)
	flag.Parse()

	p := core.Baseline()
	if *pitch > 0 {
		p = p.WithPitch(*pitch * units.Micrometer)
	}
	if *dieArea > 0 {
		p = p.WithDieArea(*dieArea * units.SquareMillimeter)
	}
	if *density > 0 {
		p = p.WithDefectDensity(*density * units.PerSquareCentimeter)
	}

	opts := sim.Options{
		Params:                 p,
		Seed:                   *seed,
		Wafers:                 *wafers,
		Dies:                   *dies,
		Workers:                *workers,
		TwoDRandomMisalignment: *twoD,
		IncludeMainVoidW2W:     *mainVoid,
	}

	var (
		res   sim.Result
		model core.Breakdown
		err   error
	)
	switch *mode {
	case "w2w":
		model, err = p.EvaluateW2W()
		if err == nil {
			res, err = sim.RunW2W(opts)
		}
	case "d2w":
		model, err = p.EvaluateD2W()
		if err == nil {
			res, err = sim.RunD2W(opts)
		}
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "yapsim:", err)
		os.Exit(1)
	}

	fmt.Println(res)
	fmt.Printf("model:   %v\n", model)
	fmt.Printf("|sim-model| total = %.4f\n", abs(res.Yield-model.Total))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
