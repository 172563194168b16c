package sim

import (
	"context"
	"math"

	"yap/internal/defect"
	"yap/internal/faultinject"
	"yap/internal/geom"
	"yap/internal/randx"
	"yap/internal/wafer"
)

// d2wEnv is the per-run immutable state shared by all D2W workers: every
// input of a die sample that does not depend on the sample, resolved from
// Options once per run. Pad state is per region (internal/layout): the
// paper's uniform grid is the single full-die region.
type d2wEnv struct {
	opts    Options
	regions []simRegion

	sigma1    float64
	placement placementLaw
	// dieScale converts the drawn wafer-level rotation and magnification
	// to the die's (Distortion.ScaleToDie): R_ref / r_d, or 1 when the
	// half-diagonal is not positive.
	dieScale float64

	recessQ          float64
	recessWaferSigma float64

	effR       float64 // effective die radius √(ab/π) of Eq. 24
	extRect    geom.Rect
	particleMu float64
	defect     defect.Params
}

func newD2WEnv(opts Options) (*d2wEnv, error) {
	p := opts.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	regions := buildRegions(p)
	dp := p.DefectParams()
	effR := wafer.EffectiveDieRadius(p.DieWidth, p.DieHeight)
	// Particle-sampling margin: void squares larger than margin·knee are
	// truncated; with the factor 20 and z = 3 that is a ~20⁻⁴
	// relative tail loss (DESIGN.md §2.8). The pad-reach term uses the
	// largest top-pad half-side over the regions, so a wide-pad region near
	// the die edge still sees its full particle flux.
	knee := dp.MainVoidRadius(effR, p.MinParticleThickness)
	margin := 20*knee + maxPadHalf(regions)
	ext := geom.RectAround(geom.Vec2{}, p.DieWidth, p.DieHeight).Expand(margin)
	dieScale := 1.0
	if halfDiag := wafer.HalfDiagonal(p.DieWidth, p.DieHeight); halfDiag > 0 {
		dieScale = p.WaferRadius() / halfDiag
	}
	return &d2wEnv{
		opts:             opts,
		regions:          regions,
		sigma1:           p.RandomMisalignmentSigma,
		placement:        newPlacementLaw(p),
		dieScale:         dieScale,
		recessQ:          regionRecessProb(regions),
		recessWaferSigma: p.RecessWaferSigma,
		effR:             effR,
		extRect:          ext,
		particleMu:       p.DefectDensity * ext.Area(),
		defect:           dp,
	}, nil
}

// RunD2W simulates opts.Dies die-to-wafer bond events and returns the
// per-mechanism and overall die yields.
func RunD2W(opts Options) (Result, error) {
	return RunD2WContext(context.Background(), opts)
}

// d2wCancelStride bounds how many die samples a worker simulates between
// context checks; one die is orders of magnitude cheaper than a W2W wafer,
// so checking every sample would spend a measurable fraction of the loop
// on the select.
const d2wCancelStride = 64

// RunD2WContext is RunD2W with cooperative cancellation and graceful
// degradation (see RunW2WContext): workers poll ctx every d2wCancelStride
// die samples and checkpoint their tallies, so a context that fires
// mid-run returns the dies that DID complete as a partial Result with nil
// error. Only a run aborted before any die completes, or one that hits an
// injected fault (Options.Faults), returns an error. Determinism is
// unaffected — each die sample draws from its own seed-derived stream.
func RunD2WContext(ctx context.Context, opts Options) (Result, error) {
	return Run(ctx, LocalRunner(), "d2w", opts)
}

// sampler returns the D2W kernel for the shared sample loop: one sample
// is one bonded die. A die sample needs no scratch, so every worker shares
// the environment.
func (e *d2wEnv) sampler() sampler {
	return sampler{mode: "D2W", unit: "die", hook: faultinject.HookSimD2WDie, stride: d2wCancelStride,
		newWorker: func() sampleFunc {
			return func(rng *randx.Source, _ []Counts) Counts { return e.simulateDie(rng) }
		}}
}

// simulateDie runs one bonded-die sample through the three checks.
func (e *d2wEnv) simulateDie(rng *randx.Source) Counts {
	c := Counts{Dies: 1}

	if e.overlayCheck(rng) {
		c.OverlayPass++
	}
	defectPass := e.defectCheck(rng)
	if defectPass {
		c.DefectPass++
	}
	recessPass := e.recessCheck(rng)
	if recessPass {
		c.RecessPass++
	}
	if c.OverlayPass == 1 && defectPass && recessPass {
		c.Survived++
	}
	return c
}

// recessCheck performs one die's Cu recess check: the exact Bernoulli
// shortcut by default, or the explicit per-pad draw over every region when
// requested. The common-mode CMP drift (if configured) is drawn per bond
// event and shared by all regions.
func (e *d2wEnv) recessCheck(rng *randx.Source) bool {
	var shift float64
	q := e.recessQ
	if e.recessWaferSigma > 0 {
		shift = rng.Normal(0, e.recessWaferSigma)
		q = regionRecessProbShifted(e.regions, shift)
	}
	if !e.opts.ExplicitRecessPads {
		return rng.Bernoulli(q)
	}
	return explicitRecessRegions(rng, e.regions, shift)
}

// overlayCheck draws this die's placement (systematic terms vary
// independently die-to-die, §III-E-1) plus the shared random error and
// tests the worst pad.
func (e *d2wEnv) overlayCheck(rng *randx.Source) bool {
	dist := e.placement.draw(rng)
	dist.Rotation *= e.dieScale
	dist.Magnification *= e.dieScale

	if e.opts.ExplicitOverlayPads {
		u := rng.Normal(0, e.sigma1)
		for _, reg := range e.regions {
			for ix := 0; ix < reg.grid.NX; ix++ {
				for iy := 0; iy < reg.grid.NY; iy++ {
					if math.Abs(dist.Magnitude(reg.grid.PadCenter(ix, iy))+u) > reg.delta {
						return false
					}
				}
			}
		}
		return true
	}
	if e.opts.TwoDRandomMisalignment {
		u := geom.Vec2{X: rng.Normal(0, e.sigma1), Y: rng.Normal(0, e.sigma1)}
		for r := range e.regions {
			reg := &e.regions[r]
			worst := 0.0
			for _, corner := range reg.corners {
				if m := dist.Displacement(corner).Add(u).Norm(); m > worst {
					worst = m
				}
			}
			if worst > reg.delta {
				return false
			}
		}
		return true
	}
	u := rng.Normal(0, e.sigma1)
	for r := range e.regions {
		reg := &e.regions[r]
		if !d2wRegionPasses(dist, reg.rect, &reg.corners, u, reg.delta) {
			return false
		}
	}
	return true
}

// defectCheck samples particles around the die and tests each main void
// (a square of half-side r_mv, Eq. 15/25) against the pad grid.
func (e *d2wEnv) defectCheck(rng *randx.Source) bool {
	particles := rng.Poisson(e.particleMu)
	for k := 0; k < particles; k++ {
		x, y := rng.InRect(e.extRect.X0, e.extRect.Y0, e.extRect.X1, e.extRect.Y1)
		// L is the distance from the die center, clamped to the effective
		// radius to match Eq. 24's support (DESIGN.md §2.8).
		l := math.Min(math.Hypot(x, y), e.effR)
		t := rng.ParticleThickness(e.defect.MinThickness, e.defect.Shape)
		rv := e.defect.MainVoidRadius(l, t)
		if e.voidKills(geom.Vec2{X: x, Y: y}, rv) {
			return false
		}
	}
	return true
}

// voidKills reports whether a square void of half-side rv centered at pos
// overlaps any square pad of any region: per region, whether the nearest
// pad center lies within L∞ distance rv + r₁. On a full grid the per-axis
// nearest center (clamped rounding) is the L∞-nearest pad, so the per-
// region test is exact in both branches of Eq. 25.
func (e *d2wEnv) voidKills(pos geom.Vec2, rv float64) bool {
	for _, reg := range e.regions {
		grid := reg.grid
		if grid.NX == 0 || grid.NY == 0 {
			continue
		}
		reach := rv + reg.padHalf
		nearest := func(v, lo float64, n int) float64 {
			idx := math.Round((v-lo)/grid.Pitch - 0.5)
			if idx < 0 {
				idx = 0
			}
			if idx > float64(n-1) {
				idx = float64(n - 1)
			}
			return lo + (idx+0.5)*grid.Pitch
		}
		cx := nearest(pos.X, grid.Rect.X0, grid.NX)
		cy := nearest(pos.Y, grid.Rect.Y0, grid.NY)
		if math.Abs(pos.X-cx) <= reach && math.Abs(pos.Y-cy) <= reach {
			return true
		}
	}
	return false
}
