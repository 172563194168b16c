package sim

import (
	"context"
	"math"

	"yap/internal/core"
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
	regions []core.Region

	sigma1    float64
	placement placementLaw
	// refRadius and halfDiag rescale the drawn wafer-level rotation and
	// magnification to the die (Distortion.ScaleToDie).
	refRadius, halfDiag float64

	recess recessCheck

	effR      float64 // effective die radius √(ab/π) of Eq. 24
	extRect   geom.Rect
	particles randx.PoissonLaw // particles over extRect per die
	defect    defect.Params
}

func newD2WEnv(opts Options) (*d2wEnv, error) {
	p := opts.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	regions := p.Regions()
	dp := p.DefectParams()
	effR := wafer.EffectiveDieRadius(p.DieWidth, p.DieHeight)
	// Particle-sampling margin: void squares larger than margin·knee are
	// truncated; with the factor 20 and z = 3 that is a ~20⁻⁴
	// relative tail loss (DESIGN.md §2.8). The pad-reach term uses the
	// largest top-pad half-side over the regions, so a wide-pad region near
	// the die edge still sees its full particle flux.
	var padHalf float64
	for i := range regions {
		padHalf = max(padHalf, regions[i].Geometry.TopDiameter/2)
	}
	knee := dp.MainVoidRadius(effR, p.MinParticleThickness)
	margin := 20*knee + padHalf
	ext := geom.RectAround(geom.Vec2{}, p.DieWidth, p.DieHeight).Expand(margin)
	return &d2wEnv{
		opts:      opts,
		regions:   regions,
		sigma1:    p.RandomMisalignmentSigma,
		placement: newPlacementLaw(p),
		refRadius: p.WaferRadius(),
		halfDiag:  wafer.HalfDiagonal(p.DieWidth, p.DieHeight),
		recess:    newRecessCheck(opts, regions),
		effR:      effR,
		extRect:   ext,
		particles: randx.NewPoissonLaw(p.DefectDensity * ext.Area()),
		defect:    dp,
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
	// The common-mode CMP drift (if configured) is drawn per bond event,
	// so per die, and shared by all its regions.
	shift, q := e.recess.drift(rng)
	recessPass := e.recess.pass(rng, shift, q)
	if recessPass {
		c.RecessPass++
	}
	if c.OverlayPass == 1 && defectPass && recessPass {
		c.Survived++
	}
	return c
}

// overlayCheck draws this die's placement (systematic terms vary
// independently die-to-die, §III-E-1) plus the shared random error and
// tests the worst pad, in die-local coordinates.
func (e *d2wEnv) overlayCheck(rng *randx.Source) bool {
	dist := e.placement.draw(rng).ScaleToDie(e.refRadius, e.halfDiag)

	switch {
	case e.opts.ExplicitPads:
		return padsPass(dist, geom.Vec2{}, e.regions, rng.Normal(0, e.sigma1))
	case e.opts.TwoDRandomMisalignment:
		u := geom.Vec2{X: rng.Normal(0, e.sigma1), Y: rng.Normal(0, e.sigma1)}
		return cornersPass2D(dist, geom.Vec2{}, e.regions, u)
	}
	u := rng.Normal(0, e.sigma1)
	for r := range e.regions {
		reg := &e.regions[r]
		if !d2wRegionPasses(dist, reg.Grid.Rect, &reg.Corners, u, reg.Delta) {
			return false
		}
	}
	return true
}

// defectCheck samples particles around the die and tests each main void
// (a square of half-side r_mv, Eq. 15/25) against the pad grid.
func (e *d2wEnv) defectCheck(rng *randx.Source) bool {
	particles := e.particles.Draw(rng)
	for k := 0; k < particles; k++ {
		x, y := rng.InRect(e.extRect.X0, e.extRect.Y0, e.extRect.X1, e.extRect.Y1)
		// L is the distance from the die center, clamped to the effective
		// radius to match Eq. 24's support (DESIGN.md §2.8).
		l := min(math.Hypot(x, y), e.effR)
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
	for r := range e.regions {
		reg := &e.regions[r]
		grid := reg.Grid
		if grid.NX == 0 || grid.NY == 0 {
			continue
		}
		reach := rv + reg.Geometry.TopDiameter/2
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
