package sim

import (
	"context"
	"math"

	"yap/internal/faultinject"
	"yap/internal/geom"
	"yap/internal/overlay"
	"yap/internal/randx"
	"yap/internal/wafer"
)

// w2wEnv is the per-run immutable state shared by all W2W workers. Pad
// state is per region (internal/layout): the legacy uniform grid is the
// single full-die region, for which every loop below degenerates to the
// pre-layout scalar arithmetic bit-for-bit.
type w2wEnv struct {
	opts    Options
	dies    []wafer.Die
	regions []simRegion
	// padRects holds each die's per-region pad-array rectangles in wafer
	// coordinates, flattened as padRects[die*len(regions)+region].
	padRects []geom.Rect
	// dieIndex maps a grid cell (col, row keyed as col<<32|row, both offset
	// to be non-negative) to the die slice index, for fast segment lookup.
	dieIndex   map[uint64]int
	gridOffset int
	dieW, dieH float64

	sigma1   float64
	baseDist overlay.Distortion
	// sMin and sMax are the extreme systematic misalignments per die×region
	// rectangle under baseDist (recomputed per wafer when systematics are
	// redrawn), indexed like padRects.
	sMin, sMax []float64
	// corners are the pad-rect corner displacement vectors used by the 2-D
	// random misalignment mode, indexed like padRects.
	corners [][4]geom.Vec2

	recessQ     float64 // exact all-regions-all-pads-pass probability
	waferRadius float64
	particleMu  float64 // expected particles per wafer
}

func newW2WEnv(opts Options) (*w2wEnv, error) {
	p := opts.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	layout := p.Layout()
	dies := layout.Dies()
	if len(dies) == 0 {
		return nil, ErrNoDies
	}
	regions := buildRegions(p)
	env := &w2wEnv{
		opts:        opts,
		dies:        dies,
		regions:     regions,
		padRects:    make([]geom.Rect, len(dies)*len(regions)),
		dieIndex:    make(map[uint64]int, len(dies)),
		gridOffset:  1 << 16,
		dieW:        p.DieWidth,
		dieH:        p.DieHeight,
		sigma1:      p.RandomMisalignmentSigma,
		baseDist:    p.Distortion(),
		recessQ:     regionRecessProb(regions),
		waferRadius: p.WaferRadius(),
		particleMu:  p.DefectDensity * math.Pi * p.WaferRadius() * p.WaferRadius(),
	}
	for i, d := range dies {
		c := d.Center()
		for r, reg := range regions {
			env.padRects[i*len(regions)+r] = reg.rect.Translate(c)
		}
		env.dieIndex[env.cellKeyFor(c)] = i
	}
	env.prepareOverlay(env.baseDist)
	return env, nil
}

// cellKeyFor returns the grid key of the die cell containing point p.
func (e *w2wEnv) cellKeyFor(p geom.Vec2) uint64 {
	i := int(math.Floor(p.X/e.dieW)) + e.gridOffset
	j := int(math.Floor(p.Y/e.dieH)) + e.gridOffset
	return uint64(i)<<32 | uint64(uint32(j))
}

// prepareOverlay precomputes per-die×region systematic extremes for dist.
func (e *w2wEnv) prepareOverlay(dist overlay.Distortion) {
	e.sMin = make([]float64, len(e.padRects))
	e.sMax = make([]float64, len(e.padRects))
	e.corners = make([][4]geom.Vec2, len(e.padRects))
	for i, r := range e.padRects {
		e.sMin[i] = dist.MinOverRect(r)
		e.sMax[i] = dist.MaxOverRect(r)
		for k, c := range r.Corners() {
			e.corners[i][k] = dist.Displacement(c)
		}
	}
}

// RunW2W simulates opts.Wafers bonded wafer pairs and returns the
// per-mechanism and overall die yields (the simulation half of Fig. 4's
// workflow).
func RunW2W(opts Options) (Result, error) {
	return RunW2WContext(context.Background(), opts)
}

// RunW2WContext is RunW2W with cooperative cancellation and graceful
// degradation: each worker checks ctx between wafer samples and
// checkpoints its per-wafer tallies, so a context that fires mid-run
// (client disconnect, deadline) stops the run within one wafer's latency
// and returns the wafers that DID complete as a partial Result
// (Result.Partial set, Completed < Requested) with nil error — a valid
// yield estimate with a wider confidence interval. Only a run that is
// aborted before any wafer completes, or that hits an injected fault
// (Options.Faults), returns an error. Cancellation does not perturb
// determinism — every wafer draws from its own seed-derived RNG stream,
// so any wafer that completes contributes exactly what it would have
// contributed to an uncanceled run at any worker count.
func RunW2WContext(ctx context.Context, opts Options) (Result, error) {
	return Run(ctx, LocalRunner(), "w2w", opts)
}

// sampler returns the W2W kernel for the shared sample loop: one sample
// is one bonded wafer, and the loop polls ctx and fires the wafer hook
// before every one.
func (e *w2wEnv) sampler() sampler {
	s := sampler{mode: "W2W", unit: "wafer", hook: faultinject.HookSimW2WWafer, stride: 1, sample: e.simulateWafer}
	if e.opts.CollectPerDie {
		s.perDie = len(e.dies)
	}
	return s
}

// simulateWafer runs one bonded-wafer sample: every die on the wafer is
// subjected to the three checks. When perDie is non-nil the per-site
// outcomes are accumulated into it (index-aligned with e.dies).
func (e *w2wEnv) simulateWafer(rng *randx.Source, perDie []Counts) Counts {
	n := len(e.dies)
	c := Counts{Dies: n}

	sMin, sMax, corners := e.sMin, e.sMax, e.corners
	if e.opts.PerWaferSystematics {
		p := e.opts.Params
		dist := overlay.Distortion{
			TX:       rng.Normal(p.TranslationX, p.PlacementTranslationSigma),
			TY:       rng.Normal(p.TranslationY, p.PlacementTranslationSigma),
			Rotation: rng.Normal(p.Rotation, p.PlacementRotationSigma),
			Magnification: overlay.MagnificationFromWarpage(
				p.KMag, rng.Normal(p.Warpage, p.PlacementWarpageSigma)),
		}
		local := &w2wEnv{dies: e.dies, regions: e.regions, padRects: e.padRects}
		local.prepareOverlay(dist)
		sMin, sMax, corners = local.sMin, local.sMax, local.corners
	}

	// Overlay Check. The random misalignment is drawn once per die (shared
	// by all its regions' pads); a die passes when the worst pad of every
	// region stays within that region's ±δ.
	nR := len(e.regions)
	overlayPass := make([]bool, n)
	for i := 0; i < n; i++ {
		if e.opts.ExplicitOverlayPads {
			u := rng.Normal(0, e.sigma1)
			overlayPass[i] = e.explicitOverlayCheck(i, u)
		} else if e.opts.TwoDRandomMisalignment {
			u := geom.Vec2{X: rng.Normal(0, e.sigma1), Y: rng.Normal(0, e.sigma1)}
			pass := true
			for r := 0; r < nR && pass; r++ {
				worst := 0.0
				for _, v := range corners[i*nR+r] {
					if m := v.Add(u).Norm(); m > worst {
						worst = m
					}
				}
				pass = worst <= e.regions[r].delta
			}
			overlayPass[i] = pass
		} else {
			u := rng.Normal(0, e.sigma1)
			pass := true
			for r := 0; r < nR && pass; r++ {
				k := i*nR + r
				delta := e.regions[r].delta
				pass = math.Abs(sMax[k]+u) <= delta && math.Abs(sMin[k]+u) <= delta
			}
			overlayPass[i] = pass
		}
		if overlayPass[i] {
			c.OverlayPass++
		}
	}

	// Defect Check: Poisson particles over the wafer, each sweeping a void
	// tail radially outward with the bond wave (Fig. 3a / Fig. 6).
	killed := make([]bool, n)
	if e.opts.ModelConventionDefects {
		e.modelConventionDefects(rng, killed)
	} else {
		particles := rng.Poisson(e.particleMu)
		for k := 0; k < particles; k++ {
			x, y := rng.InDiskClustered(e.waferRadius, e.opts.Params.RadialDefectClustering)
			t := rng.ParticleThickness(e.opts.Params.MinParticleThickness, e.opts.Params.DefectShape)
			e.applyParticle(geom.Vec2{X: x, Y: y}, t, killed)
		}
	}
	defectPass := make([]bool, n)
	for i := 0; i < n; i++ {
		defectPass[i] = !killed[i]
		if defectPass[i] {
			c.DefectPass++
		}
	}

	// Cu Recess Check: all N pad-height sums must stay inside (ζ₋, ζ₊).
	// A common-mode CMP drift (if configured) is drawn once per wafer and
	// shared by every die on it.
	rp := e.opts.Params.RecessParams()
	var waferShift float64
	recessQ := e.recessQ
	if rp.WaferSigma > 0 {
		waferShift = rng.Normal(0, rp.WaferSigma)
		recessQ = regionRecessProbShifted(e.regions, waferShift)
	}
	for i := 0; i < n; i++ {
		recessPass := e.recessCheck(rng, recessQ, waferShift)
		if recessPass {
			c.RecessPass++
		}
		survived := recessPass && overlayPass[i] && defectPass[i]
		if survived {
			c.Survived++
		}
		if perDie != nil {
			perDie[i].Dies++
			if overlayPass[i] {
				perDie[i].OverlayPass++
			}
			if defectPass[i] {
				perDie[i].DefectPass++
			}
			if recessPass {
				perDie[i].RecessPass++
			}
			if survived {
				perDie[i].Survived++
			}
		}
	}
	return c
}

// explicitOverlayCheck walks every pad of every region of die i, evaluating
// the systematic displacement at the pad center plus the shared random
// error — the O(N)-per-die path the paper's simulator takes.
func (e *w2wEnv) explicitOverlayCheck(i int, u float64) bool {
	center := e.dies[i].Rect.Center()
	dist := e.baseDist
	for _, reg := range e.regions {
		for ix := 0; ix < reg.grid.NX; ix++ {
			for iy := 0; iy < reg.grid.NY; iy++ {
				local := reg.grid.PadCenter(ix, iy)
				s := dist.Magnitude(geom.Vec2{X: center.X + local.X, Y: center.Y + local.Y})
				if math.Abs(s+u) > reg.delta {
					return false
				}
			}
		}
	}
	return true
}

// recessCheck performs one die's Cu recess check at the given wafer-level
// survival probability (exact Bernoulli path) or mean shift (explicit
// per-pad path over every region).
func (e *w2wEnv) recessCheck(rng *randx.Source, q, shift float64) bool {
	if !e.opts.ExplicitRecessPads {
		return rng.Bernoulli(q)
	}
	return explicitRecessRegions(rng, e.regions, shift)
}

// modelConventionDefects draws defects under the analytic model's
// idealization (Options.ModelConventionDefects): anchors uniform over a
// margin-extended box covering every die, tail length from the marginal
// f_l law (a virtual uniform-disk position times the thickness law),
// orientation uniform. The margin is three tail knees; the truncated tail
// mass beyond it is O((1/3)⁴/3) of the tail term for z = 3.
func (e *w2wEnv) modelConventionDefects(rng *randx.Source, killed []bool) {
	p := e.opts.Params
	dp := p.DefectParams()
	margin := 3 * dp.TailKnee()
	r := e.waferRadius + margin
	field := geom.Rect{X0: -r, Y0: -r, X1: r, Y1: r}
	particles := rng.Poisson(p.DefectDensity * field.Area())
	for k := 0; k < particles; k++ {
		x, y := rng.InRect(field.X0, field.Y0, field.X1, field.Y1)
		// Marginal tail law: virtual radius uniform over the wafer disk,
		// thickness from the Glang law (exactly Eq. 18's generative form).
		vx, vy := rng.InDisk(e.waferRadius)
		t := rng.ParticleThickness(p.MinParticleThickness, p.DefectShape)
		l := dp.TailLength(math.Hypot(vx, vy), t)
		phi := rng.Angle()
		seg := geom.Segment{
			A: geom.Vec2{X: x, Y: y},
			B: geom.Vec2{X: x + l*math.Cos(phi), Y: y + l*math.Sin(phi)},
		}
		e.killAlongSegment(seg, 0, killed)
	}
}

// applyParticle marks the dies killed by one particle's void. The defect is
// the tail segment from the particle outward along the bond-wave radial
// direction (Eq. 16); with IncludeMainVoidW2W the main-void disk (Eq. 15)
// also kills.
func (e *w2wEnv) applyParticle(pos geom.Vec2, t float64, killed []bool) {
	p := e.opts.Params
	dist := pos.Norm()
	dp := p.DefectParams()
	tailLen := dp.TailLength(dist, t)
	var dir geom.Vec2
	if dist > 0 {
		dir = pos.Scale(1 / dist)
	} else {
		dir = geom.Vec2{X: 1} // center particle: degenerate radial direction
	}
	seg := geom.Segment{A: pos, B: pos.Add(dir.Scale(tailLen))}

	var voidR float64
	if e.opts.IncludeMainVoidW2W {
		voidR = dp.MainVoidRadius(dist, t)
	}
	e.killAlongSegment(seg, voidR, killed)
}

// killAlongSegment marks the dies whose pad regions are touched by the
// tail segment (or, when voidR > 0, by the main-void disk around the
// segment's anchor). Candidate dies come from the regular grid cells
// overlapped by the defect's bounding box rather than a scan of all dies;
// each candidate tests every region's pad-array rectangle.
func (e *w2wEnv) killAlongSegment(seg geom.Segment, voidR float64, killed []bool) {
	bx0 := math.Min(seg.A.X, seg.B.X) - voidR
	bx1 := math.Max(seg.A.X, seg.B.X) + voidR
	by0 := math.Min(seg.A.Y, seg.B.Y) - voidR
	by1 := math.Max(seg.A.Y, seg.B.Y) + voidR
	i0 := int(math.Floor(bx0/e.dieW)) + e.gridOffset
	i1 := int(math.Floor(bx1/e.dieW)) + e.gridOffset
	j0 := int(math.Floor(by0/e.dieH)) + e.gridOffset
	j1 := int(math.Floor(by1/e.dieH)) + e.gridOffset
	nR := len(e.regions)
	for i := i0; i <= i1; i++ {
		for j := j0; j <= j1; j++ {
			idx, ok := e.dieIndex[uint64(i)<<32|uint64(uint32(j))]
			if !ok || killed[idx] {
				continue
			}
			for r := 0; r < nR; r++ {
				rect := e.padRects[idx*nR+r]
				if seg.IntersectsRect(rect) {
					killed[idx] = true
					break
				}
				if voidR > 0 && geom.CircleOverlapsRect(seg.A, voidR, rect) {
					killed[idx] = true
					break
				}
			}
		}
	}
}
