package sim

import (
	"context"
	"math"

	"yap/internal/core"
	"yap/internal/defect"
	"yap/internal/faultinject"
	"yap/internal/geom"
	"yap/internal/overlay"
	"yap/internal/randx"
	"yap/internal/wafer"
)

// w2wEnv is the per-run immutable state shared by all W2W workers: every
// input of a wafer sample that does not depend on the sample, resolved
// from Options once per run. Pad state is per region (internal/layout):
// the paper's uniform grid is the single full-die region.
type w2wEnv struct {
	opts    Options
	dies    []wafer.Die
	regions []core.Region
	// padRects holds each die's per-region pad-array rectangles in wafer
	// coordinates, flattened as padRects[die*len(regions)+region].
	padRects []geom.Rect
	// cells indexes the die grid densely over its bounding cells: the die
	// whose center lies in grid cell (col, row) is
	// cells[(col-col0)*rows+(row-row0)]-1, and 0 marks a cell with no die.
	cells      []int32
	col0, row0 int
	cols, rows int
	dieW, dieH float64

	sigma1   float64
	baseDist overlay.Distortion
	// pass is each die's exact pass set of the scalar random misalignment
	// under baseDist (scalarPass intersected over its regions), built only
	// when the run takes the scalar overlay check.
	pass []interval

	recess      recessCheck
	waferRadius float64
	particles   randx.PoissonLaw // particles per wafer
	defect      defect.Params
	// modelField and modelParticles are the particle field and its
	// particle count law under ModelConventionDefects.
	modelField     geom.Rect
	modelParticles randx.PoissonLaw
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
	regions := p.Regions()
	dp := p.DefectParams()
	fieldR := p.WaferRadius() + 3*dp.TailKnee()
	field := geom.Rect{X0: -fieldR, Y0: -fieldR, X1: fieldR, Y1: fieldR}
	env := &w2wEnv{
		opts:           opts,
		dies:           dies,
		regions:        regions,
		padRects:       make([]geom.Rect, len(dies)*len(regions)),
		dieW:           p.DieWidth,
		dieH:           p.DieHeight,
		sigma1:         p.RandomMisalignmentSigma,
		baseDist:       p.Distortion(),
		recess:         newRecessCheck(opts, regions),
		waferRadius:    p.WaferRadius(),
		particles:      randx.NewPoissonLaw(p.DefectDensity * math.Pi * p.WaferRadius() * p.WaferRadius()),
		defect:         dp,
		modelField:     field,
		modelParticles: randx.NewPoissonLaw(p.DefectDensity * field.Area()),
	}
	for i, d := range dies {
		c := d.Center()
		for r := range regions {
			env.padRects[i*len(regions)+r] = regions[r].Grid.Rect.Translate(c)
		}
	}
	env.indexCells()
	if !opts.ExplicitPads && !opts.TwoDRandomMisalignment {
		env.pass = env.passSets()
	}
	return env, nil
}

// cellOf returns the grid cell (col, row) holding point p.
func (e *w2wEnv) cellOf(p geom.Vec2) (col, row int) {
	return int(math.Floor(p.X / e.dieW)), int(math.Floor(p.Y / e.dieH))
}

// indexCells builds the dense die-cell index.
func (e *w2wEnv) indexCells() {
	col1, row1 := e.cellOf(e.dies[0].Center())
	e.col0, e.row0 = col1, row1
	for _, d := range e.dies {
		col, row := e.cellOf(d.Center())
		e.col0, col1 = min(e.col0, col), max(col1, col)
		e.row0, row1 = min(e.row0, row), max(row1, row)
	}
	e.cols, e.rows = col1-e.col0+1, row1-e.row0+1
	e.cells = make([]int32, e.cols*e.rows)
	for i, d := range e.dies {
		col, row := e.cellOf(d.Center())
		e.cells[(col-e.col0)*e.rows+row-e.row0] = int32(i + 1)
	}
}

// cellSpan returns the index offsets [first, end) of the grid cells
// floor(lo/size) … floor(hi/size), clipped to the n cells of the index
// starting at cell origin.
func cellSpan(lo, hi, size float64, origin, n int) (first, end int) {
	a := max(math.Floor(lo/size)-float64(origin), 0)
	b := min(math.Floor(hi/size)-float64(origin)+1, float64(n))
	if !(a < b) {
		return 0, 0
	}
	return int(a), int(b)
}

// passSets returns each die's pass set of the scalar random misalignment
// under baseDist: scalarPass of every region's s_min and s_max,
// intersected.
func (e *w2wEnv) passSets() []interval {
	pass := make([]interval, len(e.dies))
	nR := len(e.regions)
	for i := range pass {
		iv := everything
		for r := range e.regions {
			rect := e.padRects[i*nR+r]
			iv = iv.intersect(scalarPass(e.baseDist.MinOverRect(rect), e.baseDist.MaxOverRect(rect), e.regions[r].Delta))
		}
		pass[i] = iv
	}
	return pass
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
	s := sampler{mode: "W2W", unit: "wafer", hook: faultinject.HookSimW2WWafer, stride: 1, newWorker: e.newWorker}
	if e.opts.CollectPerDie {
		s.perDie = len(e.dies)
	}
	return s
}

// w2wWorker is one worker's scratch: the per-die verdicts of the wafer in
// flight.
type w2wWorker struct {
	*w2wEnv
	overlayPass, killed []bool
}

func (e *w2wEnv) newWorker() sampleFunc {
	w := &w2wWorker{w2wEnv: e, overlayPass: make([]bool, len(e.dies)), killed: make([]bool, len(e.dies))}
	return w.simulateWafer
}

// simulateWafer runs one bonded-wafer sample: every die on the wafer is
// subjected to the three checks. When perDie is non-nil the per-site
// outcomes are accumulated into it (index-aligned with e.dies).
func (w *w2wWorker) simulateWafer(rng *randx.Source, perDie []Counts) Counts {
	e := w.w2wEnv
	n := len(e.dies)
	c := Counts{Dies: n}

	// Overlay Check. The systematic distortion is the parameter set's,
	// shared by every wafer; the random misalignment is drawn once per die
	// (shared by all its regions' pads). A die passes when the worst pad of
	// every region stays within that region's ±δ. In the scalar mode that
	// is membership of u in the die's pass set, built per run from every
	// region's s_min and s_max. The mode is fixed per run, so it is chosen
	// once per wafer; the passes are counted with the other checks below.
	overlayPass := w.overlayPass
	switch {
	case e.opts.ExplicitPads:
		for i := range overlayPass {
			overlayPass[i] = padsPass(e.baseDist, e.dies[i].Center(), e.regions, rng.Normal(0, e.sigma1))
		}
	case e.opts.TwoDRandomMisalignment:
		for i := range overlayPass {
			u := geom.Vec2{X: rng.Normal(0, e.sigma1), Y: rng.Normal(0, e.sigma1)}
			overlayPass[i] = cornersPass2D(e.baseDist, e.dies[i].Center(), e.regions, u)
		}
	default:
		for i, iv := range e.pass {
			overlayPass[i] = iv.contains(rng.Normal(0, e.sigma1))
		}
	}

	// Defect Check: Poisson particles over the wafer, each sweeping a void
	// tail radially outward with the bond wave (Fig. 3a / Fig. 6).
	killed := w.killed
	clear(killed)
	if e.opts.ModelConventionDefects {
		e.modelConventionDefects(rng, killed)
	} else {
		particles := e.particles.Draw(rng)
		for k := 0; k < particles; k++ {
			x, y := rng.InDiskClustered(e.waferRadius, e.defect.RadialClustering)
			t := rng.ParticleThickness(e.defect.MinThickness, e.defect.Shape)
			e.applyParticle(geom.Vec2{X: x, Y: y}, t, killed)
		}
	}
	for i := 0; i < n; i++ {
		if !killed[i] {
			c.DefectPass++
		}
	}

	// Cu Recess Check: all N pad-height sums must stay inside (ζ₋, ζ₊).
	// A common-mode CMP drift (if configured) is drawn once per wafer and
	// shared by every die on it.
	shift, q := e.recess.drift(rng)
	for i := 0; i < n; i++ {
		recessPass := e.recess.pass(rng, shift, q)
		if recessPass {
			c.RecessPass++
		}
		if overlayPass[i] {
			c.OverlayPass++
		}
		defectPass := !killed[i]
		survived := recessPass && overlayPass[i] && defectPass
		if survived {
			c.Survived++
		}
		if perDie != nil {
			perDie[i].Dies++
			if overlayPass[i] {
				perDie[i].OverlayPass++
			}
			if defectPass {
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

// modelConventionDefects draws defects under the analytic model's
// idealization (Options.ModelConventionDefects): anchors uniform over a
// margin-extended box covering every die, tail length from the marginal
// f_l law (a virtual uniform-disk position times the thickness law),
// orientation uniform. The margin is three tail knees; the truncated tail
// mass beyond it is O((1/3)⁴/3) of the tail term for z = 3.
func (e *w2wEnv) modelConventionDefects(rng *randx.Source, killed []bool) {
	field := e.modelField
	particles := e.modelParticles.Draw(rng)
	for k := 0; k < particles; k++ {
		x, y := rng.InRect(field.X0, field.Y0, field.X1, field.Y1)
		// Marginal tail law: virtual radius uniform over the wafer disk,
		// thickness from the Glang law (exactly Eq. 18's generative form).
		vx, vy := rng.InDisk(e.waferRadius)
		t := rng.ParticleThickness(e.defect.MinThickness, e.defect.Shape)
		l := e.defect.TailLength(math.Hypot(vx, vy), t)
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
	dist := pos.Norm()
	var voidR float64
	if e.opts.IncludeMainVoidW2W {
		voidR = e.defect.MainVoidRadius(dist, t)
	}
	e.killAlongSegment(radialTail(pos, dist, e.defect.TailLength(dist, t)), voidR, killed)
}

// radialTail is the void tail of a particle at pos, dist = |pos| from the
// wafer center: the segment of length l from the particle outward along
// the bond wave's radial direction (Eq. 16). A particle at the center
// takes the +x direction.
func radialTail(pos geom.Vec2, dist, l float64) geom.Segment {
	dir := geom.Vec2{X: 1}
	if dist > 0 {
		dir = pos.Scale(1 / dist)
	}
	return geom.Segment{A: pos, B: pos.Add(dir.Scale(l))}
}

// killAlongSegment marks the dies whose pad regions are touched by the
// tail segment (or, when voidR > 0, by the main-void disk around the
// segment's anchor). Candidate dies come from the regular grid cells
// overlapped by the defect's bounding box rather than a scan of all dies;
// each candidate tests every region's pad-array rectangle.
func (e *w2wEnv) killAlongSegment(seg geom.Segment, voidR float64, killed []bool) {
	c0, c1 := cellSpan(min(seg.A.X, seg.B.X)-voidR, max(seg.A.X, seg.B.X)+voidR, e.dieW, e.col0, e.cols)
	r0, r1 := cellSpan(min(seg.A.Y, seg.B.Y)-voidR, max(seg.A.Y, seg.B.Y)+voidR, e.dieH, e.row0, e.rows)
	nR := len(e.regions)
	for col := c0; col < c1; col++ {
		for _, cell := range e.cells[col*e.rows+r0 : col*e.rows+r1] {
			idx := int(cell) - 1
			if idx < 0 || killed[idx] {
				continue
			}
			for _, rect := range e.padRects[idx*nR : (idx+1)*nR] {
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
