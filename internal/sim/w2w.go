package sim

import (
	"context"
	"math"

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
	regions []simRegion
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

	sigma1    float64
	baseDist  overlay.Distortion
	placement placementLaw
	// pass is each die's exact pass set of the scalar random misalignment
	// under baseDist (scalarPass intersected over its regions); corners are
	// the pad-rect corner displacements under baseDist that the 2-D random
	// misalignment mode tests, indexed like padRects. Each is built only
	// for the overlay mode that reads it.
	pass    []interval
	corners [][4]geom.Vec2

	recessQ          float64 // exact all-regions-all-pads-pass probability
	recessWaferSigma float64
	waferRadius      float64
	particleMu       float64 // expected particles per wafer
	defect           defect.Params
	// modelField and modelMu are the particle field and its expected count
	// under ModelConventionDefects.
	modelField geom.Rect
	modelMu    float64
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
	dp := p.DefectParams()
	fieldR := p.WaferRadius() + 3*dp.TailKnee()
	field := geom.Rect{X0: -fieldR, Y0: -fieldR, X1: fieldR, Y1: fieldR}
	env := &w2wEnv{
		opts:             opts,
		dies:             dies,
		regions:          regions,
		padRects:         make([]geom.Rect, len(dies)*len(regions)),
		dieW:             p.DieWidth,
		dieH:             p.DieHeight,
		sigma1:           p.RandomMisalignmentSigma,
		baseDist:         p.Distortion(),
		placement:        newPlacementLaw(p),
		recessQ:          regionRecessProb(regions),
		recessWaferSigma: p.RecessWaferSigma,
		waferRadius:      p.WaferRadius(),
		particleMu:       p.DefectDensity * math.Pi * p.WaferRadius() * p.WaferRadius(),
		defect:           dp,
		modelField:       field,
		modelMu:          p.DefectDensity * field.Area(),
	}
	for i, d := range dies {
		c := d.Center()
		for r, reg := range regions {
			env.padRects[i*len(regions)+r] = reg.rect.Translate(c)
		}
	}
	env.indexCells()
	env.pass, env.corners = env.overlayBuffers()
	env.prepareOverlay(env.baseDist, env.pass, env.corners)
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

// overlayBuffers allocates the per-die overlay inputs the run's overlay
// mode reads: pass for the scalar check, corners for the 2-D one, neither
// for the explicit per-pad check.
func (e *w2wEnv) overlayBuffers() (pass []interval, corners [][4]geom.Vec2) {
	switch {
	case e.opts.ExplicitOverlayPads:
	case e.opts.TwoDRandomMisalignment:
		corners = make([][4]geom.Vec2, len(e.padRects))
	default:
		pass = make([]interval, len(e.dies))
	}
	return pass, corners
}

// prepareOverlay fills the overlay inputs allocated by overlayBuffers for
// the distortion dist.
func (e *w2wEnv) prepareOverlay(dist overlay.Distortion, pass []interval, corners [][4]geom.Vec2) {
	for k := range corners {
		for c, v := range e.padRects[k].Corners() {
			corners[k][c] = dist.Displacement(v)
		}
	}
	nR := len(e.regions)
	for i := range pass {
		iv := everything
		for r, reg := range e.regions {
			rect := e.padRects[i*nR+r]
			iv = iv.intersect(scalarPass(dist.MinOverRect(rect), dist.MaxOverRect(rect), reg.delta))
		}
		pass[i] = iv
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
	s := sampler{mode: "W2W", unit: "wafer", hook: faultinject.HookSimW2WWafer, stride: 1, newWorker: e.newWorker}
	if e.opts.CollectPerDie {
		s.perDie = len(e.dies)
	}
	return s
}

// w2wWorker is one worker's scratch: per-die verdicts of the wafer in
// flight and, under PerWaferSystematics, that wafer's overlay inputs.
type w2wWorker struct {
	*w2wEnv
	overlayPass, killed []bool
	pass                []interval
	corners             [][4]geom.Vec2
}

func (e *w2wEnv) newWorker() sampleFunc {
	w := &w2wWorker{w2wEnv: e, overlayPass: make([]bool, len(e.dies)), killed: make([]bool, len(e.dies))}
	if e.opts.PerWaferSystematics {
		w.pass, w.corners = e.overlayBuffers()
	}
	return w.simulateWafer
}

// simulateWafer runs one bonded-wafer sample: every die on the wafer is
// subjected to the three checks. When perDie is non-nil the per-site
// outcomes are accumulated into it (index-aligned with e.dies).
func (w *w2wWorker) simulateWafer(rng *randx.Source, perDie []Counts) Counts {
	e := w.w2wEnv
	n := len(e.dies)
	c := Counts{Dies: n}

	pass, corners := e.pass, e.corners
	if e.opts.PerWaferSystematics {
		e.prepareOverlay(e.placement.draw(rng), w.pass, w.corners)
		pass, corners = w.pass, w.corners
	}

	// Overlay Check. The random misalignment is drawn once per die (shared
	// by all its regions' pads); a die passes when the worst pad of every
	// region stays within that region's ±δ. In the scalar mode that is
	// membership of u in the die's pass set, built per run (or per wafer)
	// from every region's s_min and s_max.
	nR := len(e.regions)
	overlayPass := w.overlayPass
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
			overlayPass[i] = pass[i].contains(rng.Normal(0, e.sigma1))
		}
		if overlayPass[i] {
			c.OverlayPass++
		}
	}

	// Defect Check: Poisson particles over the wafer, each sweeping a void
	// tail radially outward with the bond wave (Fig. 3a / Fig. 6).
	killed := w.killed
	clear(killed)
	if e.opts.ModelConventionDefects {
		e.modelConventionDefects(rng, killed)
	} else {
		particles := rng.Poisson(e.particleMu)
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
	var waferShift float64
	recessQ := e.recessQ
	if e.recessWaferSigma > 0 {
		waferShift = rng.Normal(0, e.recessWaferSigma)
		recessQ = regionRecessProbShifted(e.regions, waferShift)
	}
	for i := 0; i < n; i++ {
		recessPass := e.recessCheck(rng, recessQ, waferShift)
		if recessPass {
			c.RecessPass++
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
	field := e.modelField
	particles := rng.Poisson(e.modelMu)
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
	tailLen := e.defect.TailLength(dist, t)
	var dir geom.Vec2
	if dist > 0 {
		dir = pos.Scale(1 / dist)
	} else {
		dir = geom.Vec2{X: 1} // center particle: degenerate radial direction
	}
	seg := geom.Segment{A: pos, B: pos.Add(dir.Scale(tailLen))}

	var voidR float64
	if e.opts.IncludeMainVoidW2W {
		voidR = e.defect.MainVoidRadius(dist, t)
	}
	e.killAlongSegment(seg, voidR, killed)
}

// killAlongSegment marks the dies whose pad regions are touched by the
// tail segment (or, when voidR > 0, by the main-void disk around the
// segment's anchor). Candidate dies come from the regular grid cells
// overlapped by the defect's bounding box rather than a scan of all dies;
// each candidate tests every region's pad-array rectangle.
func (e *w2wEnv) killAlongSegment(seg geom.Segment, voidR float64, killed []bool) {
	c0, c1 := cellSpan(math.Min(seg.A.X, seg.B.X)-voidR, math.Max(seg.A.X, seg.B.X)+voidR, e.dieW, e.col0, e.cols)
	r0, r1 := cellSpan(math.Min(seg.A.Y, seg.B.Y)-voidR, math.Max(seg.A.Y, seg.B.Y)+voidR, e.dieH, e.row0, e.rows)
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
