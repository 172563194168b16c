package sim

import (
	"math"

	"yap/internal/core"
	"yap/internal/geom"
	"yap/internal/randx"
	"yap/internal/wafer"
)

// Void is one simulated particle-induced void: the main void disk around
// the particle and the tail swept radially outward by the bond wave.
type Void struct {
	// Particle is the particle position (wafer coordinates, m).
	Particle geom.Vec2
	// Thickness is the particle thickness t (m).
	Thickness float64
	// MainRadius is r_mv (Eq. 15).
	MainRadius float64
	// Tail is the void-tail segment (Eq. 16), from the particle outward.
	Tail geom.Segment
}

// VoidMap is a fully materialized single-wafer defect simulation, the data
// behind the paper's Fig. 6 visualization.
type VoidMap struct {
	// WaferRadius is the wafer radius (m).
	WaferRadius float64
	// Dies and PadRects describe the floorplan: PadRects holds the pad-region
	// rectangles of every die in wafer coordinates, R per die and flattened
	// as PadRects[die*R+region] — one per die for the paper's uniform grid.
	Dies     []wafer.Die
	PadRects []geom.Rect
	// Voids are the simulated defects.
	Voids []Void
	// Killed marks dies any of whose pad regions is overlapped by a void
	// tail or main void.
	Killed []bool
}

// KilledCount returns the number of defect-killed dies.
func (m *VoidMap) KilledCount() int {
	n := 0
	for _, k := range m.Killed {
		if k {
			n++
		}
	}
	return n
}

// GenerateVoidMap simulates the particle defects of one W2W bonded wafer
// and returns the resulting void geometry and die kill map. particles > 0
// forces an exact particle count (useful for illustration); particles = 0
// draws the count from the process Poisson law. Dies are killed as the
// W2W kernel kills them with IncludeMainVoidW2W set: by a void tail or
// main void touching any of their pad regions.
func GenerateVoidMap(p core.Params, seed uint64, particles int) (*VoidMap, error) {
	env, err := newW2WEnv(Options{Params: p})
	if err != nil {
		return nil, err
	}
	rng := randx.NewSource(seed)
	r, dp := env.waferRadius, env.defect
	m := &VoidMap{
		WaferRadius: r,
		Dies:        env.dies,
		PadRects:    env.padRects,
		Killed:      make([]bool, len(env.dies)),
	}
	if particles <= 0 {
		particles = env.particles.Draw(rng)
	}
	for k := 0; k < particles; k++ {
		x, y := rng.InDiskClustered(r, dp.RadialClustering)
		pos := geom.Vec2{X: x, Y: y}
		t := rng.ParticleThickness(dp.MinThickness, dp.Shape)
		dist := pos.Norm()
		v := Void{
			Particle:   pos,
			Thickness:  t,
			MainRadius: dp.MainVoidRadius(dist, t),
			Tail:       radialTail(pos, dist, dp.TailLength(dist, t)),
		}
		m.Voids = append(m.Voids, v)
		env.killAlongSegment(v.Tail, v.MainRadius, m.Killed)
	}
	return m, nil
}

// SampleTailLengths draws n void-tail lengths from the simulator's
// generative process (particle position uniform over the wafer, thickness
// from Eq. 17), the empirical side of the Fig. 8a distribution comparison.
func SampleTailLengths(p core.Params, seed uint64, n int) []float64 {
	rng := randx.NewSource(seed)
	dp := p.DefectParams()
	r := p.WaferRadius()
	out := make([]float64, n)
	for i := range out {
		x, y := rng.InDisk(r)
		t := rng.ParticleThickness(p.MinParticleThickness, p.DefectShape)
		out[i] = dp.TailLength(math.Hypot(x, y), t)
	}
	return out
}

// SampleMainVoidSizes draws n D2W main-void radii from the simulator's
// generative process (particle position uniform over the effective die
// disk), the empirical side of the Fig. 9a comparison.
func SampleMainVoidSizes(p core.Params, seed uint64, n int) []float64 {
	rng := randx.NewSource(seed)
	dp := p.DefectParams()
	effR := wafer.EffectiveDieRadius(p.DieWidth, p.DieHeight)
	out := make([]float64, n)
	for i := range out {
		x, y := rng.InDisk(effR)
		t := rng.ParticleThickness(p.MinParticleThickness, p.DefectShape)
		out[i] = dp.MainVoidRadius(math.Hypot(x, y), t)
	}
	return out
}
