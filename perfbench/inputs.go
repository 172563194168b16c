package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"yap/internal/core"
	"yap/internal/layout"
)

// The benchmark's inputs come from its own splitmix64 streams, never from
// the program's random packages, so a change to the program's streams
// cannot change what the program is asked to do.

type rng struct{ s uint64 }

// newRNG returns the stream named name of the family rooted at seed.
func newRNG(seed uint64, name string) *rng {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// between returns a uniform value in [lo, hi).
func (r *rng) between(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(r.next()>>11)/(1<<53)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

const (
	um = 1e-6
	mm = 1e-3
	nm = 1e-9
)

// override is one parameter point on the wire: a partial override of the
// daemon's Table I defaults. The varied fields move the yields without
// moving the cost of an evaluation much, so every seed asks for the same
// amount of work.
type override struct {
	RandomMisalignmentSigma float64
	Warpage                 float64
	DefectDensity           float64
	RecessSigma             float64
	TranslationX            float64
	PadLayout               *layout.Layout `json:"layout,omitempty"`
}

// point is one generated parameter point: its region class (0 for no
// layout, else the layout's region count), its wire form and the params
// the daemon resolves it to.
type point struct {
	Regions int
	JSON    []byte
	Params  core.Params
}

// classOf names a region count as the per-layer metrics do.
func classOf(regions int) string { return fmt.Sprintf("r%d", regions) }

// mixClasses is the region mix of the analytic workloads: half the points
// without a layout, a quarter with 2 regions and a quarter with 8.
var mixClasses = []int{0, 2, 0, 8}

// genPoint draws one point of the given region class.
func genPoint(r *rng, regions int) point {
	o := override{
		RandomMisalignmentSigma: r.between(4, 6) * nm,
		Warpage:                 r.between(8, 12) * um,
		DefectDensity:           r.between(800, 1200),
		RecessSigma:             r.between(0.9, 1.1) * nm,
		TranslationX:            r.between(4, 6) * nm,
	}
	switch regions {
	case 0:
	case 1:
		o.PadLayout = &layout.Layout{Regions: []layout.Region{{
			Name: "die", X0: -5 * mm, Y0: -5 * mm, X1: 5 * mm, Y1: 5 * mm,
		}}}
	case 2:
		split := r.between(-1, 1) * mm
		o.PadLayout = &layout.Layout{Regions: []layout.Region{
			{Name: "core", X0: -5 * mm, Y0: -5 * mm, X1: split, Y1: 5 * mm},
			{Name: "io", X0: split, Y0: -5 * mm, X1: 5 * mm, Y1: 5 * mm, Pitch: float64(7+r.intn(4)) * um},
		}}
	case 8:
		xs := []float64{-5 * mm, -2.5*mm + r.between(-0.3, 0.3)*mm, r.between(-0.3, 0.3) * mm, 2.5*mm + r.between(-0.3, 0.3)*mm, 5 * mm}
		ys := []float64{-5 * mm, r.between(-0.5, 0.5) * mm, 5 * mm}
		l := &layout.Layout{}
		for j := 0; j < 2; j++ {
			for i := 0; i < 4; i++ {
				l.Regions = append(l.Regions, layout.Region{
					Name: fmt.Sprintf("b%d%d", j, i),
					X0:   xs[i], Y0: ys[j], X1: xs[i+1], Y1: ys[j+1],
					Pitch: float64(6+r.intn(5)) * um,
				})
			}
		}
		o.PadLayout = l
	default:
		panic(fmt.Sprintf("no layout generator for %d regions", regions))
	}
	raw, err := json.Marshal(o)
	if err != nil {
		panic(err) // a fixed struct of floats always encodes
	}
	p, err := core.DecodeParams(core.Baseline(), bytes.NewReader(raw))
	if err != nil {
		panic(fmt.Sprintf("generated point does not validate: %v", err))
	}
	return point{Regions: regions, JSON: raw, Params: p}
}

// genMix draws n points of the analytic region mix from the stream name.
func genMix(seed uint64, name string, n int) []point {
	r := newRNG(seed, name)
	pts := make([]point, n)
	for i := range pts {
		pts[i] = genPoint(r, mixClasses[i%len(mixClasses)])
	}
	return pts
}
