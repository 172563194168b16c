// Package randx provides the seeded random distributions used by the YAP
// Monte-Carlo simulator: normal variates, Poisson counts, the truncated
// power-law particle-thickness law of Glang (Eq. 17 of the paper) and
// uniform sampling over disks and rectangles.
//
// Every distribution draws from an explicit *Source so that simulations are
// reproducible from a seed. A Source is one stream of a family rooted at a
// seed: Derive(seed, index) returns stream index, and Reset repositions an
// existing Source at any stream of any family in place, so a simulation
// worker draws sample k from stream (seed, k) through one Source it reuses
// for every sample.
package randx

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// Source is a seeded random stream. It wraps math/rand/v2's PCG generator.
// The generator state lives inside the Source, and rand.Rand holds nothing
// but the generator it reads (math/rand/v2 keeps no buffered state), so
// reseeding the PCG in place restarts exactly the stream a fresh Source
// with the same seed draws.
type Source struct {
	pcg rand.PCG
	rng rand.Rand
}

// NewSource returns a Source seeded deterministically from seed.
func NewSource(seed uint64) *Source {
	s := new(Source)
	s.seed(seed)
	return s
}

// Derive returns a Source for stream `index` of the family rooted at seed.
// It does not consume state from any other Source, so workers processing
// items in any order (or in parallel) still draw identical streams for
// identical (seed, index) pairs — the property that makes the simulator's
// results independent of its worker count.
func Derive(seed, index uint64) *Source {
	s := new(Source)
	s.Reset(seed, index)
	return s
}

// Reset repositions s at stream `index` of the family rooted at seed: its
// draws from then on are exactly those of Derive(seed, index), whatever s
// drew before. The zero Source is ready for Reset. A worker that resets
// one Source per sample draws the same bits as one that derives a fresh
// Source per sample, without allocating.
func (s *Source) Reset(seed, index uint64) {
	s.seed(splitmix64(seed) ^ splitmix64(0x9e3779b97f4a7c15+index))
}

// seed mixes the single word into two PCG seed words with splitmix64, so
// that nearby seeds give unrelated streams, and points the distribution
// methods at the reseeded generator.
func (s *Source) seed(seed uint64) {
	s1 := splitmix64(seed)
	s2 := splitmix64(s1)
	s.pcg.Seed(s1, s2)
	s.rng = *rand.New(&s.pcg)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Uniform returns a uniform variate in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Normal returns a variate from N(mu, sigma²).
func (s *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*s.rng.NormFloat64()
}

// ErrNonPositiveMean reports a PositiveNormal draw requested around a
// non-positive mean. Callers match it with errors.Is.
var ErrNonPositiveMean = errors.New("randx: PositiveNormal requires a positive mean")

// PositiveNormal returns a variate from N(mu, sigma²) conditioned on being
// strictly positive, by resampling. It is used to draw inherently-positive
// process parameters (standard deviations, warpage) for validation
// parameter sets. A non-positive mu — typically an unvalidated spread
// configuration — returns ErrNonPositiveMean rather than crashing the
// caller.
func (s *Source) PositiveNormal(mu, sigma float64) (float64, error) {
	if mu <= 0 {
		return 0, fmt.Errorf("%w: got mu=%g", ErrNonPositiveMean, mu)
	}
	for i := 0; i < 1000; i++ {
		if v := s.Normal(mu, sigma); v > 0 {
			return v, nil
		}
	}
	// Pathological sigma/mu ratio: fall back to the mean rather than spin.
	return mu, nil
}

// Poisson returns a Poisson(lambda) count. For small lambda it uses Knuth's
// product method; for large lambda the PTRS transformed-rejection sampler
// of Hörmann, which is O(1) regardless of lambda.
func (s *Source) Poisson(lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= s.rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		return s.poissonPTRS(lambda)
	}
}

// poissonPTRS implements Hörmann's PTRS algorithm for lambda ≥ 10.
func (s *Source) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := s.rng.Float64() - 0.5
		v := s.rng.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-lg {
			return int(k)
		}
	}
}

// ParticleThickness draws a particle thickness from the normalized Glang
// size law f(t) = (z−1)·t0^(z−1) / t^z for t > t0 (Eq. 17 with the density
// prefactor D_t removed), via inverse-transform sampling:
//
//	t = t0 · (1−U)^(−1/(z−1))
//
// z must exceed 1 for the law to be normalizable; the paper uses z ∈ [2,3].
func (s *Source) ParticleThickness(t0, z float64) float64 {
	if z <= 1 {
		// Unreachable from the simulator: every entry path validates the
		// shape factor first (core.Params.Validate requires z > 1.5,
		// tcb/defect Validate require z > 1). The guard documents the
		// law's domain for direct library users; erroring here would put a
		// branch on every draw of the hot sampling loop.
		panic("randx: particle size law requires z > 1") //yaplint:allow no-naked-panic validated upstream; hot path
	}
	u := s.rng.Float64()
	return t0 * math.Pow(1-u, -1/(z-1))
}

// InDisk returns a point uniformly distributed over the disk of the given
// radius centered at the origin.
func (s *Source) InDisk(radius float64) (x, y float64) {
	// Inverse-transform the radius: r = R√U gives uniform areal density.
	r := radius * math.Sqrt(s.rng.Float64())
	theta := 2 * math.Pi * s.rng.Float64()
	return r * math.Cos(theta), r * math.Sin(theta)
}

// RadiusClustered draws a radius in [0, R) from the radially clustered
// areal density D(r) ∝ 1 + kc·(r/R)², the edge-weighted particle profile
// of Singh's radial defect clustering (kc = 0 recovers the uniform disk).
// Inverse transform: with u = (r/R)², the CDF is
// (u + kc·u²/2)/(1 + kc/2), inverted in closed form.
func (s *Source) RadiusClustered(radius, kc float64) float64 {
	if kc <= 0 {
		return radius * math.Sqrt(s.rng.Float64())
	}
	c := s.rng.Float64() * (1 + kc/2)
	// Solve u + kc·u²/2 = c for u ≥ 0.
	u := (-1 + math.Sqrt(1+2*kc*c)) / kc
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return radius * math.Sqrt(u)
}

// InDiskClustered returns a point in the disk with the radially clustered
// density of RadiusClustered and uniform angle.
func (s *Source) InDiskClustered(radius, kc float64) (x, y float64) {
	r := s.RadiusClustered(radius, kc)
	theta := 2 * math.Pi * s.rng.Float64()
	return r * math.Cos(theta), r * math.Sin(theta)
}

// InRect returns a point uniformly distributed over the axis-aligned
// rectangle [x0,x1) × [y0,y1).
func (s *Source) InRect(x0, y0, x1, y1 float64) (x, y float64) {
	return s.Uniform(x0, x1), s.Uniform(y0, y1)
}

// Angle returns a uniform angle in [0, 2π).
func (s *Source) Angle() float64 { return 2 * math.Pi * s.rng.Float64() }

// IntN returns a uniform integer in [0, n).
func (s *Source) IntN(n int) int { return s.rng.IntN(n) }

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.rng.Float64() < p }
