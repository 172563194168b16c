package randx

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("equal seeds diverged")
		}
	}
	c := NewSource(43)
	same := 0
	d := NewSource(42)
	for i := 0; i < 100; i++ {
		if c.Float64() == d.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("nearby seeds produced %d identical draws out of 100", same)
	}
}

func TestDeriveIndependentOfOrder(t *testing.T) {
	// Derive(seed, i) must not depend on any other stream's consumption.
	first := Derive(7, 3).Float64()
	s := Derive(7, 1)
	for i := 0; i < 50; i++ {
		s.Float64()
	}
	second := Derive(7, 3).Float64()
	if first != second {
		t.Error("Derive stream changed after consuming a sibling stream")
	}
}

func TestDeriveDistinctStreams(t *testing.T) {
	a := Derive(7, 0)
	b := Derive(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("derived streams overlap: %d identical draws", same)
	}
}

// TestDeriveGolden pins the (seed, index) → stream mapping: the first
// draws of a few derived streams, captured before Reset existed, when
// Derive built a fresh PCG per call.
func TestDeriveGolden(t *testing.T) {
	cases := []struct {
		seed, index   uint64
		float, normal uint64 // Float64 bits, then Normal(0, 1) bits
		poisson, intN int
	}{
		{0, 0, 0x3fc793f649916c28, 0x3ffe24ee9dd4277c, 6, 936},
		{1, 0, 0x3fef0ac225a8b502, 0x3ff222407ec635d0, 6, 262},
		{42, 7, 0x3fc49ae0b6e6582c, 0xbff2dcc5cf1e473e, 3, 778},
		{7, math.MaxUint64, 0x3fed27678176e4ba, 0x3ff70952d4b68243, 1, 296},
		{math.MaxUint64, 123456789, 0x3fe27a2c185aa810, 0x3fce2b59fd55d2a8, 4, 573},
	}
	for _, c := range cases {
		s := Derive(c.seed, c.index)
		f, n := math.Float64bits(s.Float64()), math.Float64bits(s.Normal(0, 1))
		p, k := s.Poisson(3.5), s.IntN(1000)
		if f != c.float || n != c.normal || p != c.poisson || k != c.intN {
			t.Errorf("Derive(%d, %d) drew (%#x, %#x, %d, %d), want (%#x, %#x, %d, %d)",
				c.seed, c.index, f, n, p, k, c.float, c.normal, c.poisson, c.intN)
		}
	}
}

// drawAll exercises every Source method once and records the bits of what
// it drew, so two Sources on one stream must agree call for call.
func drawAll(s *Source) []uint64 {
	var out []uint64
	f := func(v float64) { out = append(out, math.Float64bits(v)) }
	i := func(v int) { out = append(out, uint64(v)) }
	b := func(v bool) {
		if v {
			i(1)
		} else {
			i(0)
		}
	}
	f(s.Float64())
	f(s.Uniform(-2, 3))
	f(s.Normal(1, 2))
	v, err := s.PositiveNormal(1, 0.5)
	if err != nil {
		panic(err)
	}
	f(v)
	i(s.Poisson(0.7))
	i(s.Poisson(12))
	i(s.Poisson(250))
	f(s.ParticleThickness(1e-6, 2.5))
	x, y := s.InDisk(2)
	f(x)
	f(y)
	f(s.RadiusClustered(2, 0))
	f(s.RadiusClustered(2, 1.5))
	x, y = s.InDiskClustered(2, 0.8)
	f(x)
	f(y)
	x, y = s.InRect(-1, -2, 3, 4)
	f(x)
	f(y)
	f(s.Angle())
	i(s.IntN(17))
	i(s.IntN(1 << 40))
	b(s.Bernoulli(0.3))
	return out
}

// TestResetMatchesDerive: a Source reset in place to (seed, index) draws
// exactly what Derive(seed, index) and the legacy construction (a fresh
// PCG seeded from the splitmix64 mix) draw, through every Source method,
// whatever stream the reused Source drew from before.
func TestResetMatchesDerive(t *testing.T) {
	var reused Source // the zero Source is ready for Reset
	mix := NewSource(99)
	pairs := [][2]uint64{{0, 0}, {0, math.MaxUint64}, {math.MaxUint64, 0}, {math.MaxUint64, math.MaxUint64}}
	for len(pairs) < 10000 {
		seed := mix.rng.Uint64()
		var index uint64
		switch len(pairs) % 4 {
		case 0:
			index = 0
		case 1:
			index = math.MaxUint64 - uint64(mix.IntN(3))
		case 2:
			index = uint64(mix.IntN(1 << 20))
		default:
			index = mix.rng.Uint64()
		}
		pairs = append(pairs, [2]uint64{seed, index})
	}
	for n, p := range pairs {
		// Leave the reused Source mid-way through some other stream.
		reused.Reset(p[0]^0x5555, p[1]+uint64(n))
		for k := 0; k < n%5; k++ {
			reused.Float64()
		}
		reused.Reset(p[0], p[1])
		x := splitmix64(p[0]) ^ splitmix64(0x9e3779b97f4a7c15+p[1])
		s1 := splitmix64(x)
		legacy := &Source{rng: *rand.New(rand.NewPCG(s1, splitmix64(s1)))}
		want := drawAll(Derive(p[0], p[1]))
		if got := drawAll(&reused); !slices.Equal(got, want) {
			t.Fatalf("pair %d (%d, %d): reset source drew %x, Derive drew %x", n, p[0], p[1], got, want)
		}
		if got := drawAll(legacy); !slices.Equal(got, want) {
			t.Fatalf("pair %d (%d, %d): legacy construction drew %x, Derive drew %x", n, p[0], p[1], got, want)
		}
	}
}

func TestResetDoesNotAllocate(t *testing.T) {
	var s Source
	i := uint64(0)
	if a := testing.AllocsPerRun(100, func() { s.Reset(3, i); i++; s.Float64() }); a != 0 {
		t.Errorf("Reset allocated %v times per call, want 0", a)
	}
}

func TestUniformRange(t *testing.T) {
	s := NewSource(5)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("uniform out of range: %g", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := NewSource(11)
	const n = 200000
	mu, sigma := 3.0, 2.0
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Normal(mu, sigma)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-mu) > 0.02 {
		t.Errorf("normal mean = %g, want %g", mean, mu)
	}
	if math.Abs(variance-sigma*sigma) > 0.1 {
		t.Errorf("normal variance = %g, want %g", variance, sigma*sigma)
	}
}

func TestPositiveNormal(t *testing.T) {
	s := NewSource(13)
	for i := 0; i < 10000; i++ {
		v, err := s.PositiveNormal(1, 5)
		if err != nil {
			t.Fatalf("PositiveNormal: %v", err)
		}
		if v <= 0 {
			t.Fatalf("PositiveNormal returned %g", v)
		}
	}
}

func TestPositiveNormalErrorsOnNonPositiveMean(t *testing.T) {
	for _, mu := range []float64{0, -1} {
		_, err := NewSource(1).PositiveNormal(mu, 1)
		if err == nil {
			t.Fatalf("PositiveNormal(%g, 1): expected error", mu)
		}
		if !errors.Is(err, ErrNonPositiveMean) {
			t.Errorf("errors.Is(err, ErrNonPositiveMean) = false for %v", err)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	s := NewSource(17)
	for _, lambda := range []float64{0.3, 3, 29, 70, 500} {
		const n = 50000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			v := float64(s.Poisson(lambda))
			sum += v
			sum2 += v * v
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		// Poisson mean = variance = λ; allow 5σ sampling slack.
		slack := 5 * math.Sqrt(lambda/n)
		if math.Abs(mean-lambda) > slack+0.01 {
			t.Errorf("Poisson(%g) mean = %g", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+0.1 {
			t.Errorf("Poisson(%g) variance = %g", lambda, variance)
		}
	}
}

// TestPoissonDrawsGolden pins the Poisson draws on both branches and at
// their border: FNV-1a digests of 8 draws from each of 1000 seeds,
// captured when Poisson resolved its constants inside every call. Source.
// Poisson and a PoissonLaw resolved once must both reproduce them.
func TestPoissonDrawsGolden(t *testing.T) {
	for _, c := range []struct {
		lambda float64
		want   uint64
	}{
		{0, 0xdd14fcc6528cab25},
		{1e-3, 0x74dac57c96de17e4},
		{0.1, 0x95b4b9c5cfe5a507},
		{5, 0x30f54cbe964ed46c},
		{29.9, 0xaa812b49215e4fee},
		{30, 0x9352fb5990088c8f},
		{70, 0x5a564137cc7ba409},
		{1e4, 0x18a6f63bc90ea9f5},
	} {
		law := NewPoissonLaw(c.lambda)
		for name, draw := range map[string]func(*Source) int{
			"Source.Poisson":  func(s *Source) int { return s.Poisson(c.lambda) },
			"PoissonLaw.Draw": law.Draw,
		} {
			h := fnv.New64a()
			var buf [8]byte
			for seed := uint64(0); seed < 1000; seed++ {
				s := NewSource(seed)
				for i := 0; i < 8; i++ {
					binary.LittleEndian.PutUint64(buf[:], uint64(draw(s)))
					h.Write(buf[:])
				}
			}
			if got := h.Sum64(); got != c.want {
				t.Errorf("%s at lambda %g: digest %#016x, want %#016x", name, c.lambda, got, c.want)
			}
		}
	}
}

func TestPoissonZeroAndNegativeLambda(t *testing.T) {
	s := NewSource(19)
	if s.Poisson(0) != 0 || s.Poisson(-3) != 0 {
		t.Error("non-positive lambda should give 0")
	}
}

func TestParticleThicknessDistribution(t *testing.T) {
	s := NewSource(23)
	t0, z := 1e-6, 3.0
	const n = 100000
	var minV = math.Inf(1)
	countAbove2 := 0
	var sumSqrt float64
	for i := 0; i < n; i++ {
		v := s.ParticleThickness(t0, z)
		if v < minV {
			minV = v
		}
		if v > 2*t0 {
			countAbove2++
		}
		sumSqrt += math.Sqrt(v)
	}
	if minV < t0 {
		t.Errorf("thickness below t0: %g", minV)
	}
	// P(t > 2t0) = (1/2)^(z−1) = 0.25 for z = 3.
	p := float64(countAbove2) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Errorf("P(t > 2t0) = %g, want 0.25", p)
	}
	// E[√t] = (z−1)/(z−3/2)·√t0 = (4/3)√t0 for z = 3.
	meanSqrt := sumSqrt / n
	want := 4.0 / 3 * math.Sqrt(t0)
	if math.Abs(meanSqrt-want) > 0.01*want {
		t.Errorf("E[sqrt(t)] = %g, want %g", meanSqrt, want)
	}
}

func TestParticleThicknessPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for z <= 1")
		}
	}()
	NewSource(1).ParticleThickness(1e-6, 1)
}

func TestInDiskUniformity(t *testing.T) {
	s := NewSource(29)
	const n = 100000
	radius := 2.0
	var sumR, sumR2 float64
	inside := 0
	quadrant := 0
	for i := 0; i < n; i++ {
		x, y := s.InDisk(radius)
		r := math.Hypot(x, y)
		if r <= radius {
			inside++
		}
		if x > 0 && y > 0 {
			quadrant++
		}
		sumR += r
		sumR2 += r * r
	}
	if inside != n {
		t.Errorf("%d points outside the disk", n-inside)
	}
	// Uniform disk: E[r] = 2R/3, E[r²] = R²/2, P(quadrant) = 1/4.
	if got := sumR / n; math.Abs(got-2*radius/3) > 0.01 {
		t.Errorf("E[r] = %g, want %g", got, 2*radius/3)
	}
	if got := sumR2 / n; math.Abs(got-radius*radius/2) > 0.02 {
		t.Errorf("E[r²] = %g, want %g", got, radius*radius/2)
	}
	if p := float64(quadrant) / n; math.Abs(p-0.25) > 0.01 {
		t.Errorf("quadrant probability = %g, want 0.25", p)
	}
}

// TestDiskDrawsMatchSinCos: the disk draws take math.Sincos; over 10⁶
// draws each of InDisk and InDiskClustered (with and without radial
// clustering) every point is bit for bit (r·cos θ, r·sin θ) of math.Cos
// and math.Sin on the same stream.
func TestDiskDrawsMatchSinCos(t *testing.T) {
	const draws = 1_000_000
	const radius = 0.15
	for _, tc := range []struct {
		name string
		kc   float64
	}{{"InDisk", -1}, {"InDiskClustered/kc0", 0}, {"InDiskClustered/kc3", 3}} {
		a, b := NewSource(41), NewSource(41)
		for i := 0; i < draws; i++ {
			var x, y, r float64
			if tc.kc < 0 {
				x, y = a.InDisk(radius)
				r = radius * math.Sqrt(b.Float64())
			} else {
				x, y = a.InDiskClustered(radius, tc.kc)
				r = b.RadiusClustered(radius, tc.kc)
			}
			theta := 2 * math.Pi * b.Float64()
			wx, wy := r*math.Cos(theta), r*math.Sin(theta)
			if math.Float64bits(x) != math.Float64bits(wx) || math.Float64bits(y) != math.Float64bits(wy) {
				t.Fatalf("%s draw %d: θ=%v r=%v: point (%v, %v), Cos/Sin give (%v, %v)", tc.name, i, theta, r, x, y, wx, wy)
			}
		}
	}
}

func TestInRect(t *testing.T) {
	s := NewSource(31)
	for i := 0; i < 1000; i++ {
		x, y := s.InRect(-1, 2, 3, 5)
		if x < -1 || x >= 3 || y < 2 || y >= 5 {
			t.Fatalf("InRect out of bounds: (%g, %g)", x, y)
		}
	}
}

func TestAngleRange(t *testing.T) {
	s := NewSource(37)
	for i := 0; i < 1000; i++ {
		a := s.Angle()
		if a < 0 || a >= 2*math.Pi {
			t.Fatalf("angle out of range: %g", a)
		}
	}
}

func TestBernoulliProbability(t *testing.T) {
	s := NewSource(41)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %g", p)
	}
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	alwaysTrue := true
	for i := 0; i < 100; i++ {
		alwaysTrue = alwaysTrue && s.Bernoulli(1)
	}
	if !alwaysTrue {
		t.Error("Bernoulli(1) returned false")
	}
}

func TestIntN(t *testing.T) {
	s := NewSource(43)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.IntN(5)
		if v < 0 || v >= 5 {
			t.Fatalf("IntN out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("IntN(5) covered only %d values", len(seen))
	}
}
