package converge

import "testing"

// The estimate/rule path runs once per checkpoint on the hot simulation
// loop (every CheckEvery samples in sim, every durable checkpoint in jobs),
// so its cost must stay negligible next to even a single die sample.

func BenchmarkEstimateOf(b *testing.B) {
	var sink Estimate
	for i := 0; i < b.N; i++ {
		sink = EstimateOf(i%9973, 9973)
	}
	benchSinkEstimate = sink
}

func BenchmarkRuleShouldStop(b *testing.B) {
	r := Rule{Epsilon: 1e-3, MinSamples: 100, CheckEvery: 100}
	est := EstimateOf(9871, 9973)
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = r.ShouldStop(i, est)
	}
	benchSinkBool = sink
}

func BenchmarkRuleNextCheckpoint(b *testing.B) {
	r := Rule{Epsilon: 1e-3, MinSamples: 100, CheckEvery: 100}
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.NextCheckpoint(i%20000, 20000)
	}
	benchSinkInt = sink
}

// BenchmarkStopLadder walks a full 20k-sample checkpoint ladder,
// estimating and evaluating the rule at every boundary — the complete
// per-run cost of the stop rule at D2W default scale.
func BenchmarkStopLadder(b *testing.B) {
	r := Rule{Epsilon: 1e-9, MinSamples: 100, CheckEvery: 100} // never stops
	for i := 0; i < b.N; i++ {
		const total = 20000
		for c := 0; c < total; {
			c = r.NextCheckpoint(c, total)
			benchSinkBool = r.ShouldStop(c, EstimateOf(c-c/50, c))
		}
	}
}

var (
	benchSinkEstimate Estimate
	benchSinkBool     bool
	benchSinkInt      int
)
