package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many ops must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tailRank picks the tail percentile for n ops: p99 when n >= 1000,
// otherwise the highest percentile with tailMinBeyond ops beyond it. It
// returns the 1-based rank into the sorted latencies and the percentile
// that rank stands for.
func tailRank(n int) (rank int, pct float64, err error) {
	if n <= tailMinBeyond {
		return 0, 0, fmt.Errorf("%d ops leave no percentile with %d ops beyond it", n, tailMinBeyond)
	}
	if n >= 1000 {
		rank = int(math.Ceil(0.99 * float64(n)))
	} else {
		rank = n - tailMinBeyond
	}
	return rank, 100 * float64(rank) / float64(n), nil
}

// median returns the median of xs (the mean of the middle pair for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// chunks is how many consecutive slices of a run's ops the timings are
// taken over.
const chunks = 10

// tickSample is the machine's CPU time split at one instant.
type tickSample struct {
	at           time.Time
	total, steal int64
}

// stealBetween is the share of the machine's CPU time stolen by the
// hypervisor between a and b, read off the samples taken before each.
func stealBetween(samples []tickSample, a, b time.Time) float64 {
	at := func(t time.Time) tickSample {
		s := samples[0]
		for _, x := range samples {
			if !x.at.After(t) {
				s = x
			}
		}
		return s
	}
	x, y := at(a), at(b)
	if y.total <= x.total {
		return 0
	}
	return float64(y.steal-x.steal) / float64(y.total-x.total)
}

// latencySummary is the timing part of the end-to-end metrics.
type latencySummary struct {
	Rate      float64 // ops/s
	P50, Tail float64 // ms
	TailPct   float64
	Kept, N   int // ops the timings are taken over, of all ops
}

// summarize cuts the ops, in order, into slices and sets aside those in
// which the hypervisor stole more of the machine than in the median
// slice: on a shared host that interference, not the program, is what
// moves a slice's timings. Over the slices kept it reports the median
// slice throughput and median slice latency, and the tail over their ops:
// p99 when they number at least 1000, otherwise the highest percentile
// with tailMinBeyond ops beyond it. Failed ops count like any other: they
// occupied the client for their latency.
func summarize(recs []opRecord, samples []tickSample) (latencySummary, error) {
	n := len(recs)
	type slice struct {
		recs  []opRecord
		steal float64
	}
	var slices []slice
	var steals []float64
	for c, k := 0, min(chunks, n); c < k; c++ {
		part := recs[c*n/k : (c+1)*n/k]
		first, last := interval(part)
		sl := slice{recs: part, steal: stealBetween(samples, first, last)}
		slices = append(slices, sl)
		steals = append(steals, sl.steal)
	}
	limit := median(steals)
	var rates, p50s, kept []float64
	for _, sl := range slices {
		if sl.steal > limit {
			continue
		}
		first, last := interval(sl.recs)
		ms := latencies(sl.recs)
		rates = append(rates, float64(len(sl.recs))/last.Sub(first).Seconds())
		p50s = append(p50s, median(ms))
		kept = append(kept, ms...)
	}
	sort.Float64s(kept)
	rank, pct, err := tailRank(len(kept))
	if err != nil {
		return latencySummary{}, err
	}
	return latencySummary{Rate: median(rates), P50: median(p50s), Tail: kept[rank-1], TailPct: pct, Kept: len(kept), N: n}, nil
}

// interval returns the first start and the last end of the ops.
func interval(recs []opRecord) (first, last time.Time) {
	first, last = recs[0].start, recs[0].end
	for _, r := range recs {
		if r.start.Before(first) {
			first = r.start
		}
		if r.end.After(last) {
			last = r.end
		}
	}
	return first, last
}

// latencies returns the ops' latencies in ms.
func latencies(recs []opRecord) []float64 {
	ms := make([]float64, len(recs))
	for i, r := range recs {
		ms[i] = float64(r.end.Sub(r.start)) / 1e6
	}
	return ms
}
