package main

import (
	"bytes"
	"testing"
	"time"
)

// requestStream is every request body a run of each workload sends, in
// order, for the given seed.
func requestStream(t *testing.T, seed uint64) map[string][][]byte {
	t.Helper()
	out := map[string][][]byte{}
	hot := &evaluateHot{}
	hot.gen(seed)
	out["evaluate-hot"] = hot.bodies
	cold := &sweepCold{}
	cold.gen(seed, 20)
	out["sweep-cold"] = append(append([][]byte(nil), cold.warmBodies...), cold.bodies...)
	for _, stream := range []string{"mc-regions/warm", "mc-regions"} {
		for _, k := range genSimClasses(seed, stream) {
			out["mc-regions"] = append(out["mc-regions"], k.body)
		}
	}
	jobs, err := genJobClasses(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range jobs {
		out["jobs-converge"] = append(out["jobs-converge"], k.body)
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b := requestStream(t, 7), requestStream(t, 7)
	for name, reqs := range a {
		if len(reqs) == 0 || len(reqs) != len(b[name]) {
			t.Fatalf("%s: %d vs %d requests", name, len(reqs), len(b[name]))
		}
		for i := range reqs {
			if !bytes.Equal(reqs[i], b[name][i]) {
				t.Fatalf("%s request %d differs between two generations of seed 7", name, i)
			}
		}
	}
}

func TestSeedsGiveDisjointPoints(t *testing.T) {
	seen := map[string]bool{}
	for _, pt := range genMix(1, "sweep-cold", 400) {
		seen[string(pt.JSON)] = true
	}
	for _, pt := range genMix(2, "sweep-cold", 400) {
		if seen[string(pt.JSON)] {
			t.Fatalf("seeds 1 and 2 share point %s", pt.JSON)
		}
	}
	// The warm-up stream never reuses a timed point.
	for _, pt := range genMix(1, "sweep-cold/warm", 64) {
		if seen[string(pt.JSON)] {
			t.Fatalf("warm-up point %s is also timed", pt.JSON)
		}
	}
}

func TestRegionMix(t *testing.T) {
	count := map[int]int{}
	for _, pt := range genMix(3, "evaluate-hot", hotSetSize) {
		count[pt.Regions]++
		if want := pt.Regions; (want == 0) != (pt.Params.PadLayout == nil) ||
			(want > 0 && len(pt.Params.PadLayout.Regions) != want) {
			t.Fatalf("point of class r%d resolves to layout %+v", want, pt.Params.PadLayout)
		}
	}
	if count[0] != hotSetSize/2 || count[2] != hotSetSize/4 || count[8] != hotSetSize/4 {
		t.Fatalf("region mix %v, want half r0 and a quarter each r2, r8", count)
	}
}

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n, rank int
		pct     float64
	}{
		{1000, 990, 99},
		{5000, 4950, 99},
		{999, 989, 100 * 989.0 / 999},
		{320, 310, 96.875},
		{11, 1, 100.0 / 11},
	} {
		rank, pct, err := tailRank(c.n)
		if err != nil || rank != c.rank || pct != c.pct {
			t.Errorf("tailRank(%d) = %d, %v, %v; want %d, %v", c.n, rank, pct, err, c.rank, c.pct)
		}
		if beyond := c.n - rank; beyond < tailMinBeyond {
			t.Errorf("tailRank(%d) leaves %d ops beyond", c.n, beyond)
		}
	}
	if _, _, err := tailRank(10); err == nil {
		t.Error("tailRank(10) should fail: no percentile has 10 ops beyond it")
	}
}

func TestSummarizeSetsAsideStolenSlices(t *testing.T) {
	// 200 ops of 1 ms back to back. Ops 60-79 (slice 3) run ten times
	// slower while the hypervisor steals half the machine; 11 ops late in
	// the run are slow without any steal. The stolen slice is set aside;
	// the other slow ops set the tail of the 180 ops kept.
	var recs []opRecord
	var samples []tickSample
	at := time.Unix(0, 0)
	var total, steal int64
	for i := 0; i < 200; i++ {
		d := time.Millisecond
		stolen := i >= 60 && i < 80
		if stolen || i >= 160 && (i-160)%3 == 0 {
			d = 10 * time.Millisecond
		}
		samples = append(samples, tickSample{at: at, total: total, steal: steal})
		recs = append(recs, opRecord{start: at, end: at.Add(d)})
		at = at.Add(d)
		total += 2 * int64(d/time.Millisecond)
		if stolen {
			steal += int64(d / time.Millisecond)
		}
	}
	samples = append(samples, tickSample{at: at, total: total, steal: steal})
	s, err := summarize(recs, samples)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rate != 1000 || s.P50 != 1 || s.Tail != 10 || s.Kept != 180 || s.N != 200 {
		t.Fatalf("summarize = %+v; want rate 1000/s, p50 1 ms, tail 10 ms over 180 of 200 ops", s)
	}
	if got := stealBetween(samples, recs[60].start, recs[79].end); got != 0.5 {
		t.Fatalf("steal over the stolen slice = %v, want 0.5", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "child", Parent: 0, Start: 10, End: 30},
		{Name: "child", Parent: 0, Start: 40, End: 50},
		{Name: "grandchild", Parent: 2, Start: 42, End: 45},
		// A shadow child re-timed after its parent ended counts the same.
		{Name: "shadow", Parent: 0, Start: 120, End: 125, Shadow: true},
	}
	want := []time.Duration{100 - 20 - 10 - 5, 20, 10 - 3, 3, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self of span %d = %v, want %v", i, got[i], want[i])
		}
	}
	for _, g := range groups(spans) {
		if g.name == "child" && (g.spans != 2 || g.incl != 30 || g.self != 27) {
			t.Fatalf("child group = %+v", g)
		}
	}
}
