package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"yap/internal/core"
	"yap/internal/service"
)

// workload is one traffic mix driven against a fresh daemon. Every method
// that checks an answer returns an error on a mismatch, and a mismatching
// op counts as failed.
type workload interface {
	// conns is the closed-loop client count.
	conns() int
	// opsPerSecond converts --seconds into the run's fixed op count. The
	// rates were measured on the reference machine (WORKLOADS.md), so a
	// run lasts about --seconds there and ends after a fixed number of ops
	// everywhere: a faster daemon finishes sooner instead of doing more.
	opsPerSecond() float64
	// prepare generates the seeded inputs for ops ops and computes the
	// in-process reference answers, before any daemon starts.
	prepare(seed uint64, ops int) error
	// serverArgs adds workload-specific daemon flags; dir is a fresh
	// directory inside the checkout.
	serverArgs(dir string) []string
	// warm is the fixed, deterministic warm-up on a fresh daemon.
	warm(c *client) error
	// op runs and checks op i.
	op(c *client, i int, buf *bytes.Buffer) error
	// finish runs the checks that wait for the end of the window.
	finish() error
	// guard asserts the workload's character from the /metrics deltas of
	// the window and returns its exact per-layer counters, if it has any.
	guard(before, after map[string]float64, ops int) (map[string]metric, error)
}

var workloads = map[string]func() workload{
	"evaluate-hot":  func() workload { return &evaluateHot{} },
	"sweep-cold":    func() workload { return &sweepCold{} },
	"mc-regions":    func() workload { return &mcRegions{} },
	"jobs-converge": func() workload { return &jobsConverge{} },
}

// sameBits reports whether a wire breakdown carries exactly the bits of
// an in-process one.
func sameBits(w *service.Breakdown, b core.Breakdown) bool {
	return w != nil &&
		math.Float64bits(w.Overlay) == math.Float64bits(b.Overlay) &&
		math.Float64bits(w.Recess) == math.Float64bits(b.Recess) &&
		math.Float64bits(w.Defect) == math.Float64bits(b.Defect) &&
		math.Float64bits(w.Total) == math.Float64bits(b.Total)
}

// evalRef is the in-process answer for one point in mode both.
type evalRef struct {
	hash     string
	w2w, d2w core.Breakdown
}

// evalRefs evaluates points in-process on two goroutines.
func evalRefs(pts []point) ([]evalRef, error) {
	refs := make([]evalRef, len(pts))
	errs := make([]error, len(pts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(pts) {
					return
				}
				p := pts[i].Params
				w, err1 := p.EvaluateW2W()
				d, err2 := p.EvaluateD2W()
				refs[i] = evalRef{hash: p.HashString(), w2w: w, d2w: d}
				if err1 != nil || err2 != nil {
					errs[i] = fmt.Errorf("point %d: %v %v", i, err1, err2)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

func checkEval(raw []byte, ref evalRef, wantCached bool) error {
	var resp service.EvaluateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decode evaluate response: %w", err)
	}
	switch {
	case resp.Cached != wantCached:
		return fmt.Errorf("cached = %v, want %v", resp.Cached, wantCached)
	case resp.ParamsHash != ref.hash:
		return fmt.Errorf("params_hash %s, want %s", resp.ParamsHash, ref.hash)
	case !sameBits(resp.W2W, ref.w2w) || !sameBits(resp.D2W, ref.d2w):
		return fmt.Errorf("breakdowns differ from the in-process evaluation of %s", ref.hash)
	}
	return nil
}

func evaluateBody(pt point) []byte {
	return []byte(`{"mode":"both","params":` + string(pt.JSON) + `}`)
}

// ---------------------------------------------------------------------

// hotSetSize points in mode both fill 512 entries, within the daemon's
// default 1024-entry LRU, so every timed evaluate is a local hit.
const hotSetSize = 256

// evaluateHot cycles a hot set of points through POST /v1/evaluate.
type evaluateHot struct {
	pts    []point
	bodies [][]byte
	refs   []evalRef
	// seen holds, per point, a response already checked in full; later
	// responses that match it byte for byte need no decoding.
	seen []atomic.Pointer[[]byte]
}

func (w *evaluateHot) conns() int            { return 2 }
func (w *evaluateHot) opsPerSecond() float64 { return 12000 }

// gen generates the hot set and its request bodies.
func (w *evaluateHot) gen(seed uint64) {
	w.pts = genMix(seed, "evaluate-hot", hotSetSize)
	w.bodies = make([][]byte, len(w.pts))
	for i, pt := range w.pts {
		w.bodies[i] = evaluateBody(pt)
	}
}

func (w *evaluateHot) prepare(seed uint64, ops int) error {
	w.gen(seed)
	w.seen = make([]atomic.Pointer[[]byte], len(w.pts))
	var err error
	w.refs, err = evalRefs(w.pts)
	return err
}

func (w *evaluateHot) serverArgs(string) []string { return nil }

func (w *evaluateHot) warm(c *client) error {
	o := outcomeOf(closedLoop(w.conns(), len(w.pts), func(i int, buf *bytes.Buffer) error {
		if err := c.post("/v1/evaluate", w.bodies[i], 200, buf); err != nil {
			return err
		}
		return checkEval(buf.Bytes(), w.refs[i], false)
	}))
	return o.firstErr
}

func (w *evaluateHot) op(c *client, i int, buf *bytes.Buffer) error {
	k := i % len(w.pts)
	if err := c.post("/v1/evaluate", w.bodies[k], 200, buf); err != nil {
		return err
	}
	if seen := w.seen[k].Load(); seen != nil && bytes.Equal(*seen, buf.Bytes()) {
		return nil
	}
	if err := checkEval(buf.Bytes(), w.refs[k], true); err != nil {
		return err
	}
	raw := bytes.Clone(buf.Bytes())
	w.seen[k].Store(&raw)
	return nil
}

func (w *evaluateHot) finish() error { return nil }

func (w *evaluateHot) guard(before, after map[string]float64, ops int) (map[string]metric, error) {
	hits := counterDelta(before, after, "yapserve_cache_hits_total")
	misses := counterDelta(before, after, "yapserve_cache_misses_total")
	computes := counterDelta(before, after, "yapserve_fleetcache_computes_total")
	if hits != float64(2*ops) || misses != 0 || computes != 0 {
		return nil, fmt.Errorf("evaluate-hot guard: %v hits, %v misses, %v computes over %d ops; want %d hits and no misses or computes",
			hits, misses, computes, ops, 2*ops)
	}
	return map[string]metric{
		"fleetcache.hit_ratio": {hits / (hits + misses), "ratio"},
		"fleetcache.computes":  {computes / float64(ops), "count/op"},
	}, nil
}

// ---------------------------------------------------------------------

// batchPoints is the size of one sweep-cold batch: small batches give
// hundreds of latency samples per run.
const batchPoints = 8

// sweepCold sends never-repeated points through POST /v1/evaluate/batch.
type sweepCold struct {
	warmBodies [][]byte
	bodies     [][]byte
	// checked maps a seeded subset of timed point indices to their
	// in-process answers; got collects the daemon's answers for them.
	checked map[int]evalRef
	mu      sync.Mutex
	got     map[int]service.SweepPoint
}

func (w *sweepCold) conns() int            { return 1 }
func (w *sweepCold) opsPerSecond() float64 { return 16 }

// batchBodies encodes pts as batches of batchPoints in mode both.
func batchBodies(pts []point) [][]byte {
	var out [][]byte
	for i := 0; i+batchPoints <= len(pts); i += batchPoints {
		var b bytes.Buffer
		b.WriteString(`{"mode":"both","points":[`)
		for j, pt := range pts[i : i+batchPoints] {
			if j > 0 {
				b.WriteByte(',')
			}
			b.Write(pt.JSON)
		}
		b.WriteString(`]}`)
		out = append(out, b.Bytes())
	}
	return out
}

// sweepChecked is how many timed points are compared bit for bit with an
// in-process evaluation after the window: 8 per region class.
const sweepChecked = 24

// gen generates the warm-up and timed batches and returns the timed
// points in order.
func (w *sweepCold) gen(seed uint64, ops int) []point {
	w.warmBodies = batchBodies(genMix(seed, "sweep-cold/warm", 8*batchPoints))
	pts := genMix(seed, "sweep-cold", ops*batchPoints)
	w.bodies = batchBodies(pts)
	return pts
}

func (w *sweepCold) prepare(seed uint64, ops int) error {
	pts := w.gen(seed, ops)
	// A seeded subset spread over the whole window, the same count of
	// each region class on every seed.
	r := newRNG(seed, "sweep-cold/checked")
	var idx []int
	var sub []point
	for _, class := range []int{0, 2, 8} {
		for n := 0; n < sweepChecked/3; {
			i := r.intn(len(pts))
			if pts[i].Regions != class {
				continue
			}
			idx = append(idx, i)
			sub = append(sub, pts[i])
			n++
		}
	}
	refs, err := evalRefs(sub)
	if err != nil {
		return err
	}
	w.checked = make(map[int]evalRef, len(idx))
	for j, i := range idx {
		w.checked[i] = refs[j]
	}
	w.got = make(map[int]service.SweepPoint)
	return nil
}

func (w *sweepCold) serverArgs(string) []string { return nil }

func (w *sweepCold) warm(c *client) error {
	var buf bytes.Buffer
	for _, body := range w.warmBodies {
		if err := c.post("/v1/evaluate/batch", body, 200, &buf); err != nil {
			return err
		}
		if _, err := checkBatch(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// checkBatch decodes a batch response of never-seen points: no point
// errors, and every evaluation computed.
func checkBatch(raw []byte) (service.BatchEvaluateResponse, error) {
	var resp service.BatchEvaluateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return resp, fmt.Errorf("decode batch response: %w", err)
	}
	if resp.Failed != 0 || len(resp.Points) != batchPoints || resp.Computed != 2*batchPoints {
		return resp, fmt.Errorf("batch: %d points, %d failed, %d computed; want %d, 0, %d",
			len(resp.Points), resp.Failed, resp.Computed, batchPoints, 2*batchPoints)
	}
	for j, pt := range resp.Points {
		if pt.Index != j || pt.Error != "" || pt.W2W == nil || pt.D2W == nil {
			return resp, fmt.Errorf("batch point %d: index %d error %q", j, pt.Index, pt.Error)
		}
	}
	return resp, nil
}

func (w *sweepCold) op(c *client, i int, buf *bytes.Buffer) error {
	if err := c.post("/v1/evaluate/batch", w.bodies[i], 200, buf); err != nil {
		return err
	}
	resp, err := checkBatch(buf.Bytes())
	if err != nil {
		return err
	}
	for j, pt := range resp.Points {
		if _, ok := w.checked[i*batchPoints+j]; ok {
			w.mu.Lock()
			w.got[i*batchPoints+j] = pt
			w.mu.Unlock()
		}
	}
	return nil
}

func (w *sweepCold) finish() error {
	for i, ref := range w.checked {
		pt, ok := w.got[i]
		if !ok {
			continue // its batch failed and is counted as such
		}
		if pt.ParamsHash != ref.hash || !sameBits(pt.W2W, ref.w2w) || !sameBits(pt.D2W, ref.d2w) {
			return fmt.Errorf("sweep-cold point %d (%s): breakdowns differ from the in-process evaluation", i, ref.hash)
		}
	}
	return nil
}

func (w *sweepCold) guard(before, after map[string]float64, ops int) (map[string]metric, error) {
	hits := counterDelta(before, after, "yapserve_cache_hits_total")
	misses := counterDelta(before, after, "yapserve_cache_misses_total")
	computes := counterDelta(before, after, "yapserve_fleetcache_computes_total")
	want := float64(2 * batchPoints * ops)
	if hits != 0 || computes != want {
		return nil, fmt.Errorf("sweep-cold guard: %v hits and %v computes over %d batches; want 0 and %v", hits, computes, ops, want)
	}
	return map[string]metric{
		"fleetcache.hit_ratio": {hits / (hits + misses), "ratio"},
		"fleetcache.computes":  {computes / float64(ops), "count/op"},
	}, nil
}
