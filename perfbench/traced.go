package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"yap/internal/core"
	"yap/internal/fleetcache"
	"yap/internal/jobs"
	"yap/internal/layout"
	"yap/internal/overlay"
	"yap/internal/randx"
	"yap/internal/service"
	"yap/internal/sim"
)

// The traced run measures every per-layer metric on every invocation:
//
//   - Exact counters come from the untraced daemon's /metrics, scraped
//     around a short window of the workload that owns them (sweep-cold for
//     the fleet cache, jobs-converge for the job store).
//   - Timings come from replaying each workload's generated inputs in this
//     process through the layers' public entry points, outermost first:
//     service.Server.ServeHTTP with an in-memory writer,
//     fleetcache.Cache.Evaluate, core.Params.Evaluate*, the overlay,
//     recess and defect model calls, sim.RunW2W/RunD2W, and a
//     jobs.Manager whose Config.Run seam times each slice.
//
// --workload picks whose replay table is printed; every table and span
// dump is written under the work directory.

// Budgets per 10 s of --seconds.
const (
	hotReplayOps   = 4000 // evaluate requests
	coldReplayOps  = 6    // batches
	simReplayReps  = 5    // repeats of each timed simulation
	jobsReplayJobs = 40   // jobs
	loopCalls      = 4096 // calls per span for ns-scale entry points
)

// Sinks keep the compiler from discarding the results of timed calls.
var (
	sinkF float64
	sinkU uint64
	sinkS *randx.Source
)

// memWriter is the in-memory http.ResponseWriter of the replays.
type memWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newMemWriter() *memWriter { return &memWriter{h: make(http.Header)} }

func (m *memWriter) Header() http.Header { return m.h }
func (m *memWriter) WriteHeader(code int) {
	if m.code == 0 {
		m.code = code
	}
}
func (m *memWriter) Write(b []byte) (int, error) {
	if m.code == 0 {
		m.code = http.StatusOK
	}
	return m.body.Write(b)
}
func (m *memWriter) reset() {
	clear(m.h)
	m.code = 0
	m.body.Reset()
}

// serve runs one request through the handler as a root span.
func serve(t *tracer, h http.Handler, mw *memWriter, path, class string, req int, body []byte) (int, error) {
	r, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return -1, err
	}
	mw.reset()
	i := t.do("service.Server.ServeHTTP", class, req, -1, 1, false, func() { h.ServeHTTP(mw, r) })
	if mw.code != http.StatusOK {
		return i, fmt.Errorf("%s: status %d: %.200s", path, mw.code, mw.body.Bytes())
	}
	return i, nil
}

// replay is what one workload's replay reads and fills: its tracer, the
// run's seed and length, the work directory, the op tally and the
// per-layer metrics.
type replay struct {
	t       *tracer
	seed    uint64
	seconds int
	work    string
	st      *replayStats
	m       map[string]metric
}

// replayStats counts the ops the replays attempted and the checks that
// failed.
type replayStats struct {
	attempted, failed int
	firstErr          error
}

func (s *replayStats) op(err error) {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
	}
}

// scaled is a per-10s budget scaled to --seconds, never below min.
func scaled(per10 int, seconds, min int) int {
	return max(min, per10*seconds/10)
}

func tracedRun(name string, seed uint64, seconds int, bin, work string) (result, error) {
	metrics := make(map[string]metric)
	var st replayStats

	// Exact counters from the untraced daemon.
	for _, wl := range []string{"sweep-cold", "jobs-converge"} {
		w := workloads[wl]()
		ops := max(16, opsFor(w, seconds)/10)
		if err := w.prepare(seed, ops); err != nil {
			return result{}, fmt.Errorf("%s: prepare: %w", wl, err)
		}
		s, c, done, _, err := startWarm(w, bin, work)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", wl, err)
		}
		win, err := timed(w, s, c, ops)
		done()
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", wl, err)
		}
		st.attempted += win.loop.attempted
		st.failed += win.loop.failed
		if win.loop.firstErr != nil && st.firstErr == nil {
			st.firstErr = win.loop.firstErr
		}
		if err := w.finish(); err != nil && st.firstErr == nil {
			st.firstErr, st.failed = err, st.failed+1
		}
		for k, v := range win.counters {
			metrics[k] = v
		}
	}

	// Timings from the in-process replays.
	for _, rp := range []struct {
		workload string
		run      func(*replay) error
	}{
		{"evaluate-hot", replayHot},
		{"sweep-cold", replayCold},
		{"mc-regions", replaySim},
		{"jobs-converge", replayJobs},
	} {
		rc := &replay{t: newTracer(), seed: seed, seconds: seconds, work: work, st: &st, m: metrics}
		if err := rp.run(rc); err != nil {
			return result{}, fmt.Errorf("%s replay: %w", rp.workload, err)
		}
		table, err := dump(work, fmt.Sprintf("trace-%s-seed%d", rp.workload, seed), rc.t.spans)
		if err != nil {
			return result{}, err
		}
		if rp.workload == name {
			fmt.Print(table)
		}
	}
	fmt.Printf("tables and span dumps: %s/trace-*-seed%d.{table.txt,spans.json}\n", work, seed)
	if st.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: traced run: %d of %d ops failed; first: %v\n", st.failed, st.attempted, st.firstErr)
	}
	return result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: metrics}, nil
}

// perCall returns the per-call times (ns) of the spans of name whose
// class is class ("*" for any class): self times when self is set,
// inclusive times otherwise.
func perCall(spans []span, name, class string, self bool) []float64 {
	var xs []float64
	for _, g := range groups(spans) {
		if g.name != name || (class != "*" && g.class != class) {
			continue
		}
		if self {
			xs = append(xs, g.perSelf...)
		} else {
			xs = append(xs, g.perCall...)
		}
	}
	return xs
}

// ---------------------------------------------------------------------

// replayHot replays evaluate-hot: resident-key evaluates through the
// service, with the cache calls inside each request re-timed as its
// children.
func replayHot(rc *replay) error {
	t, seed, seconds, st, m := rc.t, rc.seed, rc.seconds, rc.st, rc.m
	w := &evaluateHot{}
	if err := w.prepare(seed, 0); err != nil {
		return err
	}
	fleet := fleetcache.New(fleetcache.Config{CacheSize: 1024})
	defer fleet.Close()
	base := core.Baseline()
	srv := service.New(service.Config{Defaults: &base, CacheSize: 1024, FleetCache: fleet})
	hashes := make([]uint64, len(w.pts))
	for i, pt := range w.pts {
		// Adopt stores the in-process answers exactly as a compute would.
		hashes[i] = pt.Params.CanonicalHash()
		fleet.Adopt(fleetcache.ModeW2W, hashes[i], pt.Params, w.refs[i].w2w)
		fleet.Adopt(fleetcache.ModeD2W, hashes[i], pt.Params, w.refs[i].d2w)
	}
	mw := newMemWriter()
	ctx := context.Background()
	ops := scaled(hotReplayOps, seconds, len(w.pts))
	var respBytes int
	for i := 0; i < ops; i++ {
		k := i % len(w.pts)
		pt := w.pts[k]
		cl := classOf(pt.Regions)
		root, err := serve(t, srv, mw, "/v1/evaluate", "evaluate", i, w.bodies[k])
		if err == nil {
			err = checkEval(mw.body.Bytes(), w.refs[k], true)
		}
		st.op(err)
		if i < len(w.pts) {
			respBytes += mw.body.Len()
		}
		// The request's own work includes decoding and hashing its
		// params; they are re-timed beside it, not subtracted from it.
		t.do("core.DecodeParams", cl, i, -1, 1, true, func() {
			q, _ := core.DecodeParams(base, bytes.NewReader(pt.JSON))
			sinkF = q.Warpage
		})
		t.do("core.Params.CanonicalHash", cl, i, -1, 1, true, func() { sinkU = pt.Params.CanonicalHash() })
		t.do("fleetcache.Cache.Evaluate", "hit", i, root, 2, true, func() {
			b1, _, _ := fleet.Evaluate(ctx, fleetcache.ModeW2W, hashes[k], pt.Params)
			b2, _, _ := fleet.Evaluate(ctx, fleetcache.ModeD2W, hashes[k], pt.Params)
			sinkF = b1.Total + b2.Total
		})
	}
	// Tight loops for the ns-scale calls, where a clock read per call
	// would swamp the call.
	for rep := 0; rep < 16; rep++ {
		t.do("loop:fleetcache.Cache.Evaluate", "hit", -1, -1, loopCalls, false, func() {
			for i := 0; i < loopCalls; i++ {
				k := i % len(w.pts)
				b, _, _ := fleet.Evaluate(ctx, fleetcache.ModeW2W, hashes[k], w.pts[k].Params)
				sinkF = b.Total
			}
		})
		for _, class := range []int{0, 8} {
			var pts []point
			for _, pt := range w.pts {
				if pt.Regions == class {
					pts = append(pts, pt)
				}
			}
			t.do("loop:core.Params.CanonicalHash", classOf(class), -1, -1, loopCalls, false, func() {
				for i := 0; i < loopCalls; i++ {
					sinkU = pts[i%len(pts)].Params.CanonicalHash()
				}
			})
		}
	}
	s := t.spans
	m["service.self_us"] = metric{median(perCall(s, "service.Server.ServeHTTP", "evaluate", true)) / 1e3, "us"}
	m["service.decode_us"] = metric{median(perCall(s, "core.DecodeParams", "*", true)) / 1e3, "us"}
	m["service.resp_bytes"] = metric{float64(respBytes) / float64(len(w.pts)), "bytes"}
	m["fleetcache.hit_ns"] = metric{median(perCall(s, "loop:fleetcache.Cache.Evaluate", "hit", false)), "ns"}
	m["core.hash_ns.r0"] = metric{median(perCall(s, "loop:core.Params.CanonicalHash", "r0", false)), "ns"}
	m["core.hash_ns.r8"] = metric{median(perCall(s, "loop:core.Params.CanonicalHash", "r8", false)), "ns"}
	return nil
}

// ---------------------------------------------------------------------

// replayCold replays sweep-cold. Each batch of never-seen points runs
// through the service twice: cold, as the workload sends it, and again
// once its points are resident, with the cache calls re-timed as
// children, so the service's own share of a batch is measured without
// the engine's run-to-run jitter in it. Each point's cache miss, engine
// call and model calls are then re-timed on a cache no request touched.
func replayCold(rc *replay) error {
	t, seed, seconds, st, m := rc.t, rc.seed, rc.seconds, rc.st, rc.m
	ops := scaled(coldReplayOps, seconds, 2)
	pts := genMix(seed, "sweep-cold", ops*batchPoints)
	bodies := batchBodies(pts)
	base := core.Baseline()
	fleet := fleetcache.New(fleetcache.Config{CacheSize: 1024})
	defer fleet.Close()
	srv := service.New(service.Config{Defaults: &base, CacheSize: 1024, FleetCache: fleet})
	shadow := fleetcache.New(fleetcache.Config{CacheSize: 1024})
	defer shadow.Close()
	ctx := context.Background()
	mw := newMemWriter()
	stale := 0
	for i, body := range bodies {
		_, err := serve(t, srv, mw, "/v1/evaluate/batch", "batch", i, body)
		if err == nil {
			_, err = checkBatch(mw.body.Bytes())
		}
		st.op(err)
		warm, err := serve(t, srv, mw, "/v1/evaluate/batch", "batch.warm", i, body)
		if err != nil {
			return err
		}
		batch := pts[i*batchPoints : (i+1)*batchPoints]
		hashes := make([]uint64, len(batch))
		for j, pt := range batch {
			hashes[j] = pt.Params.CanonicalHash()
		}
		t.do("fleetcache.Cache.Evaluate", "hit", i, warm, 2*len(batch), true, func() {
			for j, pt := range batch {
				h := hashes[j]
				b1, _, _ := fleet.Evaluate(ctx, fleetcache.ModeW2W, h, pt.Params)
				b2, _, _ := fleet.Evaluate(ctx, fleetcache.ModeD2W, h, pt.Params)
				sinkF = b1.Total + b2.Total
			}
		})
		for _, pt := range batch {
			cl := classOf(pt.Regions)
			t.do("core.DecodeParams", cl, i, -1, 1, true, func() {
				q, _ := core.DecodeParams(base, bytes.NewReader(pt.JSON))
				sinkF = q.Warpage
			})
			var hash uint64
			t.do("core.Params.CanonicalHash", cl, i, -1, 1, true, func() { hash = pt.Params.CanonicalHash() })
			for _, mode := range []string{fleetcache.ModeW2W, fleetcache.ModeD2W} {
				miss := t.do("fleetcache.Cache.Evaluate", "miss."+mode+"."+cl, i, -1, 1, true, func() {
					b, _, _ := shadow.Evaluate(ctx, mode, hash, pt.Params)
					sinkF = b.Total
				})
				if !decompose(t, pt, mode, i, miss) {
					stale++
				}
			}
		}
	}
	if stale > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d model decompositions no longer reproduce core.Params.Evaluate*; core.self_us and the model-call rows are stale\n", stale)
	}
	// PadGeometry.MaxMisalignment in a tight loop over the generated
	// region geometries.
	var geoms []overlay.PadGeometry
	for _, pt := range pts {
		for _, g := range pt.Params.RegionGrids() {
			geoms = append(geoms, g.Geometry)
		}
	}
	for rep := 0; rep < 8; rep++ {
		t.do("loop:overlay.PadGeometry.MaxMisalignment", "", -1, -1, loopCalls/16, false, func() {
			for i := 0; i < loopCalls/16; i++ {
				sinkF = geoms[i%len(geoms)].MaxMisalignment()
			}
		})
	}

	s := t.spans
	us := func(x float64) metric { return metric{x / 1e3, "us"} }
	m["service.batch_self_ms"] = metric{median(perCall(s, "service.Server.ServeHTTP", "batch.warm", true)) / 1e6, "ms"}
	// The self times below come from W2W calls, whose engine work is
	// small enough that re-timing jitter does not swamp them.
	var missSelf []float64
	for _, cl := range []string{"r0", "r2", "r8"} {
		missSelf = append(missSelf, perCall(s, "fleetcache.Cache.Evaluate", "miss.w2w."+cl, true)...)
		m["core.eval_w2w_us."+cl] = us(median(perCall(s, "core.Params.EvaluateW2W", cl, false)))
		m["core.eval_d2w_us."+cl] = us(median(perCall(s, "core.Params.EvaluateD2W", cl, false)))
		m["overlay.d2w_placement_us."+cl] = us(median(perCall(s, "overlay.Model.ExpectedDieYieldD2W", cl, false)))
	}
	m["fleetcache.miss_self_us"] = us(median(missSelf))
	m["core.self_us"] = us(median(perCall(s, "core.Params.EvaluateW2W", "*", true)))
	for _, cl := range []string{"r0", "r8"} {
		m["overlay.w2w_wafer_us."+cl] = us(median(perCall(s, "overlay.Model.WaferYieldW2W", cl, false)))
		m["defect.lambda_us."+cl] = us(median(perCall(s, "defect.w2w", cl, false)) + median(perCall(s, "defect.d2w", cl, false)))
	}
	m["overlay.delta_ns"] = metric{median(perCall(s, "loop:overlay.PadGeometry.MaxMisalignment", "", false)), "ns"}
	m["layout.grids_us.r8"] = us(median(perCall(s, "core.Params.RegionGrids", "r8", false)))
	return nil
}

// decompose times core.Params.EvaluateW2W/D2W for pt as a child of
// parent, then re-times the model calls that evaluation makes, in the
// order it makes them, as its children. It reports whether the
// re-composed breakdown still matches the real one bit for bit.
func decompose(t *tracer, pt point, mode string, req, parent int) bool {
	p := pt.Params
	cl := classOf(pt.Regions)
	var want core.Breakdown
	name := "core.Params.EvaluateW2W"
	if mode == fleetcache.ModeD2W {
		name = "core.Params.EvaluateD2W"
	}
	ev := t.do(name, cl, req, parent, 1, true, func() {
		if mode == fleetcache.ModeW2W {
			want, _ = p.EvaluateW2W()
		} else {
			want, _ = p.EvaluateD2W()
		}
	})
	// Validation and grid resolution stay in core's own time; the model
	// calls are the evaluation's children.
	call := func(name string, f func()) { t.do(name, cl, req, ev, 1, true, f) }
	var got core.Breakdown
	if p.PadLayout == nil {
		if mode == fleetcache.ModeW2W {
			call("overlay.Model.WaferYieldW2W", func() { got.Overlay = p.OverlayModel().WaferYieldW2W(p.Layout()) })
		} else {
			call("overlay.Model.ExpectedDieYieldD2W", func() {
				got.Overlay = p.OverlayModel().ExpectedDieYieldD2W(p.DieWidth, p.DieHeight, p.WaferRadius(), p.PlacementSpread())
			})
		}
		call("recess.Params.DieYield", func() { got.Recess = p.RecessParams().DieYield(p.PadArray().Pads()) })
		call("defect."+mode, func() {
			if mode == fleetcache.ModeW2W {
				got.Defect = p.DefectParams().YieldW2W(p.DieWidth, p.DieHeight)
			} else {
				got.Defect = p.DefectParams().YieldD2W(p.DieWidth, p.DieHeight, p.Pitch, p.TopPadDiameter/2, p.PadArray().Pads())
			}
		})
	} else {
		var grids []layout.RegionGrid
		t.do("core.Params.RegionGrids", cl, req, -1, 1, true, func() { grids = p.RegionGrids() })
		call("defect."+mode, func() {
			dp := p.DefectParams()
			var lsum float64
			for _, g := range grids {
				if mode == fleetcache.ModeW2W {
					lsum += dp.LambdaW2W(g.Rect.Width(), g.Rect.Height())
				} else {
					lsum += dp.LambdaD2W(g.Rect.Width(), g.Rect.Height(), g.Geometry.Pitch, g.Geometry.TopDiameter/2, g.Grid.Pads())
				}
			}
			got.Defect = math.Exp(-lsum)
		})
		regions := make([]overlay.PadRegion, len(grids))
		call("overlay.PadGeometry.MaxMisalignment", func() {
			for i, g := range grids {
				regions[i] = overlay.PadRegion{Rect: g.Grid.Rect, Delta: g.Geometry.MaxMisalignment()}
			}
		})
		if mode == fleetcache.ModeW2W {
			call("overlay.Model.WaferYieldW2W", func() { got.Overlay = p.OverlayModel().WaferYieldW2WRegions(p.Layout(), regions) })
		} else {
			call("overlay.Model.ExpectedDieYieldD2W", func() {
				got.Overlay = p.OverlayModel().ExpectedDieYieldD2WRegions(p.DieWidth, p.DieHeight, p.WaferRadius(), p.PlacementSpread(), regions)
			})
		}
		call("recess.Params.DieYield", func() {
			got.Recess = 1
			for _, g := range grids {
				got.Recess *= p.RegionRecessParams(g.Geometry).DieYield(g.Grid.Pads())
			}
		})
	}
	got.Total = got.Overlay * got.Recess * got.Defect
	return got == want
}

// ---------------------------------------------------------------------

// replaySim replays mc-regions' classes at Workers: 1: one sample and
// half the class's sample count, so the per-sample slope and the
// per-call intercept (environment build) separate; plus randx.Derive.
func replaySim(rc *replay) error {
	t, seed, seconds, st, m := rc.t, rc.seed, rc.seconds, rc.st, rc.m
	reps := scaled(simReplayReps, seconds, 3)
	for _, k := range genSimClasses(seed, "mc-regions") {
		big := k.samples / 2
		times := map[int][]float64{}
		for rep := 0; rep < reps; rep++ {
			for _, n := range []int{1, big} {
				o := simOptions(k.mode, k.pt.Params, k.seed, 0, n, 1)
				var err error
				i := t.do("sim.Run"+strings.ToUpper(k.mode), fmt.Sprintf("%s.n%d", classOf(k.regions), n), rep, -1, 1, false, func() {
					var r sim.Result
					r, err = runSim(k.mode, o)
					sinkF = r.Yield
				})
				st.op(err)
				times[n] = append(times[n], float64(t.spans[i].dur()))
			}
		}
		slope := (median(times[big]) - median(times[1])) / float64(big-1)
		unit := "wafer"
		if k.mode == "d2w" {
			unit = "die"
		}
		m[fmt.Sprintf("sim.%s_%s_us.%s", k.mode, unit, classOf(k.regions))] = metric{slope / 1e3, "us"}
		if k.regions == 1 {
			m["sim.run_fixed_us."+k.mode] = metric{(median(times[1]) - slope) / 1e3, "us"}
			m["sim.allocs_per_"+unit] = metric{allocSlope(k, big), "allocs"}
		}
	}
	for rep := 0; rep < 8; rep++ {
		t.do("loop:randx.Derive", "", -1, -1, loopCalls, false, func() {
			for i := 0; i < loopCalls; i++ {
				sinkS = randx.Derive(seed, uint64(i))
			}
		})
	}
	m["randx.derive_ns"] = metric{median(perCall(t.spans, "loop:randx.Derive", "", false)), "ns"}
	m["randx.derive_allocs"] = metric{allocsPer(loopCalls, func() {
		for i := 0; i < loopCalls; i++ {
			sinkS = randx.Derive(seed, uint64(i))
		}
	}), "allocs"}
	return nil
}

// allocsPer is the heap allocations of f divided by n.
func allocsPer(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// allocSlope is the heap allocations per sample of k's simulation at
// Workers: 1, net of the per-call allocations.
func allocSlope(k *simClass, big int) float64 {
	run := func(n int) func() {
		return func() {
			r, _ := runSim(k.mode, simOptions(k.mode, k.pt.Params, k.seed, 0, n, 1))
			sinkF = r.Yield
		}
	}
	return (allocsPer(1, run(big)) - allocsPer(1, run(1))) / float64(big-1)
}

// ---------------------------------------------------------------------

// replayJobs replays jobs-converge through an in-process jobs.Manager
// whose Run seam times each slice, then times sim.Merge over each job's
// slices the way the manager folds them.
func replayJobs(rc *replay) error {
	t, seed, seconds, st, m := rc.t, rc.seed, rc.seconds, rc.st, rc.m
	classes, err := genJobClasses(seed)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(rc.work, "jobs-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var mu sync.Mutex
	var root, req int
	var slices []sim.Result
	mgr, err := jobs.Open(jobs.Config{Dir: dir, Run: func(ctx context.Context, mode string, o sim.Options) (sim.Result, error) {
		mu.Lock()
		parent, r := root, req
		mu.Unlock()
		var res sim.Result
		var err error
		t.do("jobs.slice", mode, r, parent, 1, false, func() {
			if mode == "d2w" {
				res, err = sim.RunD2WContext(ctx, o)
			} else {
				res, err = sim.RunW2WContext(ctx, o)
			}
		})
		mu.Lock()
		slices = append(slices, res)
		mu.Unlock()
		return res, err
	}})
	if err != nil {
		return err
	}
	defer mgr.Close()
	n := scaled(jobsReplayJobs, seconds, 4)
	for i := 0; i < n; i++ {
		k := classes[i%len(classes)]
		spec := jobs.Spec{Mode: k.mode, Params: k.pt.Params, Seed: k.seed, Samples: k.cap,
			CheckpointEvery: k.every, Epsilon: k.epsilon, MinSamples: k.every}
		mu.Lock()
		req, slices = i, nil
		root = t.open("jobs.job", k.mode, i, -1)
		mu.Unlock()
		var job jobs.Job
		t.do("jobs.Manager.Submit", k.mode, i, -1, 1, false, func() { job, err = mgr.Submit(spec) })
		if err != nil {
			return err
		}
		ev, err := waitJob(mgr, job.ID)
		t.close(root)
		if err == nil {
			err = checkJob(ev.Job, k)
		}
		st.op(err)
		mu.Lock()
		parts := slices
		mu.Unlock()
		t.do("sim.Merge", k.mode, i, -1, len(parts)+1, false, func() {
			acc := sim.Result{Mode: strings.ToUpper(k.mode)}
			for _, r := range parts {
				acc, _ = sim.Merge(acc, r)
			}
			acc, _ = sim.Merge(acc)
			sinkF = acc.Yield
		})
	}
	var merge []float64
	for _, sp := range t.spans {
		if sp.Name == "sim.Merge" {
			merge = append(merge, float64(sp.dur()))
		}
	}
	m["jobs.submit_ms"] = metric{median(perCall(t.spans, "jobs.Manager.Submit", "*", false)) / 1e6, "ms"}
	m["jobs.slice_overhead_ms"] = metric{median(perCall(t.spans, "jobs.job", "*", true)) / 1e6, "ms"}
	m["sim.merge_us"] = metric{median(merge) / 1e3, "us"}
	return nil
}

// waitJob blocks until the job's stream reports a terminal state.
func waitJob(mgr *jobs.Manager, id string) (jobs.Event, error) {
	ch, cancel, err := mgr.Subscribe(id, 0)
	if err != nil {
		return jobs.Event{}, err
	}
	defer cancel()
	timeout := time.After(30 * time.Second)
	for {
		select {
		case ev := <-ch:
			if ev.Job.State.Terminal() {
				return ev, nil
			}
		case <-timeout:
			return jobs.Event{}, fmt.Errorf("job %s not terminal after 30s", id)
		}
	}
}

func checkJob(j jobs.Job, k *jobClass) error {
	if j.State != jobs.StateDone || j.Result == nil || !j.Result.StoppedEarly || j.Completed != k.stopAt*k.every {
		return fmt.Errorf("job %s: %s at %d samples; want done at %d", j.ID, j.State, j.Completed, k.stopAt*k.every)
	}
	if j.Result.Counts != k.ref.Counts || math.Float64bits(j.Result.Yield) != math.Float64bits(k.ref.Yield) {
		return fmt.Errorf("job %s: result differs from the in-process ladder", j.ID)
	}
	return nil
}
