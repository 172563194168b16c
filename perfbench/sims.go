package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"yap/internal/converge"
	"yap/internal/core"
	"yap/internal/service"
	"yap/internal/sim"
)

// simClass is one fixed Monte-Carlo request: a mode, a region class and a
// sample count, at a seed fixed for the whole run.
type simClass struct {
	mode    string // "w2w" or "d2w"
	regions int
	samples int
	pt      point
	seed    uint64
	body    []byte
	ref     sim.Result
}

func (k *simClass) name() string { return k.mode + "." + classOf(k.regions) }

// simOptions is a run of n samples (wafers for W2W, dies for D2W)
// starting at global sample first.
func simOptions(mode string, p core.Params, seed uint64, first, n, workers int) sim.Options {
	o := sim.Options{Params: p, Seed: seed, FirstSample: first, Workers: workers}
	if mode == "w2w" {
		o.Wafers = n
	} else {
		o.Dies = n
	}
	return o
}

func runSim(mode string, o sim.Options) (sim.Result, error) {
	if mode == "w2w" {
		return sim.RunW2W(o)
	}
	return sim.RunD2W(o)
}

// sameResult compares a wire simulate result with an in-process one on
// everything but timing.
func sameResult(r *service.SimulateResponse, ref sim.Result) error {
	if r.Mode != ref.Mode || r.Dies != ref.Counts.Dies || r.Survived != ref.Counts.Survived || r.Partial ||
		math.Float64bits(r.OverlayYield) != math.Float64bits(ref.OverlayYield) ||
		math.Float64bits(r.DefectYield) != math.Float64bits(ref.DefectYield) ||
		math.Float64bits(r.RecessYield) != math.Float64bits(ref.RecessYield) ||
		math.Float64bits(r.Yield) != math.Float64bits(ref.Yield) ||
		math.Float64bits(r.YieldLo) != math.Float64bits(ref.YieldLo) ||
		math.Float64bits(r.YieldHi) != math.Float64bits(ref.YieldHi) {
		return fmt.Errorf("%s result %d/%d dies differs from in-process %d/%d",
			r.Mode, r.Survived, r.Dies, ref.Counts.Survived, ref.Counts.Dies)
	}
	return nil
}

// mcClasses are the four mc-regions classes. The sample counts make each
// class cost about the same host time (about 55 ms of one core on the
// reference machine), so a kernel change aimed at one class shows against
// three others of equal weight.
var mcClasses = []struct {
	mode             string
	regions, samples int
}{
	{"w2w", 1, 1200},
	{"w2w", 8, 600},
	{"d2w", 1, 85000},
	{"d2w", 8, 20000},
}

func genSimClasses(seed uint64, stream string) []*simClass {
	r := newRNG(seed, stream)
	out := make([]*simClass, len(mcClasses))
	for i, c := range mcClasses {
		k := &simClass{mode: c.mode, regions: c.regions, samples: c.samples, pt: genPoint(r, c.regions), seed: r.next()}
		count := "wafers"
		if c.mode == "d2w" {
			count = "dies"
		}
		k.body = []byte(fmt.Sprintf(`{"mode":%q,"params":%s,"seed":%d,%q:%d}`, c.mode, k.pt.JSON, k.seed, count, c.samples))
		out[i] = k
	}
	return out
}

// mcRegions cycles the four classes through POST /v1/simulate.
type mcRegions struct {
	warmSet, classes []*simClass
}

func (w *mcRegions) conns() int            { return 1 }
func (w *mcRegions) opsPerSecond() float64 { return 32 }

func (w *mcRegions) prepare(seed uint64, ops int) error {
	w.warmSet = genSimClasses(seed, "mc-regions/warm")
	w.classes = genSimClasses(seed, "mc-regions")
	for _, k := range append(append([]*simClass(nil), w.warmSet...), w.classes...) {
		ref, err := runSim(k.mode, simOptions(k.mode, k.pt.Params, k.seed, 0, k.samples, 2))
		if err != nil {
			return fmt.Errorf("in-process %s: %w", k.name(), err)
		}
		k.ref = ref
	}
	return nil
}

func (w *mcRegions) serverArgs(string) []string { return nil }

func (w *mcRegions) simulate(c *client, k *simClass, buf *bytes.Buffer) error {
	if err := c.post("/v1/simulate", k.body, 200, buf); err != nil {
		return err
	}
	var resp service.SimulateResponse
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		return fmt.Errorf("decode simulate response: %w", err)
	}
	return sameResult(&resp, k.ref)
}

// mcWarmCycles is the warm-up: two cycles over the classes at seeds the
// timed run never uses.
const mcWarmCycles = 2

func (w *mcRegions) warm(c *client) error {
	var buf bytes.Buffer
	for i := 0; i < mcWarmCycles*len(w.warmSet); i++ {
		if err := w.simulate(c, w.warmSet[i%len(w.warmSet)], &buf); err != nil {
			return err
		}
	}
	return nil
}

func (w *mcRegions) op(c *client, i int, buf *bytes.Buffer) error {
	return w.simulate(c, w.classes[i%len(w.classes)], buf)
}

func (w *mcRegions) finish() error { return nil }

func (w *mcRegions) guard(before, after map[string]float64, ops int) (map[string]metric, error) {
	want := 0
	for i := 0; i < ops; i++ {
		want += w.classes[i%len(w.classes)].ref.Counts.Dies
	}
	if got := counterDelta(before, after, "yapserve_sim_samples_total"); got != float64(want) {
		return nil, fmt.Errorf("mc-regions guard: %v samples simulated over %d requests; want %d", got, ops, want)
	}
	return nil, nil
}

// ---------------------------------------------------------------------

// jobClass is one epsilon-armed job. Its epsilon is read off the
// in-process convergence trajectory of its own seed, so the rule stops it
// at the same checkpoint on every seed: every run asks for the same work.
type jobClass struct {
	mode    string
	every   int // checkpoint_every
	cap     int // sample cap
	stopAt  int // checkpoints written before the rule stops the job
	pt      point
	seed    uint64
	body    []byte
	ref     sim.Result
	epsilon float64
}

// Job shape: tiny slices, so the slice loop, WAL, rule, merge and SSE
// publish carry a large share of each job; jobStopTarget checkpoints
// before the stop; jobCapSlices bounds the trajectory search.
const (
	jobStopTarget = 12
	jobCapSlices  = 24
)

func genJobClasses(seed uint64) ([]*jobClass, error) {
	r := newRNG(seed, "jobs-converge")
	var out []*jobClass
	for _, c := range []struct {
		mode  string
		every int
	}{{"w2w", 1}, {"d2w", 100}} {
		k := &jobClass{mode: c.mode, every: c.every, cap: jobCapSlices * c.every, pt: genPoint(r, 0), seed: r.next()}
		if err := k.trajectory(); err != nil {
			return nil, err
		}
		count := "wafers"
		if c.mode == "d2w" {
			count = "dies"
		}
		k.body = []byte(fmt.Sprintf(`{"mode":%q,"params":%s,"seed":%d,%q:%d,"checkpoint_every":%d,"epsilon":%s,"min_samples":%d}`,
			c.mode, k.pt.JSON, k.seed, count, k.cap, k.every, jsonFloat(k.epsilon), k.every))
		out = append(out, k)
	}
	return out, nil
}

func jsonFloat(x float64) string {
	b, _ := json.Marshal(x) // finite by construction
	return string(b)
}

// trajectory replays the job's checkpoint ladder in-process and picks the
// epsilon at which the rule first fires at checkpoint stopAt >= target:
// the half-width there is below every earlier one.
func (k *jobClass) trajectory() error {
	acc := sim.Result{Mode: strings.ToUpper(k.mode)}
	best := math.Inf(1)
	var hws []float64
	var accs []sim.Result
	for s := 0; s < jobCapSlices-1; s++ {
		res, err := runSim(k.mode, simOptions(k.mode, k.pt.Params, k.seed, s*k.every, k.every, 2))
		if err != nil {
			return err
		}
		if acc, err = sim.Merge(acc, res); err != nil {
			return err
		}
		hws = append(hws, converge.EstimateOf(acc.Counts.Survived, acc.Counts.Dies).HalfWidth)
		accs = append(accs, acc)
	}
	for i, hw := range hws {
		if i+1 >= jobStopTarget && hw < best {
			final, err := sim.Merge(accs[i])
			if err != nil {
				return err
			}
			k.stopAt, k.epsilon, k.ref = i+1, hw, final
			return nil
		}
		best = math.Min(best, hw)
	}
	return fmt.Errorf("%s job seed %d: no checkpoint in %d improves on every earlier half-width", k.mode, k.seed, jobCapSlices)
}

// jobsConverge submits epsilon-armed jobs and follows each one's SSE
// stream to its terminal event.
type jobsConverge struct {
	classes []*jobClass
}

func (w *jobsConverge) conns() int            { return 1 }
func (w *jobsConverge) opsPerSecond() float64 { return 220 }

func (w *jobsConverge) prepare(seed uint64, ops int) (err error) {
	w.classes, err = genJobClasses(seed)
	return err
}

func (w *jobsConverge) serverArgs(dir string) []string { return []string{"-jobs-dir", dir} }

// jobsWarm is the warm-up: whole jobs, alternating the classes.
const jobsWarm = 40

func (w *jobsConverge) warm(c *client) error {
	var buf bytes.Buffer
	for i := 0; i < jobsWarm; i++ {
		if err := w.op(c, i, &buf); err != nil {
			return err
		}
	}
	return nil
}

func (w *jobsConverge) op(c *client, i int, buf *bytes.Buffer) error {
	k := w.classes[i%len(w.classes)]
	if err := c.post("/v1/jobs", k.body, http.StatusAccepted, buf); err != nil {
		return err
	}
	var job service.JobResponse
	if err := json.Unmarshal(buf.Bytes(), &job); err != nil {
		return fmt.Errorf("decode job response: %w", err)
	}
	ev, err := followJob(c, job.ID)
	if err != nil {
		return err
	}
	switch {
	case ev.State != "done" || ev.Result == nil:
		return fmt.Errorf("job %s ended %s: %s", job.ID, ev.State, ev.Error)
	case !ev.Result.StoppedEarly || ev.Result.SamplesUsed != k.stopAt*k.every:
		return fmt.Errorf("job %s stopped at %d samples (early %v); want %d",
			job.ID, ev.Result.SamplesUsed, ev.Result.StoppedEarly, k.stopAt*k.every)
	}
	return sameResult(ev.Result, k.ref)
}

// followJob reads a job's event stream up to its terminal event.
func followJob(c *client, id string) (*service.JobStreamEvent, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.JobStreamEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, fmt.Errorf("decode stream event: %w", err)
		}
		switch ev.State {
		case "done", "failed", "canceled":
			return &ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream %s: %w", id, err)
	}
	return nil, fmt.Errorf("stream %s ended before a terminal event", id)
}

func (w *jobsConverge) finish() error { return nil }

func (w *jobsConverge) guard(before, after map[string]float64, ops int) (map[string]metric, error) {
	wantCheckpoints, requested := 0, 0
	for i := 0; i < ops; i++ {
		k := w.classes[i%len(w.classes)]
		wantCheckpoints += k.stopAt
		requested += k.cap
	}
	done := counterDelta(before, after, "yapserve_jobs_done_total")
	checkpoints := counterDelta(before, after, "yapserve_jobs_checkpoints_total")
	records := counterDelta(before, after, "yapserve_jobs_wal_records_total")
	saved := counterDelta(before, after, "yapserve_samples_saved_total")
	// Every job writes the same records besides its checkpoints.
	others := (records - checkpoints) / float64(ops)
	if done != float64(ops) || checkpoints != float64(wantCheckpoints) || others != math.Trunc(others) {
		return nil, fmt.Errorf("jobs-converge guard: %v jobs done, %v checkpoints, %v WAL records over %d jobs; want %d done, %d checkpoints and the same other records per job",
			done, checkpoints, records, ops, ops, wantCheckpoints)
	}
	return map[string]metric{
		"jobs.wal_records_per_job": {records / float64(ops), "count/op"},
		"jobs.checkpoints_per_job": {checkpoints / float64(ops), "count/op"},
		"jobs.samples_used_ratio":  {1 - saved/float64(requested), "ratio"},
	}, nil
}
