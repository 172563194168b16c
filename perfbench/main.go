// Command perfbench is the repository's benchmark. It drives the shipped
// yapserve daemon, started fresh for every run with production flags on
// loopback, from one closed-loop load generator over at most two
// connections, checks every answer, and prints the end-to-end metrics.
// With -trace 1 it instead replays every workload's generated inputs
// through each layer's public entry points in this process and prints the
// per-layer metrics (see traced.go).
//
// Run it through run.sh, which builds this package and the daemon from
// the checkout:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// setups is how many times a run starts a fresh daemon and warms it up;
// setup_s is their median and the last one serves the timed window.
const setups = 3

// runLimit bounds a whole run: past it every daemon is killed and the run
// fails, so a pathological slowdown cannot hang the caller.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// abort stops every daemon still running and exits without a result.
func abort(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	stopAll()
	os.Exit(1)
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: evaluate-hot, sweep-cold, mc-regions or jobs-converge")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 10, "intended run length; sets the fixed op count of the run")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics against the daemon, 1 = traced per-layer run")
		yapserve = flag.String("yapserve", "", "path of the built yapserve binary")
		work     = flag.String("work", "", "work directory inside the checkout: daemon stores, span dumps")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	switch {
	case !ok:
		abort("unknown workload %q", *name)
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		abort("need --seconds >= 1 and --trace 0 or 1")
	case *yapserve == "" || *work == "":
		abort("need -yapserve and -work (run through run.sh)")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		abort("%v", err)
	}
	time.AfterFunc(runLimit, func() { abort("run exceeded %v", runLimit) })
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { abort("interrupted by %v", <-sig) }()

	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*name, *seed, *seconds, *yapserve, *work)
	} else {
		res, err = measure(mk(), *name, *seed, *seconds, *yapserve, *work)
	}
	if err != nil {
		abort("%s: %v", *name, err)
	}
	if err := checkDeclared(res, *trace == 1); err != nil {
		abort("%s: %v", *name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		abort("encode result: %v", err)
	}
	fmt.Println(string(out))
}

// opsFor is the fixed op count of a run of the given intended length.
func opsFor(w workload, seconds int) int {
	return int(math.Ceil(w.opsPerSecond() * float64(seconds)))
}

// window is what one daemon reports over a timed window.
type window struct {
	loop     loopOutcome
	cpu      time.Duration
	rssMB    float64
	counters map[string]metric
	// samples split the machine's CPU time every 100 ms over the window;
	// stealPct is the share the hypervisor gave to others.
	samples  []tickSample
	stealPct float64
}

// startWarm starts a fresh daemon for w and runs its warm-up, returning
// the daemon, its client and the time from exec to the end of warm-up.
func startWarm(w workload, bin, work string) (*server, *client, func(), time.Duration, error) {
	dir, err := os.MkdirTemp(work, "daemon-")
	if err != nil {
		return nil, nil, nil, 0, err
	}
	s, err := startServer(bin, w.serverArgs(dir)...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, 0, err
	}
	c := newClient(s.base, w.conns())
	done := func() {
		c.close()
		s.stop()
		os.RemoveAll(dir)
	}
	if err := w.warm(c); err != nil {
		done()
		return nil, nil, nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return s, c, done, time.Since(s.started), nil
}

// timed runs ops ops of w against a warmed daemon and reads the daemon's
// counters, CPU and memory around the window.
func timed(w workload, s *server, c *client, ops int) (window, error) {
	before, err := s.scrape(c.http)
	if err != nil {
		return window{}, err
	}
	cpu0, err := s.cpu()
	if err != nil {
		return window{}, err
	}
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	var samples []tickSample
	go func() {
		var err error
		samples, err = sampleHost(stop, 100*time.Millisecond)
		sampled <- err
	}()
	loop := outcomeOf(closedLoop(w.conns(), ops, func(i int, buf *bytes.Buffer) error { return w.op(c, i, buf) }))
	close(stop)
	if err := <-sampled; err != nil {
		return window{}, err
	}
	cpu1, err := s.cpu()
	if err != nil {
		return window{}, err
	}
	after, err := s.scrape(c.http)
	if err != nil {
		return window{}, err
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return window{}, err
	}
	first, last := samples[0], samples[len(samples)-1]
	win := window{loop: loop, cpu: cpu1 - cpu0, rssMB: rss, samples: samples, stealPct: 100 * stealBetween(samples, first.at, last.at)}
	if loop.failed == 0 {
		// A guard needs every op to have run as planned.
		if win.counters, err = w.guard(before, after, ops); err != nil {
			return window{}, err
		}
	}
	return win, nil
}

// measure is the untraced run: the end-to-end metrics of one workload.
func measure(w workload, name string, seed uint64, seconds int, bin, work string) (result, error) {
	ops := opsFor(w, seconds)
	if err := w.prepare(seed, ops); err != nil {
		return result{}, fmt.Errorf("prepare: %w", err)
	}
	var setupS []float64
	var win window
	for i := 0; i < setups; i++ {
		s, c, done, d, err := startWarm(w, bin, work)
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			done()
			continue
		}
		win, err = timed(w, s, c, ops)
		done()
		if err != nil {
			return result{}, err
		}
	}
	checkErr := w.finish()
	if win.loop.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed; first: %v\n", name, win.loop.failed, ops, win.loop.firstErr)
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, checkErr)
	}
	lat, err := summarize(win.loop.recs, win.samples)
	if err != nil {
		return result{}, err
	}
	if win.loop.failed == win.loop.attempted {
		return result{}, fmt.Errorf("every op failed; first: %v", win.loop.firstErr)
	}
	sort.Float64s(setupS)
	fmt.Printf("%s seed %d: %d ops in %.3fs, host steal %.1f%%; timings over the %d ops of the least-stolen slices, latency_tail_ms their p%.2f; setups %v s\n",
		name, seed, ops, win.loop.window.Seconds(), win.stealPct, lat.Kept, lat.TailPct, setupS)
	return result{
		Correct:   win.loop.failed == 0 && checkErr == nil,
		Attempted: win.loop.attempted,
		Failed:    win.loop.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setupS), "s"},
			"requests_per_s":  {lat.Rate, "1/s"},
			"latency_p50_ms":  {lat.P50, "ms"},
			"latency_tail_ms": {lat.Tail, "ms"},
			"cpu_ms_per_req":  {float64(win.cpu) / 1e6 / float64(win.loop.attempted), "ms"},
			"rss_peak_mb":     {win.rssMB, "MiB"},
		},
	}, nil
}

// checkDeclared verifies that a result carries exactly the metrics, with
// the units, that BENCHMARK.json declares for its mode, and that every
// value is a finite number.
func checkDeclared(res result, traced bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	if len(want) != len(res.Metrics) {
		return fmt.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s declared but not measured", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s in %s, declared in %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	return nil
}
