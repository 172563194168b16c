package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"yap/internal/converge"
	"yap/internal/randx"
)

// SliceRunner executes one contiguous slice of a Monte-Carlo run: the
// samples [FirstSample, FirstSample+n) of the run rooted at opts.Seed,
// where n is opts.Wafers for mode "w2w" or opts.Dies for mode "d2w". The
// contract every runner keeps: for a given (Params, Seed, FirstSample,
// sample count) the returned tallies are bit-identical however the slice
// is executed — in process, or sharded across a worker fleet.
type SliceRunner func(ctx context.Context, mode string, opts Options) (Result, error)

// LocalRunner returns a SliceRunner on the in-process engine for one run.
// It builds the run environment on its first call and reuses it for every
// later slice, so its calls must not overlap and must share the mode,
// Params and fidelity switches; Seed, FirstSample, the sample counts,
// Workers and Faults may differ from slice to slice.
func LocalRunner() SliceRunner {
	var s *sampler
	return func(ctx context.Context, mode string, opts Options) (Result, error) {
		if opts.FirstSample < 0 {
			return Result{}, fmt.Errorf("sim: negative FirstSample %d", opts.FirstSample)
		}
		if s == nil {
			built, err := newSampler(mode, opts)
			if err != nil {
				return Result{}, err
			}
			s = &built
		}
		return s.run(ctx, opts, opts.Samples(mode))
	}
}

// Run executes the run opts describes through run: a fixed-N run is one
// slice, and a run under opts.EarlyStop walks the rule's checkpoint
// ladder (converge.Rule.NextCheckpoint) through RunSlices, ending at the
// first boundary where the rule fires. The boundaries depend only on the
// rule and the sample cap, so the stop index — and the whole Result — is
// the same for every runner and every Workers value.
func Run(ctx context.Context, run SliceRunner, mode string, opts Options) (Result, error) {
	if !opts.EarlyStop.Enabled() {
		return run(ctx, mode, opts)
	}
	rule := opts.EarlyStop.Normalized()
	total := opts.Samples(mode)
	return RunSlices(ctx, run, mode, opts, Result{},
		func(completed int) int { return rule.NextCheckpoint(completed, total) },
		func(acc Result) (bool, error) {
			return rule.ShouldStop(acc.Completed, converge.EstimateOf(acc.Counts.Survived, acc.Counts.Dies)), nil
		})
}

// RunSlices is the slice executor. It runs samples [base.Completed, N) of
// the run opts describes, where N is opts.Samples(mode), as contiguous
// slices [c, next(c)) through run, and folds each into the accumulated
// Result with Merge. Every slice reuses the FirstSample sharding property
// (sample k always draws from stream Derive(Seed, k)), so the tally after
// any boundary is bit-identical to a fixed-N run of that many samples.
//
// base is a durable prefix to resume from (the zero Result for a fresh
// run). check sees the accumulated Result at every boundary: once up front
// when a non-empty base falls short of N, since a resumed run may already
// sit at its stop point, then after every whole slice. A true verdict
// before N ends the run with StoppedEarly set; an error from check ends it
// with that error. A boundary that does not advance is an error.
//
// A context that fires once some sample has completed degrades the run to
// a Partial Result over the completed samples, as the fixed-N engine
// does: a slice the runner reports partial is folded in and ends the run.
// The Result's Requested is N and its Elapsed covers the whole call.
func RunSlices(ctx context.Context, run SliceRunner, mode string, opts Options, base Result,
	next func(completed int) int, check func(acc Result) (stop bool, err error)) (Result, error) {
	start := time.Now() //yaplint:allow determinism runtime telemetry only; never feeds the sampled streams
	total := opts.Samples(mode)
	acc, stop := base, false
	if acc.Completed > 0 {
		var err error
		if acc, err = Merge(base); err != nil {
			return Result{}, err
		}
		if acc.Completed < total {
			if stop, err = check(acc); err != nil {
				return Result{}, err
			}
		}
	}
	slice := opts
	slice.EarlyStop = converge.Rule{} // slices run fixed-N
	for !stop && acc.Completed < total {
		from := acc.Completed
		to := min(next(from), total)
		if to <= from {
			return Result{}, fmt.Errorf("sim: slice ladder does not advance past sample %d (next boundary %d)", from, to)
		}
		slice.FirstSample = opts.FirstSample + from
		if mode == "d2w" {
			slice.Dies = to - from
		} else {
			slice.Wafers = to - from
		}
		res, err := run(ctx, mode, slice)
		if err != nil {
			if from > 0 && ctx.Err() != nil {
				// The context fired before any sample of this slice
				// finished; the completed prefix is still a valid partial
				// result.
				break
			}
			return Result{}, err
		}
		if from == 0 {
			acc = res
		} else if acc, err = Merge(acc, res); err != nil {
			return Result{}, err
		}
		if res.Partial {
			break
		}
		if stop, err = check(acc); err != nil {
			return Result{}, err
		}
	}
	acc.Requested = total
	acc.StoppedEarly = stop && acc.Completed < total
	acc.Partial = !acc.StoppedEarly && acc.Completed < total
	acc.Elapsed = time.Since(start) //yaplint:allow determinism runtime telemetry only; never feeds the sampled streams
	return acc, nil
}

// sampler is one Monte-Carlo kernel as the shared sample loop drives it.
type sampler struct {
	mode string // Result.Mode: "W2W" or "D2W"
	unit string // what one sample is, for error texts: "wafer" or "die"
	hook string // fault hook fired once per stride
	// stride is how many samples a worker simulates between context
	// polls and hook fires.
	stride int
	// perDie is the length of the per-die-site tallies (0: none).
	perDie int
	// newWorker returns the sample function of one worker, which owns
	// whatever scratch its samples need: run builds one per worker and
	// slice, so no sample allocates.
	newWorker func() sampleFunc
}

// sampleFunc simulates one sample from its stream, accumulating per-site
// outcomes into perDie when that is non-nil.
type sampleFunc func(rng *randx.Source, perDie []Counts) Counts

func newSampler(mode string, opts Options) (sampler, error) {
	if err := opts.check(mode); err != nil {
		return sampler{}, err
	}
	if mode == "d2w" {
		env, err := newD2WEnv(opts)
		if err != nil {
			return sampler{}, err
		}
		return env.sampler(), nil
	}
	env, err := newW2WEnv(opts)
	if err != nil {
		return sampler{}, err
	}
	return env.sampler(), nil
}

// run simulates samples [0, n) of the slice opts describes: workers take
// the samples worker, worker+W, worker+2W, … and sample i draws from the
// stream Derive(Seed, FirstSample+i), so the tallies are the same at any
// worker count. Each worker owns one Source, reset in place to each of
// its samples' streams, and the scratch its sample function owns. Every
// stride samples a worker polls ctx and fires the fault hook; it
// checkpoints its tallies per completed sample, so a context that fires
// mid-run returns the samples that DID complete as a Partial Result with
// nil error. Only a run aborted before any sample completed, or one that
// hits an injected fault or panics, returns an error.
func (s *sampler) run(ctx context.Context, opts Options, n int) (Result, error) {
	start := time.Now() //yaplint:allow determinism runtime telemetry only; never feeds the sampled streams

	workers := opts.workers()
	if workers > n {
		workers = n
	}
	type workerOut struct {
		counts    Counts
		perDie    []Counts
		completed int
	}
	// Workers share a derived context so an injected fault in one aborts
	// the siblings promptly; the parent ctx still decides partial-vs-full.
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	done := runCtx.Done()
	faultErrs := make(chan error, workers)
	results := make(chan workerOut, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var out workerOut
			sample := s.newWorker()
			var rng randx.Source
			if s.perDie > 0 {
				out.perDie = make([]Counts, s.perDie)
			}
			// A panicking sample (fault injection, or a genuine bug) must
			// cost this run an error, not the whole process: tallies are
			// checkpointed per completed sample, so out is always coherent.
			defer func() {
				if rec := recover(); rec != nil {
					faultErrs <- fmt.Errorf("sim: %s %s worker panicked: %v", s.mode, s.unit, rec)
					stop()
				}
				results <- out
			}()
			untilPoll := 0
			for i := worker; i < n; i += workers {
				if untilPoll == 0 {
					untilPoll = s.stride
					select {
					case <-done:
						return
					default:
					}
					if err := opts.Faults.Fire(runCtx, s.hook); err != nil {
						if runCtx.Err() == nil { // a real fault, not cancellation
							faultErrs <- fmt.Errorf("sim: %s %s aborted: %w", s.mode, s.unit, err)
							stop()
						}
						return
					}
				}
				untilPoll--
				rng.Reset(opts.Seed, uint64(opts.FirstSample)+uint64(i))
				out.counts.Add(sample(&rng, out.perDie))
				out.completed++
			}
		}(w)
	}
	wg.Wait()
	close(results)

	var total Counts
	var perDie []Counts
	if s.perDie > 0 {
		perDie = make([]Counts, s.perDie)
	}
	completed := 0
	for out := range results {
		total.Add(out.counts)
		completed += out.completed
		for i := range out.perDie {
			perDie[i].Add(out.perDie[i])
		}
	}
	select {
	case err := <-faultErrs:
		return Result{}, err
	default:
	}
	res := resultFrom(s.mode, total, time.Since(start)) //yaplint:allow determinism runtime telemetry only; never feeds the sampled streams
	res.Completed, res.Requested, res.PerDie = completed, n, perDie
	if err := ctx.Err(); err != nil && completed < n {
		if completed == 0 {
			return Result{}, fmt.Errorf("sim: %s run aborted before any %s completed: %w", s.mode, s.unit, err)
		}
		res.Partial = true
	}
	return res, nil
}
