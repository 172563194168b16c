package sim

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"yap/internal/core"
)

// TestKernelsAllocateNothingPerSample: a run's allocations do not grow
// with its sample count, in every overlay, defect and recess mode. The
// stream and the per-wafer verdicts belong to the worker, so a run of many
// samples allocates exactly what a run of few does.
func TestKernelsAllocateNothingPerSample(t *testing.T) {
	cases := []struct {
		name        string
		mode        string
		opts        Options
		small, many int
	}{
		{"w2w r1", "w2w", Options{Params: core.Baseline()}, 1, 4},
		{"w2w r8", "w2w", Options{Params: eightRegionFineParams()}, 1, 4},
		{"w2w explicitPads", "w2w", Options{Params: smallParams(), ExplicitPads: true}, 1, 4},
		{"w2w r8 twoD", "w2w", Options{Params: eightRegionFineParams(), TwoDRandomMisalignment: true}, 1, 4},
		{"w2w twoD mainVoid", "w2w", Options{Params: core.Baseline(),
			TwoDRandomMisalignment: true, IncludeMainVoidW2W: true}, 1, 4},
		{"w2w modelConv", "w2w", Options{Params: core.Baseline(), ModelConventionDefects: true}, 1, 4},
		{"d2w r1", "d2w", Options{Params: core.Baseline()}, 100, 2000},
		{"d2w r8", "d2w", Options{Params: eightRegionFineParams()}, 100, 2000},
		{"d2w twoD", "d2w", Options{Params: core.Baseline(), TwoDRandomMisalignment: true}, 100, 2000},
		{"d2w explicitPads", "d2w", Options{Params: smallParams(), ExplicitPads: true}, 10, 200},
	}
	// The process's first collection starts the runtime's mark workers,
	// which allocates; collect once so that cannot land in a measurement.
	runtime.GC()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(n int) float64 {
				o := tc.opts
				o.Seed, o.Workers, o.Wafers, o.Dies = 3, 1, n, n
				return testing.AllocsPerRun(5, func() {
					var err error
					if tc.mode == "w2w" {
						_, err = RunW2W(o)
					} else {
						_, err = RunD2W(o)
					}
					if err != nil {
						t.Fatal(err)
					}
				})
			}
			if few, many := allocs(tc.small), allocs(tc.many); many != few {
				t.Errorf("%d samples allocate %v times, %d samples %v: %.3g allocations per sample, want 0",
					tc.small, few, tc.many, many, (many-few)/float64(tc.many-tc.small))
			}
		})
	}
}

// TestConcurrentRunsMatchSequential: runs with different params and
// modes, executed at once from several goroutines, each return the Result
// of the same run executed alone — no worker state leaks between runs.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	runs := []struct {
		mode string
		opts Options
	}{
		{"w2w", Options{Params: core.Baseline(), Seed: 1, Wafers: 4, Workers: 2}},
		{"w2w", Options{Params: finePitchParams(), Seed: 2, Wafers: 4, Workers: 3, IncludeMainVoidW2W: true}},
		{"w2w", Options{Params: eightRegionFineParams(), Seed: 3, Wafers: 3, Workers: 2, CollectPerDie: true}},
		{"w2w", Options{Params: wideSigmaParams(), Seed: 4, Wafers: 3, Workers: 2, TwoDRandomMisalignment: true}},
		{"d2w", Options{Params: core.Baseline(), Seed: 5, Dies: 3000, Workers: 2}},
		{"d2w", Options{Params: wideSigmaParams(), Seed: 6, Dies: 3000, Workers: 3}},
		{"d2w", Options{Params: eightRegionFineParams(), Seed: 7, Dies: 2000, Workers: 2}},
	}
	run := func(mode string, o Options) (Result, error) {
		if mode == "w2w" {
			return RunW2W(o)
		}
		return RunD2W(o)
	}
	want := make([]Result, len(runs))
	for i, r := range runs {
		res, err := run(r.mode, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = stripElapsed(res)
	}
	const rounds = 3
	got := make([]Result, rounds*len(runs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r := runs[k%len(runs)]
			got[k], errs[k] = run(r.mode, r.opts)
		}(k)
	}
	wg.Wait()
	for k := range got {
		i := k % len(runs)
		if errs[k] != nil {
			t.Fatalf("run %d: %v", i, errs[k])
		}
		if g := stripElapsed(got[k]); !reflect.DeepEqual(g, want[i]) {
			t.Errorf("run %d (%s seed %d) concurrently: %+v, alone: %+v", i, runs[i].mode, runs[i].opts.Seed, g.Counts, want[i].Counts)
		}
	}
}
