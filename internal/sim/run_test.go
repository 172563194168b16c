package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"yap/internal/converge"
	"yap/internal/core"
)

// thirdsRunner executes every slice as three contiguous FirstSample
// sub-runs on a fresh local runner and merges them — a sharding runner
// like the dist coordinator, without the network. calls counts slices.
func thirdsRunner(calls *int) SliceRunner {
	return func(ctx context.Context, mode string, opts Options) (Result, error) {
		*calls++
		n := opts.Samples(mode)
		local := LocalRunner()
		var parts []Result
		for i, from := 1, 0; i <= 3; i++ {
			to := n * i / 3
			if to == from {
				continue
			}
			sub := opts
			sub.FirstSample = opts.FirstSample + from
			sub.Wafers, sub.Dies = to-from, to-from
			res, err := local(ctx, mode, sub)
			if err != nil {
				return Result{}, err
			}
			parts = append(parts, res)
			from = to
		}
		return Merge(parts...)
	}
}

// The slice executor is runner-agnostic: a runner that shards every slice
// stops an early-stop run at exactly the local runner's index, with a
// bit-identical Result.
func TestRunSlicesShardedRunnerMatchesLocal(t *testing.T) {
	cases := []struct {
		name, mode string
		opts       Options
	}{
		{"w2w", "w2w", Options{Params: core.Baseline(), Seed: 81, Wafers: 40, Workers: 2,
			EarlyStop: converge.Rule{Epsilon: 0.01, MinSamples: 4, CheckEvery: 3}}},
		{"d2w", "d2w", Options{Params: core.Baseline(), Seed: 82, Dies: 6000, Workers: 2,
			EarlyStop: converge.Rule{Epsilon: 0.012, MinSamples: 500}}},
		{"d2w-regions", "d2w", Options{Params: multiRegionParams(), Seed: 55, Dies: 6000, Workers: 3,
			EarlyStop: converge.Rule{Epsilon: 0.012, MinSamples: 200}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Run(context.Background(), LocalRunner(), tc.mode, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !want.StoppedEarly || want.Completed <= tc.opts.EarlyStop.MinSamples {
				t.Fatalf("case must stop early past its first checkpoint, got %+v", want)
			}
			calls := 0
			got, err := Run(context.Background(), thirdsRunner(&calls), tc.mode, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripElapsed(got), stripElapsed(want)) {
				t.Errorf("sharded runner %+v != local %+v", stripElapsed(got), stripElapsed(want))
			}
			if calls < 2 {
				t.Errorf("%d slices, want the ladder walked", calls)
			}
			t.Logf("stopped at %d of %d samples in %d slices", got.Completed, got.Requested, calls)
		})
	}
}

// A ladder whose next boundary does not lie past the completed count is
// an error, never a loop.
func TestRunSlicesRejectsStalledLadder(t *testing.T) {
	opts := Options{Params: core.Baseline(), Seed: 3, Dies: 100}
	never := func(Result) (bool, error) { return false, nil }
	for _, tc := range []struct {
		name string
		next func(int) int
	}{
		{"stall", func(c int) int { return c }},
		{"regress", func(c int) int {
			if c == 0 {
				return 40
			}
			return 20
		}},
	} {
		_, err := RunSlices(context.Background(), LocalRunner(), "d2w", opts, Result{}, tc.next, never)
		if err == nil || !strings.Contains(err.Error(), "does not advance") {
			t.Errorf("%s: err = %v, want a non-advancing ladder error", tc.name, err)
		}
	}
}
