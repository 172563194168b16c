package dist

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"yap/internal/client"
	"yap/internal/converge"
	"yap/internal/core"
	"yap/internal/service"
	"yap/internal/sim"
)

// An epsilon-armed /v1/simulate on a coordinator shards every slice of the
// stop rule's checkpoint ladder across the fleet, and stops at exactly the
// single-node sample index with a bit-identical Result.
func TestDistributedEarlyStopBitIdentical(t *testing.T) {
	c := newCoordinator(t, Config{Workers: []string{newWorker(t).URL, newWorker(t).URL}, HeartbeatInterval: -1})
	front := httptest.NewServer(service.New(service.Config{Distributor: c, BreakerThreshold: -1}))
	t.Cleanup(front.Close)
	cli, err := client.New(client.Config{BaseURL: front.URL, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}

	slices := 0
	for _, req := range []service.SimulateRequest{
		{Mode: "w2w", Seed: 91, Wafers: 300, Workers: 2, Epsilon: 0.005, MinSamples: 5},
		{Mode: "d2w", Seed: 92, Dies: 20000, Workers: 2, Epsilon: 0.01, MinSamples: 3000},
	} {
		opts := sim.Options{Params: core.Baseline(), Seed: req.Seed, Wafers: req.Wafers, Dies: req.Dies,
			Workers: req.Workers, EarlyStop: converge.Rule{Epsilon: req.Epsilon, MinSamples: req.MinSamples}}
		run := sim.RunW2W
		if req.Mode == "d2w" {
			run = sim.RunD2W
		}
		want, err := run(opts)
		if err != nil {
			t.Fatal(err)
		}
		// The shards the coordinator plans for each slice of the ladder.
		rule, shards, n := opts.EarlyStop.Normalized(), 0, 0
		for done := 0; done < want.Completed; n++ {
			next := rule.NextCheckpoint(done, want.Requested)
			plan, err := Plan(next-done, 2*c.cfg.ShardsPerWorker)
			if err != nil {
				t.Fatal(err)
			}
			shards += len(plan)
			done = next
		}
		if !want.StoppedEarly || n < 2 {
			t.Fatalf("%s: the single-node run must stop early after two or more slices, got %d slices: %+v", req.Mode, n, want)
		}
		slices += n

		got, err := cli.Simulate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Distributed || !got.StoppedEarly || got.Partial {
			t.Errorf("%s: distributed=%v stopped_early=%v partial=%v, want a distributed early stop",
				req.Mode, got.Distributed, got.StoppedEarly, got.Partial)
		}
		if got.Mode != want.Mode || got.Dies != want.Counts.Dies || got.Survived != want.Counts.Survived ||
			got.OverlayYield != want.OverlayYield || got.DefectYield != want.DefectYield ||
			got.RecessYield != want.RecessYield || got.Yield != want.Yield ||
			got.YieldLo != want.YieldLo || got.YieldHi != want.YieldHi ||
			got.Completed != want.Completed || got.Requested != want.Requested || got.SamplesUsed != want.Completed {
			t.Errorf("%s: distributed early stop %+v != single-node %+v", req.Mode, *got, want)
		}
		if got.Shards != shards || got.Reassigned != 0 {
			t.Errorf("%s: shards=%d reassigned=%d, want %d shards over %d slices and none reassigned",
				req.Mode, got.Shards, got.Reassigned, shards, n)
		}
	}

	if st := c.Stats(); st.RunsMerged != uint64(slices) {
		t.Errorf("runs merged %d, want one per ladder slice (%d)", st.RunsMerged, slices)
	}
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "yapserve_early_stops_total 2\n") {
		t.Errorf("/metrics does not count both early stops:\n%s", body)
	}
}
