package main

// The fleet-cache drill (-drill cache): a fleet-wide deduplication
// exercise over real processes. Three yapserve children form a fleet
// wired through -cache-peers (internal/fleetcache over real HTTP); the
// drill sweeps the same cachePoints distinct parameter points across
// every member for cacheRounds rounds of /v1/evaluate/batch, SIGKILLs one
// member mid-drill, and asserts the subsystem's headline invariants:
//
//   - fleet-wide deduplication: the total number of engine computations
//     summed over all members (the yapserve_fleetcache_computes_total
//     counter, plus the dead member's last pre-kill scrape) stays ≈
//     cachePoints — NOT members × rounds × cachePoints, which is what
//     per-daemon caches would cost;
//   - bit-identity: a batch point's breakdown equals the same params
//     sent through /v1/evaluate on a DIFFERENT member, float for float;
//   - graceful degradation: after the kill, batches on the survivors
//     keep succeeding with zero per-point failures, and a fresh point
//     owned by the dead member computes locally rather than erroring.
//
// The drill runs with delay faults armed on the fleetcache.fetch hook so
// peer exchanges are exercised under latency, not just on loopback's
// happy path. Exits 1 when any invariant is violated.

import (
	"context"
	"fmt"
	"time"

	"yap/internal/client"
	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/fleetcache"
	"yap/internal/service"
)

const (
	cachePoints = 24
	cacheRounds = 3
	// fleetComputes counts one member's analytic-engine computations.
	fleetComputes = "yapserve_fleetcache_computes_total"
)

// cachePoint is one drill point: the partial-override JSON the wire
// carries and the canonical hash the parent predicts its owner with.
type cachePoint struct {
	raw  string
	hash uint64
}

// cachePointAt is drill point i: a pitch whose JSON resolves to exactly
// core.Baseline().WithPitch(pitch), so the parent can compute the point's
// canonical hash — and therefore its rendezvous owner — without asking
// the fleet.
func cachePointAt(i int) cachePoint {
	p := core.Baseline().WithPitch(float64(2+i) * 1e-6)
	return cachePoint{
		raw: fmt.Sprintf(`{"Pitch": %g, "BottomPadDiameter": %g, "TopPadDiameter": %g}`,
			p.Pitch, p.BottomPadDiameter, p.TopPadDiameter),
		hash: p.CanonicalHash(),
	}
}

// runCacheDrill returns the process exit code.
func runCacheDrill(d *drill, seed uint64) int {
	const members = 3
	const mode = "w2w"
	const held = "all fleet-cache invariants held"

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	addrs := d.reserveAddrs(members)
	urls := make([]string, members)
	for i, a := range addrs {
		urls[i] = "http://" + a
	}

	// Delay-mode faults on the peer-exchange hook: every fetch and push
	// eats latency, so the drill's dedup numbers survive slow peers, and
	// ONLY delay mode — an error fault here would legitimately force
	// local computes and blur the invariant under test.
	plan := fmt.Sprintf("seed=%d,%s=0.5:delay:2ms", seed, faultinject.HookFleetFetch)
	procs := make([]*child, members)
	for i := range procs {
		procs[i] = d.spawn(addrs[i], faultsEnv(plan), "-cache-peers", others(urls, i), "-advertise", urls[i])
	}

	points := make([]cachePoint, cachePoints)
	batchBody := service.BatchEvaluateRequest{Mode: mode}
	for i := range points {
		points[i] = cachePointAt(i)
		batchBody.Points = append(batchBody.Points, []byte(points[i].raw))
	}

	clients := make([]*client.Client, members)
	for i := range clients {
		var err error
		if clients[i], err = client.New(client.Config{BaseURL: urls[i], MaxAttempts: 4}); err != nil {
			d.fatalf("cache: client: %v", err)
		}
	}

	sendBatch := func(member int) *service.BatchEvaluateResponse {
		resp, err := clients[member].EvaluateBatch(ctx, batchBody)
		if err != nil {
			d.violation("batch on member %d failed outright: %v", member, err)
			return nil
		}
		if resp.Failed != 0 {
			for _, pt := range resp.Points {
				if pt.Error != "" {
					d.violation("member %d point %d: %s", member, pt.Index, pt.Error)
				}
			}
		}
		return resp
	}

	// Round 1 on member 0: every point computes somewhere in the fleet
	// exactly once (peer fetch finds only cold owners). Then wait for the
	// asynchronous owner-warming pushes to land so later rounds are
	// deterministic: every point is queryable on its owner.
	first := sendBatch(0)
	if first == nil {
		return d.exit(held)
	}
	d.logger.Printf("cache: round 1 on member 0: computed=%d peer_hits=%d coalesced=%d cache_hits=%d",
		first.Computed, first.PeerHits, first.Coalesced, first.CacheHits)
	for _, pt := range points {
		owner := fleetcache.Owner(urls, mode, pt.hash)
		oc := clients[0]
		for i, u := range urls {
			if u == owner {
				oc = clients[i]
			}
		}
		warmed := false
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			if _, err := oc.GetCached(ctx, mode, pt.hash); err == nil {
				warmed = true
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !warmed {
			d.violation("point %016x never reached its owner %s (push lost?)", pt.hash, owner)
		}
	}

	// Bit-identity spot check: the batch's breakdowns against individual
	// /v1/evaluate calls on a DIFFERENT member (peer-fetched or recomputed
	// there — either way the floats must match exactly).
	for _, i := range []int{0, len(points) / 2, len(points) - 1} {
		ev, err := clients[1].Evaluate(ctx, service.EvaluateRequest{Mode: mode, Params: []byte(points[i].raw)})
		if err != nil {
			d.violation("evaluate point %d on member 1: %v", i, err)
			continue
		}
		bp := first.Points[i]
		if bp.ParamsHash != ev.ParamsHash || bp.W2W == nil || ev.W2W == nil || *bp.W2W != *ev.W2W {
			d.violation("point %d diverges across members:\n  batch    %+v\n  evaluate %+v", i, bp.W2W, ev.W2W)
		}
	}

	// Remaining pre-kill rounds, round-robined across all members. With
	// owners warm these should be answered from caches, not computed.
	preKillRounds := cacheRounds / 2
	for r := 0; r < preKillRounds; r++ {
		for m := 0; m < members; m++ {
			sendBatch(m)
		}
	}

	// SIGKILL the last member mid-drill, banking its compute counter
	// first (its contribution to the fleet-wide total).
	victim := members - 1
	deadComputes := d.metric(ctx, urls[victim], fleetComputes)
	d.logger.Printf("cache: SIGKILLing member %d (pid %d) with %v computes banked",
		victim, procs[victim].cmd.Process.Pid, deadComputes)
	procs[victim].kill()

	// Survivors keep answering batches: a dead peer must degrade to
	// cached or locally computed answers, never to request errors.
	for r := preKillRounds; r < cacheRounds; r++ {
		for m := 0; m < members-1; m++ {
			if resp := sendBatch(m); resp != nil && resp.Failed != 0 {
				d.violation("round %d member %d: %d points failed after the kill", r, m, resp.Failed)
			}
		}
	}

	// A FRESH point owned by the dead member: the survivor's peer fetch
	// hits a dead owner, trips the breaker path, and must fall back to
	// local compute — an answer, not an error.
	fresh := freshDeadOwnedPoint(urls, urls[victim], mode)
	freshComputed := false
	if fresh != nil {
		ev, err := clients[0].Evaluate(ctx, service.EvaluateRequest{Mode: mode, Params: []byte(fresh.raw)})
		switch {
		case err != nil:
			d.violation("fresh dead-owned point errored instead of degrading: %v", err)
		case ev.Cached:
			d.violation("fresh dead-owned point reported cached; nothing could have cached it")
		default:
			freshComputed = true
			d.logger.Printf("cache: fresh point owned by dead member computed locally (total %.6f)", ev.W2W.Total)
		}
	} else {
		d.logger.Print("cache: no fresh point hashed to the dead member; skipping the degradation probe")
	}

	// The headline invariant: total engine computations across the fleet
	// ≈ distinct points. Slack: keys owned by the dead member may be
	// recomputed once per survivor after eviction or loss, so allow
	// 2 × |dead-owned points|, plus the deliberate fresh compute.
	total := deadComputes
	for m := 0; m < members-1; m++ {
		total += d.metric(ctx, urls[m], fleetComputes)
	}
	deadOwned := 0
	for _, pt := range points {
		if fleetcache.Owner(urls, mode, pt.hash) == urls[victim] {
			deadOwned++
		}
	}
	budget := cachePoints + 2*deadOwned
	if freshComputed {
		budget++
	}
	naive := members * cacheRounds * cachePoints
	if total > float64(budget) {
		d.violation("fleet computed %v times for %d distinct points (budget %d with %d dead-owned; naive per-daemon caching would cost %d)",
			total, cachePoints, budget, deadOwned, naive)
	}
	fmt.Printf("yapload: cache drill: %d members × %d rounds × %d points ⇒ %v fleet-wide computations (budget %d, naive %d)\n",
		members, cacheRounds, cachePoints, total, budget, naive)
	return d.exit(fmt.Sprintf("%s (%v computations vs %d naive)", held, total, naive))
}

// freshDeadOwnedPoint scans points beyond the drill set for one whose
// rendezvous owner is the dead member; nil if none found in 64 tries.
func freshDeadOwnedPoint(urls []string, dead, mode string) *cachePoint {
	for i := cachePoints; i < cachePoints+64; i++ {
		if pt := cachePointAt(i); fleetcache.Owner(urls, mode, pt.hash) == dead {
			return &pt
		}
	}
	return nil
}
