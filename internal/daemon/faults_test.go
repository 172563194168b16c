package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"yap/internal/client"
	"yap/internal/core"
	"yap/internal/faultinject"
	"yap/internal/fleetcache"
	"yap/internal/service"
)

// probe drives one route of a daemon and lists the answers it may get.
type probe struct {
	route string
	do    drive
	want  []string
}

// drive calls a route and renders the answer: "200", or "202 <state>"
// once a submitted job is terminal, or "<status> <code>" for an error,
// plus a word on the documented degradations.
type drive func(ctx context.Context, t *testing.T, cli *client.Client) string

// TestFaultHooksAnswerByContract arms every faultinject hook in error
// mode at probability 1, through YAP_FAULTS and the shipped daemon wiring,
// and drives each route the hook reaches with a client that does not
// retry. Every error answer must be a 5xx the client retries with a code
// service.ErrorCodes lists, or 409 "not_leader"; every other answer must
// be the documented degradation of that hook.
func TestFaultHooksAnswerByContract(t *testing.T) {
	jobsDir := func(t *testing.T, _ []string, _ int) []string { return []string{"-jobs-dir", t.TempDir()} }
	internal := []string{"500 internal"}
	fleet := []string{"", "http://" + freeAddr(t)} // the member, then its dead cache peer
	cases := []struct {
		hook    string
		members int // 3 runs a replicated control plane
		flags   func(t *testing.T, urls []string, i int) []string
		probes  []probe
	}{
		{hook: faultinject.HookSimW2WWafer, flags: jobsDir, probes: []probe{
			{"simulate", simulate("w2w", false), internal},
			{"shard", shard("w2w"), internal},
			{"job", job("w2w"), []string{"202 failed"}},
		}},
		{hook: faultinject.HookSimD2WDie, flags: jobsDir, probes: []probe{
			{"simulate", simulate("d2w", false), internal},
			{"shard", shard("d2w"), internal},
			{"job", job("d2w"), []string{"202 failed"}},
		}},
		{hook: faultinject.HookPoolAdmit, probes: []probe{
			{"simulate", simulate("w2w", false), internal},
			{"shard", shard("w2w"), internal},
		}},
		// A failed lookup degrades to a miss and a failed store is skipped.
		{hook: faultinject.HookCacheGet, probes: []probe{
			{"evaluate", evaluate, []string{"200"}},
			{"batch", batch, []string{"200"}},
		}},
		{hook: faultinject.HookCachePut, probes: []probe{
			{"evaluate", evaluate, []string{"200"}},
			{"batch", batch, []string{"200"}},
		}},
		{hook: faultinject.HookFleetFlight, probes: []probe{
			{"evaluate", evaluate, internal},
			{"batch", batch, []string{"200 every point failed"}},
		}},
		// The only cache peer is dead and every fetch fails anyway: the keys
		// it owns are computed here.
		{hook: faultinject.HookFleetFetch,
			flags: func(_ *testing.T, urls []string, _ int) []string {
				fleet[0] = urls[0]
				return []string{"-cache-peers", fleet[1], "-advertise", fleet[0]}
			},
			probes: []probe{{"evaluate of peer-owned keys", evaluateOwnedBy(fleet), []string{"200"}}}},
		{hook: faultinject.HookJobsWAL, flags: jobsDir, probes: []probe{
			{"submit", submit, internal},
		}},
		{hook: faultinject.HookJobsRun, flags: jobsDir, probes: []probe{
			{"job", job("w2w"), []string{"202 failed"}},
		}},
		// The daemon is its own worker; /v1/shard never re-distributes.
		{hook: faultinject.HookDistDispatch, flags: selfWorker, probes: []probe{
			{"simulate", simulate("w2w", false), internal},
			{"local simulate", simulate("w2w", true), []string{"200"}},
		}},
		{hook: faultinject.HookDistMerge, flags: selfWorker, probes: []probe{
			{"simulate", simulate("w2w", false), internal},
			{"local simulate", simulate("w2w", true), []string{"200"}},
		}},
		{hook: faultinject.HookReplicaShip, members: 3, flags: replicaMember, probes: []probe{
			{"submit", submit, quorumless},
		}},
		{hook: faultinject.HookReplicaElect, members: 3, flags: replicaMember, probes: []probe{
			{"submit", submit, quorumless},
		}},
	}

	var named []string
	for _, tc := range cases {
		named = append(named, tc.hook)
	}
	for _, hook := range hookConstants(t) {
		if !slices.Contains(named, hook) {
			t.Errorf("faultinject declares hook %q, which this table lacks", hook)
		}
	}

	for _, tc := range cases {
		t.Run(tc.hook, func(t *testing.T) {
			t.Setenv(faultinject.EnvVar, "seed=1,"+tc.hook+"=1:error")
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			n := max(tc.members, 1)
			addrs, urls := make([]string, n), make([]string, n)
			for i := range addrs {
				addrs[i] = freeAddr(t)
				urls[i] = "http://" + addrs[i]
			}
			clis := make([]*client.Client, n)
			for i := range clis {
				var args []string
				if tc.flags != nil {
					args = tc.flags(t, urls, i)
				}
				cli, stop := serveAt(t, addrs[i], args...)
				defer stop()
				clis[i] = cli
			}
			if n > 1 {
				// Give the members a few leases to elect (or fail to).
				time.Sleep(3 * replicaLease)
			}
			for _, p := range tc.probes {
				for i, cli := range clis {
					if got := p.do(ctx, t, cli); !slices.Contains(p.want, got) {
						t.Errorf("%s on member %d answered %q, want one of %q", p.route, i, got, p.want)
					}
				}
			}
		})
	}
}

// hookConstants reads the values of faultinject's Hook* constants from
// its source.
func hookConstants(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../faultinject/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var hooks []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if !strings.HasPrefix(id.Name, "Hook") || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Fatalf("%s is not a string literal", id.Name)
					}
					hook, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					hooks = append(hooks, hook)
				}
			}
		}
	}
	if len(hooks) == 0 {
		t.Fatal("found no faultinject hook constants; the scan is broken")
	}
	return hooks
}

// answer renders a failed call. An error answer must be a 5xx the client
// retries with a documented code, or 409 "not_leader"; anything else is a
// contract bug.
func answer(t *testing.T, err error) string {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Errorf("no HTTP answer: %v", err)
		return "no answer"
	}
	got := fmt.Sprintf("%d %s", apiErr.Status, apiErr.Code)
	switch {
	case apiErr.Status == 409 && apiErr.Code == "not_leader":
	case apiErr.Status >= 500 && apiErr.Temporary() && slices.Contains(service.ErrorCodes, apiErr.Code):
	default:
		t.Errorf("%s breaks the error contract: %v", got, err)
	}
	return got
}

// samples sizes every run small: two wafers or fifty dies.
func samples(mode string) int {
	if mode == "w2w" {
		return 2
	}
	return 50
}

func simulate(mode string, local bool) drive {
	return func(ctx context.Context, t *testing.T, cli *client.Client) string {
		_, err := cli.Simulate(ctx, service.SimulateRequest{Mode: mode, Seed: 1, Wafers: samples("w2w"),
			Dies: samples("d2w"), Workers: 1, Local: local})
		if err != nil {
			return answer(t, err)
		}
		return "200"
	}
}

func shard(mode string) drive {
	return func(ctx context.Context, t *testing.T, cli *client.Client) string {
		_, err := cli.Shard(ctx, service.ShardRequest{Mode: mode, Seed: 1, Count: samples(mode), Workers: 1})
		if err != nil {
			return answer(t, err)
		}
		return "200"
	}
}

func submit(ctx context.Context, t *testing.T, cli *client.Client) string {
	if _, err := cli.SubmitJob(ctx, service.JobSubmitRequest{Seed: 1, Wafers: samples("w2w"), Workers: 1}); err != nil {
		return answer(t, err)
	}
	return "202"
}

// job submits a run and waits for it to finish.
func job(mode string) drive {
	return func(ctx context.Context, t *testing.T, cli *client.Client) string {
		sub, err := cli.SubmitJob(ctx, service.JobSubmitRequest{Mode: mode, Seed: 1, Wafers: samples("w2w"),
			Dies: samples("d2w"), Workers: 1})
		if err != nil {
			return answer(t, err)
		}
		done, err := cli.WaitJob(ctx, sub.ID, 5*time.Millisecond)
		if err != nil {
			return answer(t, err)
		}
		return "202 " + done.State
	}
}

func evaluate(ctx context.Context, t *testing.T, cli *client.Client) string {
	_, err := cli.Evaluate(ctx, service.EvaluateRequest{Mode: "w2w", Params: json.RawMessage(`{"Warpage": 30e-6}`)})
	if err != nil {
		return answer(t, err)
	}
	return "200"
}

// batch requires each point to carry exactly one of error or breakdown.
func batch(ctx context.Context, t *testing.T, cli *client.Client) string {
	resp, err := cli.EvaluateBatch(ctx, service.BatchEvaluateRequest{Mode: "both", Points: []json.RawMessage{
		json.RawMessage(`{}`), json.RawMessage(`{"Warpage": 31e-6}`), json.RawMessage(`{"Pitch": 4e-6}`),
	}})
	if err != nil {
		return answer(t, err)
	}
	failed := 0
	for _, pt := range resp.Points {
		if yields := pt.W2W != nil || pt.D2W != nil; yields == (pt.Error != "") {
			t.Errorf("batch point %d carries error %q and breakdowns %v", pt.Index, pt.Error, yields)
		}
		if pt.Error != "" {
			failed++
		}
	}
	switch failed {
	case 0:
		return "200"
	case len(resp.Points):
		return "200 every point failed"
	}
	return "200 some points failed"
}

// evaluateOwnedBy evaluates three keys that fleet[1] owns in the fleet
// {fleet[0], fleet[1]}, on fleet[0]; each must be computed there.
func evaluateOwnedBy(fleet []string) drive {
	return func(ctx context.Context, t *testing.T, cli *client.Client) string {
		found := 0
		for k := 0; found < 3 && k < 64; k++ {
			p := core.Baseline()
			p.Warpage = float64(20+k) * 1e-6
			hash := p.CanonicalHash()
			if fleetcache.Owner(fleet, fleetcache.ModeW2W, hash) != fleet[1] {
				continue
			}
			found++
			raw := fmt.Sprintf(`{"Warpage": %v}`, p.Warpage)
			resp, err := cli.Evaluate(ctx, service.EvaluateRequest{Mode: "w2w", Params: json.RawMessage(raw)})
			if err != nil {
				return answer(t, err)
			}
			if resp.ParamsHash != fmt.Sprintf("%016x", hash) {
				t.Fatalf("params %s hash to %s on the daemon, not %016x; the probe's key is wrong", raw, resp.ParamsHash, hash)
			}
			if resp.Cached {
				return "200 cached"
			}
		}
		if found == 0 {
			t.Fatal("the dead peer owns none of the probed keys")
		}
		return "200"
	}
}

// replicaLease is the election lease of the replicated cases.
const replicaLease = 200 * time.Millisecond

// quorumless lists the answers a submit may get when no majority can be
// reached: a follower's redirect, or the leader's annulled submit.
var quorumless = []string{"409 not_leader", "503 no_quorum", "503 leadership_lost"}

func replicaMember(t *testing.T, urls []string, i int) []string {
	others := slices.Delete(slices.Clone(urls), i, i+1)
	return []string{"-jobs-dir", t.TempDir(), "-advertise", urls[i], "-peers", strings.Join(others, ","),
		"-election-lease", replicaLease.String()}
}

func selfWorker(_ *testing.T, urls []string, _ int) []string {
	return []string{"-workers", urls[0], "-heartbeat", "20ms"}
}
