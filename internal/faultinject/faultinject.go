// Package faultinject is the repository's deterministic fault-injection
// substrate: named hooks placed on the hot paths of the simulator and the
// HTTP service (the wafer loop, the evaluate cache, worker-pool admission)
// that can delay, error or panic with a configured probability. Decisions
// draw from a randx-seeded stream per hook, so a chaos run is replayable
// from its seed exactly like a simulation is.
//
// Injection is off by default and costs one nil check per hook when
// disabled: a nil *Injector fires nothing. Tests build injectors directly
// with New; chaos runs enable them process-wide through the YAP_FAULTS
// environment variable (see ParseSpec for the grammar), which the yapserve
// daemon (internal/daemon) reads at startup.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"yap/internal/randx"
)

// EnvVar is the environment variable holding a chaos plan in ParseSpec
// grammar. It is read only by the entry points that opt in (the yapserve
// daemon in internal/daemon, the chaos tests) — never implicitly by
// library code.
const EnvVar = "YAP_FAULTS"

// Hook names wired into the repository. An injector accepts any string,
// but these are the sites that actually fire.
const (
	// HookSimW2WWafer fires once per bonded-wafer sample in the W2W loop.
	HookSimW2WWafer = "sim.w2w.wafer"
	// HookSimD2WDie fires once per cancellation stride of the D2W loop.
	HookSimD2WDie = "sim.d2w.die"
	// HookCacheGet fires before an evaluate-cache lookup; an injected
	// error degrades the lookup to a miss rather than failing the request.
	HookCacheGet = "service.cache.get"
	// HookCachePut fires before an evaluate-cache store; an injected error
	// skips the store.
	HookCachePut = "service.cache.put"
	// HookPoolAdmit fires at worker-pool admission.
	HookPoolAdmit = "service.pool.admit"
	// HookDistDispatch fires in the dist coordinator before each shard
	// dispatch; an injected error or panic fails that dispatch attempt,
	// so the shard is reassigned — the chaos path covering worker death
	// mid-shard.
	HookDistDispatch = "dist.dispatch"
	// HookDistMerge fires in the dist coordinator before shard results
	// are merged; an injected fault fails the distributed run.
	HookDistMerge = "dist.merge"
	// HookJobsWAL fires in the jobs manager before every write-ahead-log
	// append; an injected error fails the job (durability failures must
	// never be papered over), and an injected delay models a slow disk.
	HookJobsWAL = "jobs.wal"
	// HookJobsRun fires in the jobs manager before each checkpoint-sized
	// slice of a job executes; an injected error or panic fails the job,
	// covering the runner-death path.
	HookJobsRun = "jobs.run"
	// HookReplicaShip fires in the replica node before each append is
	// shipped to a peer; an injected error drops that shipment attempt
	// (the sender retries from its cursor), a delay models a slow link.
	HookReplicaShip = "replica.ship"
	// HookReplicaElect fires in the replica node before a vote request is
	// sent during an election; an injected error loses that vote exchange,
	// forcing the term to retry — the chaos path over split elections.
	HookReplicaElect = "replica.elect"
	// HookFleetFlight fires inside the fleet cache's singleflight leader,
	// immediately before the analytic engine computes a missed key — so a
	// delay widens the coalescing window (the thundering-herd tests count
	// computations by counting rolls here), an error fails the flight for
	// every coalesced waiter, and a panic exercises containment.
	HookFleetFlight = "fleetcache.flight"
	// HookFleetFetch fires before each peer cache exchange (owner fetch or
	// owner push); an injected error drops that exchange — a dropped fetch
	// degrades to local compute, a dropped push leaves the owner cold — and
	// a delay models a slow fleet link.
	HookFleetFetch = "fleetcache.fetch"
)

// ErrInjected is the sentinel wrapped by every injected error; callers
// (and tests) match it with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Mode is what a rule does when its probability draw hits.
type Mode int

const (
	// ModeDelay sleeps for the rule's Delay (context-aware).
	ModeDelay Mode = iota
	// ModeError returns an error wrapping ErrInjected.
	ModeError
	// ModePanic panics, exercising the recovery paths above the hook.
	ModePanic
)

func (m Mode) String() string {
	switch m {
	case ModeDelay:
		return "delay"
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Rule arms one fault at a set of hooks. Hook is an exact hook name, a
// prefix wildcard ("sim.*"), or "*" for every hook. Each Fire at a
// matching hook draws once per rule, so several rules can arm delay,
// error and panic at the same hook independently.
type Rule struct {
	Hook        string
	Mode        Mode
	Probability float64
	// Delay is the ModeDelay sleep; 0 means 1ms.
	Delay time.Duration
}

func (r Rule) matches(hook string) bool {
	if r.Hook == "*" || r.Hook == hook {
		return true
	}
	if prefix, ok := strings.CutSuffix(r.Hook, "*"); ok {
		return strings.HasPrefix(hook, prefix)
	}
	return false
}

func (r Rule) String() string {
	s := fmt.Sprintf("%s=%g:%s", r.Hook, r.Probability, r.Mode)
	if r.Mode == ModeDelay && r.Delay > 0 {
		s += ":" + r.Delay.String()
	}
	return s
}

// Stats counts one hook's activity.
type Stats struct {
	// Rolls is the number of probability draws (rules matched × fires).
	Rolls uint64
	// Delays, Errors and Panics count injected faults by mode.
	Delays, Errors, Panics uint64
}

// Injector holds an armed fault plan. All methods are safe for concurrent
// use, and every method is nil-receiver safe: a nil *Injector is the
// disabled state and fires nothing.
type Injector struct {
	seed  uint64
	rules []Rule

	mu      sync.Mutex
	streams map[string]*randx.Source
	stats   map[string]*Stats
}

// New arms the given rules over a seed-derived decision stream per hook.
// Probabilities are clamped to [0, 1].
func New(seed uint64, rules ...Rule) *Injector {
	inj := &Injector{
		seed:    seed,
		rules:   make([]Rule, len(rules)),
		streams: make(map[string]*randx.Source),
		stats:   make(map[string]*Stats),
	}
	for i, r := range rules {
		if r.Probability < 0 {
			r.Probability = 0
		}
		if r.Probability > 1 {
			r.Probability = 1
		}
		if r.Mode == ModeDelay && r.Delay <= 0 {
			r.Delay = time.Millisecond
		}
		inj.rules[i] = r
	}
	return inj
}

// ParseSpec builds an Injector from the YAP_FAULTS grammar: a
// comma-separated list of entries, one optional "seed=N" plus any number
// of rules of the form
//
//	hook=probability:mode[:delay]
//
// where mode is delay, error or panic and delay is a Go duration (only
// meaningful for delay; defaults to 1ms). Hook accepts the wildcard forms
// of Rule. Example:
//
//	seed=7,sim.w2w.wafer=0.05:error,sim.*=0.2:delay:2ms,service.pool.admit=0.01:panic
func ParseSpec(spec string) (*Injector, error) {
	var seed uint64
	var rules []Rule
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		key, val, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: entry %q is not key=value", entry)
		}
		if key == "seed" {
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %w", val, err)
			}
			seed = n
			continue
		}
		parts := strings.Split(val, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("faultinject: rule %q wants hook=prob:mode[:delay]", entry)
		}
		prob, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("faultinject: rule %q has bad probability %q (want [0,1])", entry, parts[0])
		}
		var mode Mode
		switch parts[1] {
		case "delay":
			mode = ModeDelay
		case "error":
			mode = ModeError
		case "panic":
			mode = ModePanic
		default:
			return nil, fmt.Errorf("faultinject: rule %q has unknown mode %q (want delay, error or panic)", entry, parts[1])
		}
		var delay time.Duration
		if len(parts) == 3 {
			if mode != ModeDelay {
				return nil, fmt.Errorf("faultinject: rule %q: only delay rules take a duration", entry)
			}
			delay, err = time.ParseDuration(parts[2])
			if err != nil || delay < 0 {
				return nil, fmt.Errorf("faultinject: rule %q has bad duration %q", entry, parts[2])
			}
		}
		rules = append(rules, Rule{Hook: key, Mode: mode, Probability: prob, Delay: delay})
	}
	if len(rules) == 0 {
		return nil, errors.New("faultinject: spec holds no rules")
	}
	return New(seed, rules...), nil
}

// FromEnv arms the plan in YAP_FAULTS, or returns (nil, nil) — injection
// disabled — when the variable is unset or empty.
func FromEnv() (*Injector, error) {
	spec := os.Getenv(EnvVar)
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	return ParseSpec(spec)
}

// Fire draws this hook's armed rules in order and applies the first-person
// consequences: ModeDelay sleeps (honoring ctx), ModeError returns an
// error wrapping ErrInjected, ModePanic panics. A nil receiver, or a hook
// with no matching rules, returns nil immediately. The decision sequence
// at a hook is a pure function of (seed, hook, fire count), so chaos runs
// replay exactly.
func (inj *Injector) Fire(ctx context.Context, hook string) error {
	if inj == nil {
		return nil
	}
	for i := range inj.rules {
		r := &inj.rules[i]
		if !r.matches(hook) {
			continue
		}
		hit, st := inj.roll(hook, r.Probability)
		if !hit {
			continue
		}
		switch r.Mode {
		case ModeDelay:
			inj.bump(&st.Delays)
			if err := sleepCtx(ctx, r.Delay); err != nil {
				return err
			}
		case ModeError:
			inj.bump(&st.Errors)
			return fmt.Errorf("faultinject: hook %s: %w", hook, ErrInjected)
		case ModePanic:
			inj.bump(&st.Panics)
			panic("faultinject: hook " + hook + ": injected panic") //yaplint:allow no-naked-panic injected panics are this package's contract; every wired site sits under a recover boundary
		}
	}
	return nil
}

// roll draws one uniform variate from the hook's stream and compares it
// against p, returning the hook's stats record alongside.
func (inj *Injector) roll(hook string, p float64) (bool, *Stats) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	src, ok := inj.streams[hook]
	if !ok {
		src = randx.Derive(inj.seed, hashHook(hook))
		inj.streams[hook] = src
	}
	st, ok := inj.stats[hook]
	if !ok {
		st = &Stats{}
		inj.stats[hook] = st
	}
	st.Rolls++
	return src.Float64() < p, st
}

// bump increments a stats counter under the injector lock.
func (inj *Injector) bump(counter *uint64) {
	inj.mu.Lock()
	*counter++
	inj.mu.Unlock()
}

// Stats snapshots per-hook activity, keyed by hook name.
func (inj *Injector) Stats() map[string]Stats {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[string]Stats, len(inj.stats))
	for hook, st := range inj.stats { //yaplint:allow determinism map-to-map copy; per-key writes are order-independent
		out[hook] = *st
	}
	return out
}

// String renders the armed plan in ParseSpec grammar (rules in armed
// order), for startup log lines.
func (inj *Injector) String() string {
	if inj == nil {
		return "off"
	}
	parts := make([]string, 0, len(inj.rules)+1)
	parts = append(parts, "seed="+strconv.FormatUint(inj.seed, 10))
	for _, r := range inj.rules {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, ",")
}

// StatsString renders the activity snapshot sorted by hook, for end-of-run
// summaries.
func (inj *Injector) StatsString() string {
	stats := inj.Stats()
	if len(stats) == 0 {
		return "no hooks fired"
	}
	hooks := make([]string, len(stats))
	i := 0
	for h := range stats { //yaplint:allow determinism key collection feeds the sort below; the result is order-independent
		hooks[i] = h
		i++
	}
	sort.Strings(hooks)
	parts := make([]string, 0, len(hooks))
	for _, h := range hooks {
		st := stats[h]
		parts = append(parts, fmt.Sprintf("%s: %d rolls, %d delays, %d errors, %d panics",
			h, st.Rolls, st.Delays, st.Errors, st.Panics))
	}
	return strings.Join(parts, "; ")
}

// hashHook maps a hook name to a stream index (FNV-1a, deterministic
// across processes).
func hashHook(hook string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(hook)) //nolint:errcheck // fnv never fails
	return h.Sum64()
}

// sleepCtx blocks for d or until ctx fires, returning ctx's error in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
