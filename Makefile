# Convenience targets for the YAP repository. Everything is plain `go`
# underneath; the targets just bundle the common invocations.

GO ?= go

.PHONY: all build vet lint test test-race chaos drills bench bench-smoke cover figures report serve clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (see internal/lint): determinism,
# unit-safety, ctx-propagation, err-wrap and no-naked-panic rules.
# Suppress a legitimate site with `//yaplint:allow <rule> [reason]`.
lint:
	$(GO) run ./cmd/yaplint ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Chaos drill: the fault-injection and resilience tests under the race
# detector, with an aggressive YAP_FAULTS plan steering the chaos suite
# (tests that build their own injectors are unaffected), then the
# `yapload` load drill against a yapserve child armed with the same plan.
# See internal/faultinject for the spec grammar.
CHAOS_FAULTS ?= seed=7,service.cache.get=0.15:error,service.cache.put=0.15:error,service.pool.admit=0.05:error,sim.w2w.wafer=0.03:error,sim.w2w.wafer=0.03:delay:200us,sim.d2w.die=0.02:error,sim.d2w.die=0.01:panic
chaos:
	YAP_FAULTS='$(CHAOS_FAULTS)' $(GO) test -race -run 'Chaos|Fault' ./...
	$(GO) run -race ./cmd/yapload -n 300 -c 12 -faults '$(CHAOS_FAULTS)'

# SIGKILL drills, one `yapload -drill <name>` each under the race
# detector. Every daemon a drill talks to is a `yapload serve` child
# running the shipped yapserve wiring (internal/daemon), and each drill
# arms its own fault plans; the header of cmd/yapload/<name>.go lists its
# invariants. `make drills` runs them all, `make drill-<name>` one.
DRILLS := dist jobs stream ha cache
DRILL_TARGETS := $(addprefix drill-,$(DRILLS))
.PHONY: $(DRILL_TARGETS)

drills: $(DRILL_TARGETS)

$(DRILL_TARGETS): drill-%:
	$(GO) run -race ./cmd/yapload -drill $*

# The benchmark BENCHMARK.json declares: both gated perfbench workloads,
# 30 s each with the per-layer trace, against a yapserve built from this
# checkout (see perfbench/WORKLOADS.md). The Go micro-benchmarks run with
# `go test -run '^$$' -bench . -benchmem ./...`.
bench:
	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 1
	bash perfbench/run.sh --workload mc-regions --seed 1 --seconds 30 --trace 1

# Smoke runs of the benchmark (~13 s warm). The traced sweep-cold run
# re-composes core.Params.EvaluateW2W/D2W from the model calls they make
# and, when that no longer matches core bit for bit, only warns on stderr
# and exits 0; this target fails on that warning. The untraced mc-regions
# run drives the Monte-Carlo kernels through the shipped daemon and prints
# "correct":true only when every /v1/simulate answer bit-equals an
# in-process sim.RunW2W/RunD2W and the daemon's sample counter agrees;
# this target fails otherwise.
bench-smoke:
	@err=$$(bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 1 --trace 1 2>&1 >/dev/null) || \
		{ printf '%s\n' "$$err"; exit 1; }; \
	[ -z "$$err" ] || printf '%s\n' "$$err"; \
	if printf '%s' "$$err" | grep -q 'model decompositions no longer reproduce'; then \
		echo "bench-smoke: perfbench's traced model mirror drifted from internal/core"; exit 1; \
	fi
	@out=$$(bash perfbench/run.sh --workload mc-regions --seed 1 --seconds 1 --trace 0 2>&1) || \
		{ printf '%s\n' "$$out"; exit 1; }; \
	if ! printf '%s' "$$out" | grep -q '"correct":true'; then \
		printf '%s\n' "$$out"; \
		echo "bench-smoke: mc-regions simulate answers no longer match the in-process kernels"; exit 1; \
	fi

cover:
	$(GO) test -cover ./...

# Regenerate every table and figure of the paper at paper scale
# (~20-30 min; results/ gets CSVs and PNGs).
figures:
	$(GO) run ./cmd/yapvalidate -exp all -sets 300 -wafers 200 -dies 5000 -out results
	$(GO) run ./cmd/yapcases -png results -csv results
	$(GO) run ./cmd/yapviz -out results/fig6_voidmap.png
	$(GO) run ./cmd/yapdesign -target 0.85 -window-png results/process_window.png

# Quick self-contained markdown report (reduced validation scale).
report:
	$(GO) run ./cmd/yapreport -out report

# Run the yield-as-a-service HTTP daemon on :8080.
serve:
	$(GO) run ./cmd/yapserve

clean:
	rm -rf results report test_output.txt bench_output.txt
