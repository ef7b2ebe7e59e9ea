# Tier-1 gate for the psk module. `make check` is what CI and reviewers
# run before merging: vet, build, the full test suite under the race
# detector (the parallel search engine must stay deterministic), a
# single-iteration pass over every benchmark so the evaluation harness
# cannot silently rot, and vet + test of the bench/ module (its own Go
# module, so the root `./...` patterns never compile it).

GO ?= go

# Allowed fractional ns/op regression before bench-compare fails
# (0.15 = +15%), and the per-target budget of the fuzz smoke run.
BENCH_TOLERANCE ?= 0.15
# The scale benchmarks run single-iteration over millions of rows, so
# their snapshot comparison gets a looser gate than the microbenchmarks.
SCALE_TOLERANCE ?= 0.50
# The incremental benchmarks time millisecond-scale per-batch work at
# 10 iterations, so they inherit the looser gate too.
INCR_TOLERANCE ?= 0.50
# The frontier benchmarks run full lattice passes over ~100k/1M rows at
# low iteration counts, so they share the scale-tier gate.
FRONTIER_TOLERANCE ?= 0.50
# The serve benchmarks measure service-level latency over real HTTP
# (round trips, poll intervals, scheduler noise), so they get the
# loosest gate: the signal is the regime ratio, not the absolute ns/op.
SERVE_TOLERANCE ?= 0.50
FUZZTIME ?= 30s

# Statement-coverage ratchet for `make cover`: set just below the
# measured total so coverage can only move up. Raise it when coverage
# genuinely improves; never lower it to admit a regression.
COVERAGE_FLOOR ?= 85.0

.PHONY: check vet build test race bench bench-module bench-json bench-scale bench-incr bench-frontier bench-serve bench-compare fuzz-smoke cover serve-smoke

check: vet build race bench bench-module

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# -short keeps BenchmarkScale on its ~100k-row smoke tier here, so the
# chunked/packed scale path is exercised on every `make check` without
# paying for the 1M/10M tiers (those run in `make bench-scale`).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# bench-json snapshots the policy benchmark (ns/op and allocs/op per
# variant) into BENCH_policy.json, the record of what composing
# properties costs the search relative to the built-in single-property
# target, the telemetry benchmarks into BENCH_obs.json, the record that
# a disabled recorder costs the search at most ~2% (nil-receiver fast
# path), an attached one stays in the same ballpark, and the full live
# observatory (recorder + sampler + HTTP server) tracks the bare search,
# and the worker-pool benchmark into BENCH_parallel.json.
bench-json: bench-incr
	$(GO) test -run '^$$' -bench '^BenchmarkPolicy$$' -benchmem -benchtime 10x . \
		| $(GO) run ./cmd/benchjson > BENCH_policy.json
	$(GO) test -run '^$$' -bench '^BenchmarkObs(Overhead|Live)$$' -benchmem -benchtime 10x . \
		| $(GO) run ./cmd/benchjson > BENCH_obs.json
	$(GO) test -run '^$$' -bench '^BenchmarkParallelSearch$$' -benchmem -benchtime 10x . \
		| $(GO) run ./cmd/benchjson > BENCH_parallel.json

# bench-module compiles, vets and tests the end-to-end benchmark module
# under bench/, which imports this module's packages: an API change
# here that would break bench/run.sh fails the gate instead.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# bench-incr snapshots the streaming benchmark — warm (incremental
# Apply+Republish) vs cold (full Samarati re-search) per delta batch on
# the ~1M-row Adult shape across the 0.1%/1%/10% churn ladder — into
# BENCH_incr.json, the committed record that a republish costs O(delta)
# and stays >= 10x ahead of the cold pipeline at low churn (the
# SpeedupPin sub-benchmark fails otherwise).
bench-incr:
	$(GO) test -run '^$$' -bench '^BenchmarkIncremental$$' -benchmem -benchtime 10x . \
		| $(GO) run ./cmd/benchjson > BENCH_incr.json

# bench-scale snapshots the scale benchmark — base-scan and Samarati
# ns/row + allocs/row on the 48,842-row Adult shape x2/x20/x205
# (~100k/1M/10M rows), packed kernel vs the rowwise reference — into
# BENCH_scale.json, the committed proof that the columnar substrate
# stays flat per row as data grows.
bench-scale:
	$(GO) test -run '^$$' -bench '^BenchmarkScale$$' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson > BENCH_scale.json

# bench-frontier snapshots the Pareto-frontier benchmark — one frontier
# pass (statistics-scored, nothing materialized) vs the enumerate-
# materialize-score workflow it replaces, at ~100k and ~1M rows, plus
# the AllocsPin gate proving MeasureStats allocates O(groups) — into
# BENCH_frontier.json.
bench-frontier:
	$(GO) test -run '^$$' -bench '^BenchmarkFrontier$$' -benchmem -benchtime 3x . \
		| $(GO) run ./cmd/benchjson > BENCH_frontier.json

# bench-serve snapshots the service benchmark — end-to-end job latency
# over real HTTP in the three result-cache regimes (cold search,
# result-cache hit, coalesced identical burst) — into BENCH_serve.json,
# the committed record that a cache hit answers without queueing and a
# coalesced burst costs one search, not eight.
bench-serve:
	$(GO) test -run '^$$' -bench '^BenchmarkServe$$' -benchmem -benchtime 20x ./internal/serve \
		| $(GO) run ./cmd/benchjson > BENCH_serve.json

# serve-smoke is the end-to-end service gate the CI serve job runs:
# the real pskserve entry point on an ephemeral port, driven over real
# HTTP through verdict exit codes, single-flight dedup, queued-job
# cancellation, per-job /metrics byte-identity with the embedded
# report, and counter equality with a pskanon -metrics-json run of the
# same inputs.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke|TestExitCodeAgreement' -v ./internal/cli

# bench-compare reruns the gauntlet benchmarks and fails when any
# regresses its committed BENCH_*.json ns/op by more than
# BENCH_TOLERANCE — the CI bench-regression job runs exactly this, so
# a search-path slowdown cannot merge silently. Refresh the baselines
# with `make bench-json` when a change is *supposed* to move them.
bench-compare:
	$(GO) test -run '^$$' -bench '^BenchmarkParallelSearch$$' -benchmem -benchtime 10x . \
		| $(GO) run ./cmd/benchjson -compare BENCH_parallel.json -tolerance $(BENCH_TOLERANCE)
	$(GO) test -run '^$$' -bench '^BenchmarkPolicy$$' -benchmem -benchtime 10x . \
		| $(GO) run ./cmd/benchjson -compare BENCH_policy.json -tolerance $(BENCH_TOLERANCE)
	$(GO) test -run '^$$' -bench '^BenchmarkObs(Overhead|Live)$$' -benchmem -benchtime 10x . \
		| $(GO) run ./cmd/benchjson -compare BENCH_obs.json -tolerance $(BENCH_TOLERANCE)
	$(GO) test -run '^$$' -bench '^BenchmarkScale$$' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -compare BENCH_scale.json -tolerance $(SCALE_TOLERANCE)
	$(GO) test -run '^$$' -bench '^BenchmarkIncremental$$' -benchmem -benchtime 10x . \
		| $(GO) run ./cmd/benchjson -compare BENCH_incr.json -tolerance $(INCR_TOLERANCE)
	$(GO) test -run '^$$' -bench '^BenchmarkFrontier$$' -benchmem -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -compare BENCH_frontier.json -tolerance $(FRONTIER_TOLERANCE)
	$(GO) test -run '^$$' -bench '^BenchmarkServe$$' -benchmem -benchtime 20x ./internal/serve \
		| $(GO) run ./cmd/benchjson -compare BENCH_serve.json -tolerance $(SERVE_TOLERANCE)

# fuzz-smoke gives each native fuzz target FUZZTIME of coverage-guided
# input generation on top of its committed seed corpus: the loaders
# (dataset, hierarchy) must never panic on hostile bytes, the two
# implementations of Definition 2 must agree on every generated table,
# and the incremental session must survive hostile delta files with
# exact live-row accounting.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadTable$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzLoadHierarchy$$' -fuzztime $(FUZZTIME) ./internal/hierarchy
	$(GO) test -run '^$$' -fuzz '^FuzzPolicyEval$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzApplyDelta$$' -fuzztime $(FUZZTIME) ./internal/search

# cover measures statement coverage across the module and fails below
# COVERAGE_FLOOR. The test run writes to a temp profile that is always
# cleaned up; whatever profile was produced — even on a failing run —
# is published at COVERPROFILE, the explicit path the CI coverage job
# uploads from (if: always()), so a red run still ships its profile
# for inspection (`go tool cover -html=$(COVERPROFILE)`).
COVERPROFILE ?= coverage.out

cover:
	@tmp=$$(mktemp) || exit 1; \
	trap 'rm -f "$$tmp"' EXIT; \
	if ! $(GO) test -coverprofile="$$tmp" -coverpkg=./... ./...; then \
		[ -s "$$tmp" ] && cp "$$tmp" $(COVERPROFILE); \
		echo "cover: tests failed; partial profile at $(COVERPROFILE)"; exit 1; \
	fi; \
	cp "$$tmp" $(COVERPROFILE); \
	total=$$($(GO) tool cover -func=$(COVERPROFILE) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total statement coverage: $$total% (floor $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the floor $(COVERAGE_FLOOR)%"; exit 1; }
