# Tier-1 gate for the psk module. `make check` is what CI and reviewers
# run before merging: gofmt, vet, build, the full test suite under the race
# detector (the parallel search engine must stay deterministic), a
# single-iteration pass over every benchmark so the evaluation harness
# cannot silently rot and its assertions (BenchmarkIncremental's
# SpeedupPin, BenchmarkFrontier's AllocsPin) still gate, and vet + test
# of the bench/ module (its own Go module, so the root `./...` patterns
# never compile it). Performance regressions are judged by the bench/
# module instead: `bash bench/run.sh -compare base.json head.json` on a
# parent run and a change run from one host, against the bounds in
# BENCHMARK.json.

GO ?= go

# Per-target budget of the fuzz smoke run.
FUZZTIME ?= 30s

# Statement-coverage ratchet for `make cover`: set just below the
# measured total so coverage can only move up. Raise it when coverage
# genuinely improves; never lower it to admit a regression.
COVERAGE_FLOOR ?= 85.0

.PHONY: check fmt vet build test race bench bench-module fuzz-smoke cover serve-smoke loc

check: fmt vet build race bench bench-module

# fmt fails when any Go file in the module tree, bench/ included, is not
# gofmt-clean; `gofmt -l .` names the offenders.
fmt:
	test -z "$$(gofmt -l .)"

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
# paying for the 1M/10M tiers (drop -short to run them).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# bench-module compiles, vets and tests the end-to-end benchmark module
# under bench/, which imports this module's packages: an API change
# here that would break bench/run.sh fails the gate instead.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# loc prints the Go line counts of the root module, per package
# directory and in total: non-test lines, then _test.go lines. bench/
# (its own module) and the .bench_build/ cache are left out. A change
# that claims to shrink the code quotes its before and after.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]+$$/, "", d); t = ($$2 ~ /_test\.go$$/); \
		n[d, t] += $$1; all[t] += $$1; dirs[d] = 1 } \
	END { printf "%-28s %9s %9s\n", "package", "non-test", "test"; \
		for (d in dirs) printf "%-28s %9d %9d\n", d, n[d, 0], n[d, 1] | "sort"; close("sort"); \
		printf "%-28s %9d %9d\n", "total", all[0], all[1] }'

# serve-smoke is the end-to-end service gate the CI serve job runs:
# the real pskserve entry point on an ephemeral port, driven over real
# HTTP through verdict exit codes, single-flight dedup, queued-job
# cancellation, per-job /metrics byte-identity with the embedded
# report, and counter equality with a pskanon -metrics-json run of the
# same inputs.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke|TestExitCodeAgreement' -v ./internal/cli

# fuzz-smoke gives each native fuzz target FUZZTIME of coverage-guided
# input generation on top of its committed seed corpus: the loaders
# (dataset, hierarchy) must never panic on hostile bytes, the table's
# hand-written CSV reader, through a sized reader, the same reader with
# its length hidden, a one-byte-per-read reader and a sized reader
# forced into three concurrently parsed record ranges, and its writer,
# on the calling goroutine and on three workers formatting one-row
# blocks, must agree with the encoding/csv reference they replaced (same
# accepted inputs, same tables, same written bytes) and any CSV the
# reader accepts must write and read
# back as an equal table, the level maps the generalization cache derives from
# per-value hierarchy walks must equal the ones built from materialized
# columns on every row under every hierarchy kind, the base statistics
# scan and the roll-up merge (Rollup, Project, the shard merge) must
# equal row-at-a-time grouping of the table, or of the coarsened or
# projected table, on every key and histogram path,
# Table.Gather's run copies must give the same tables, codes and
# bit-packed words as gathering one row at a time, every search
# strategy's release must equal the row-scan oracle's, byte for byte,
# on generated tables under every hierarchy kind and under the built-in
# or a composite policy, an incremental session's first publish must
# equal the batch run and Theorems 1-2 must hold at every satisfying
# node, the two
# implementations of Definition 2 must agree on every generated table,
# the incremental session must survive hostile delta files with exact
# live-row accounting and, after every batch it absorbs whole or in
# part, confidential totals and Condition 1–2 bounds equal to a fresh
# scan of the live rows, and the service must answer any job body with a
# prepared job or an input error (400), never a panic.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadTable$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzLoadHierarchy$$' -fuzztime $(FUZZTIME) ./internal/hierarchy
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^$$' -fuzz '^FuzzLevelMap$$' -fuzztime $(FUZZTIME) ./internal/generalize
	$(GO) test -run '^$$' -fuzz '^FuzzRollup$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^$$' -fuzz '^FuzzGather$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^$$' -fuzz '^FuzzPolicyEval$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzApplyDelta$$' -fuzztime $(FUZZTIME) ./internal/search
	$(GO) test -run '^$$' -fuzz '^FuzzStrategiesMatchOracle$$' -fuzztime $(FUZZTIME) ./internal/search
	$(GO) test -run '^$$' -fuzz '^FuzzSubmit$$' -fuzztime $(FUZZTIME) ./internal/serve

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
