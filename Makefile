# Development targets. `make ci` is what a gate should run: formatting,
# vet, the tier-1 suite (shuffled, so inter-test order dependencies
# can't hide), the race-detector pass (which includes the concurrency
# stress tests in internal/proxy and internal/checker), a short fuzz
# smoke of the SQL parser, and staticcheck when installed.

GO ?= go

# Version stamp for -version (internal/buildinfo); a plain `go build`
# without these falls back to Go's embedded VCS metadata.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
DATE    ?= $(shell date -u +%Y-%m-%dT%H:%M:%SZ 2>/dev/null || echo unknown)
LDFLAGS  = -ldflags "-X repro/internal/buildinfo.Version=$(VERSION) -X repro/internal/buildinfo.Commit=$(COMMIT) -X repro/internal/buildinfo.Date=$(DATE)"

.PHONY: build test vet race bench bench-json hotpath pipeline coldpath coldsmoke allocbudget openloop opensmoke ingress pgsmoke driversmoke shadowsmoke saturate satsmoke clusterbench clustersmoke clusterkill fmtcheck fuzz fuzzwal fuzzwire killrecover staticcheck ci

build:
	$(GO) build $(LDFLAGS) ./...

# Tier-1 suite (ROADMAP.md). -shuffle=on randomizes test execution
# order within each package.
test: build
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Hot-path and evaluation benchmarks.
bench:
	$(GO) test -bench 'CheckLongTrace|ParallelPrincipals|FactsLongTrace|ProxyRoundTrip|CheckMetrics' -benchmem ./...

# Machine-readable benchmark document; successive BENCH_*.json files
# checked in at the repo root form the performance trajectory.
# -against diffs the fresh document's pinned hotpath numbers against
# the previous one and fails on a >10% speedup regression.
bench-json:
	$(GO) run ./cmd/acbench -json BENCH_10.json -against BENCH_9.json

hotpath:
	$(GO) run ./cmd/acbench -hotpath

# Pipelining throughput table (protocol v2, window sweep).
pipeline:
	$(GO) run ./cmd/acbench -pipeline

# Cold-path policy-size sweep (linear scan vs compiled search).
coldpath:
	$(GO) run ./cmd/acbench -coldpath

# Fixed-iteration smoke of the cold-path benchmarks: catches a
# broken/pessimized cold path in CI without the noise sensitivity of
# time-based benching. BenchmarkPlanInstantiate fails outright when
# filling a statement plan allocates or the plan is not found again.
coldsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkColdPath|BenchmarkPlanInstantiate' -benchtime=100x ./internal/checker

# Allocation contracts: a fixed-iteration -benchmem smoke of the
# warm-tier benchmarks (front and template tiers must report 0
# allocs/op) and of the cold decide (neither filling the statement plan
# nor the compiled cover search allocates),
# then the budget tests that turn those numbers into hard gates — the
# checker's decide tiers, warm and cold, a windowed trace (an append
# into a full window, and deriving a window of statements that yield no
# fact, must be exactly 0 allocs/op), and the proxy's pooled encode
# path end-to-end (front-tier warm probe through wire encode must be
# exactly 0 allocs/op on the v2 surface).
allocbudget:
	$(GO) test -run '^$$' -bench 'BenchmarkWarmDecide|BenchmarkColdDecide' -benchmem -benchtime=100x ./internal/checker
	$(GO) test -run 'TestWarmDecideAllocBudget|TestColdDecideAllocBudget' -count=1 ./internal/checker
	$(GO) test -run '^$$' -bench 'BenchmarkTraceAppendWindowed|BenchmarkFactsWindowedScan' -benchmem -benchtime=100x ./internal/trace
	$(GO) test -run 'TestTraceAllocBudget' -count=1 ./internal/trace
	$(GO) test -run '^$$' -bench 'BenchmarkWarmEncode' -benchmem -benchtime=100x ./internal/proxy
	$(GO) test -run 'TestWarmEncodeAllocBudget' -count=1 ./internal/proxy

# Full open-loop sweep (10k/100k/1M sessions); see README Load Testing.
openloop:
	$(GO) run ./cmd/acbench -openloop

# Seconds-long open-loop smoke for CI: a real proxy under Poisson
# arrivals, gating that the harness runs end to end and the proxy
# absorbs the offered rate without errors.
opensmoke:
	$(GO) run ./cmd/acbench -openloop -openloop-sessions 200 -openloop-ops 2500 -openloop-qps 500

# Ingress-surface comparison: serial decide throughput for the same
# statement through the v2 client, the database/sql driver, and the
# Postgres wire listener, all on one enforcement core.
ingress:
	$(GO) run ./cmd/acbench -ingress

# Full saturation-knee search: stepped open-loop ramp per ingress,
# binary-searching the highest offered QPS whose p99 stays under the
# SLO (default 5ms), with per-step CPU attribution. -sat-ablate
# reverts the ceiling lifts for a before/after pair; see README
# "Finding the ceiling".
saturate:
	$(GO) run ./cmd/acbench -saturate

# Seconds-long bounded saturate smoke for CI: a real knee search on
# the v2 ingress with a tight wall-clock budget, gating that the ramp,
# the step classifier, and the in-process profiler run end to end.
satsmoke:
	$(GO) run ./cmd/acbench -saturate -sat-ingress v2 -sat-budget 5s -sat-step 1s

# Postgres wire-protocol conformance: raw-socket client exercising the
# simple and extended flows, mid-transaction blocks, cancellation, the
# prepared-statement front-cache pin, and the connection limit.
pgsmoke:
	$(GO) test -count=1 ./internal/pgwire

# database/sql driver suite plus the cross-ingress decision-parity
# test (every fixture's corpus through v2, driver, and pgwire).
driversmoke:
	$(GO) test -count=1 ./driver
	$(GO) test -count=1 -run 'TestIngressDecisionParity|TestServeBothListeners' .

# Policy-trial lifecycle smoke: stage a divergent candidate over the
# fixture corpus, assert the proxy reports exactly the expected diff
# set, promote, and assert convergence with direct enforcement.
shadowsmoke:
	$(GO) test -count=1 -run 'TestShadowSmoke' .

# Full cluster knee sweep: aggregate sustained QPS at the p99 SLO over
# 1/2/4/8 in-process cluster nodes with ring-mixed (local + forwarded)
# durable sessions; see DESIGN.md §16.
clusterbench:
	$(GO) run ./cmd/acbench -cluster

# Cluster-mode CI smoke: a 3-node in-process cluster serves a
# mixed-session corpus through one entry node (some sessions local,
# some forwarded), every decision byte-matched against a single-node
# control, then one owner is closed and a history-dependent session it
# owned must re-decide identically from its follower's shipped WAL.
clustersmoke:
	$(GO) test -count=1 -run 'TestClusterSmoke' .

# Cluster kill-and-takeover integration test: SIGKILL a session's owner
# mid-corpus (a real child process), and the follower must serve the
# whole history-dependent corpus byte-identically to an unkilled
# control.
clusterkill:
	$(GO) test -count=1 -run 'TestClusterKillHandover' -v .

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Ten-second fuzz smokes: the SQL parser (corpus in
# internal/sqlparser/testdata), then the cold cover search — generated
# policies, templates and facts on which the compiled search must decide
# byte-identically to the cq.FindHoms reference scan — then statement
# plans: generated (statement, arguments, session) triples on which
# filling a plan must give the templates and the decision that binding
# and translating the statement gives — then fact extractors: generated
# (statement, arguments, result rows) triples whose trace facts must be
# the reference derivation's, key for key and in order — then key-index
# scans: generated tables, writes and single-table reads on which the
# served read, the generic evaluator and a keyless full scan must render
# byte-identically.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/sqlparser
	$(GO) test -run '^$$' -fuzz=FuzzCoverParity -fuzztime=10s ./internal/checker
	$(GO) test -run '^$$' -fuzz=FuzzPlanParity -fuzztime=10s ./internal/checker
	$(GO) test -run '^$$' -fuzz=FuzzFactParity -fuzztime=10s ./internal/checker
	$(GO) test -run '^$$' -fuzz=FuzzScanParity -fuzztime=10s ./internal/engine

# Ten-second fuzz smoke of the WAL record decoder (torn writes, bit
# flips, truncation must never panic recovery).
fuzzwal:
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=10s ./internal/durable

# Ten-second fuzz smoke of the proxy wire codec: the hand-rolled fast
# decoder must agree with the normalized reflective fallback on every
# line it accepts.
fuzzwire:
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=10s ./internal/proxy

# Kill-and-recover integration test: run a WAL-backed proxy, SIGKILL
# it mid-workload, restart, and assert decision parity with an
# uncrashed control run.
killrecover:
	$(GO) test -run 'TestKillRecover' -v ./internal/durable

# staticcheck is optional tooling: run it when installed, succeed
# quietly when not, so CI works on minimal containers.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; fi

ci: fmtcheck vet test race coldsmoke allocbudget opensmoke satsmoke pgsmoke driversmoke shadowsmoke clustersmoke clusterkill fuzz fuzzwal fuzzwire killrecover staticcheck
