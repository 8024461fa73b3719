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

.PHONY: build test vet race bench benchsmoke coldsmoke timingguard allocbudget pgsmoke driversmoke shadowsmoke metricslint doclint fmtcheck fuzz fuzzwal fuzzwire killrecover pipesmoke walsmoke enginesmoke staticcheck loc ci

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

# Seconds-long smoke of the repository's benchmark (bench/README.md):
# every workload at a tenth of its duration, gating its correctness and
# regime checks.
benchsmoke:
	$(GO) run ./bench -smoke

# Fixed-iteration smoke of the cold-path benchmarks: catches a
# broken/pessimized cold path in CI without the noise sensitivity of
# time-based benching. BenchmarkPlanInstantiate fails outright when
# filling a statement plan allocates or the plan is not found again.
coldsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkColdPath|BenchmarkPlanInstantiate' -benchtime=100x ./internal/checker

# Wall-clock gates, kept out of plain `go test` because a neighbouring
# process on a shared box can decide their verdict. Each runs once and
# fails outright; each has a deterministic twin in the tier-1 suite:
#   - the instrumented checker, warm and cold, within 5% of the
#     no-op-metrics build (the median of interleaved paired trials;
#     a median over budget by more than the trials' spread fails, one
#     within the spread runs again, up to four rounds); twin
#     TestMetricsOverheadDeterministic (internal/checker);
#   - E2's template and history-free hits faster than its cold decision
#     (the median hit/cold ratio of nine E2 runs, each a median of five
#     passes interleaved across configurations, read against the runs'
#     spread the same way); twin TestE2HitsRunNoCoverStage
#     (internal/experiments).
# What `go test` still asserts on elapsed time, each a liveness bound
# ("returns at all"), set far from the time a correct tree takes:
#   - TestFindCounterexample{Cancel,Deadline}MidSearch (internal/diagnose),
#     2 s for a search that runs many seconds uncanceled; twin
#     TestFindCounterexampleCancelStepBound, which counts cq.EvaluateCtx's
#     candidate tuples (cq.EvalSteps) around a cancel landed at a chosen
#     ctx check;
#   - TestCancelAbortsSlowQuery (internal/proxy), 2 s, and
#     TestContextCancellation (driver), 5 s, for joins of millions of
#     rows; both then check the connection still serves;
#   - TestPipelinedOutOfOrderAcrossLanes (internal/proxy): a point read
#     answers before a 512 000-row cross join on another lane;
#   - TestStreamedReadCanceled (internal/pgwire) times its cancels off
#     one measured read, and fails only if 40 tries cancel fewer than 3;
#   - the 2 s to 10 s waits for a drop, a drain or a freed slot
#     (internal/proxy and internal/pgwire hardening tests,
#     internal/durable, the root Serve tests).
timingguard:
	$(GO) test -run '^$$' -bench 'BenchmarkMetricsOverheadGuard|BenchmarkColdPathMetricsOverheadGuard' -benchtime=1x ./internal/checker
	$(GO) test -run '^$$' -bench 'BenchmarkE2HitsBeatColdGuard' -benchtime=1x ./internal/experiments

# Allocation contracts: a fixed-iteration -benchmem smoke of the
# warm-tier benchmarks (the borrowed history-free and the template
# tiers report 0 allocs/op) and of the cold decide (neither filling the statement plan
# nor the compiled cover search allocates),
# then the budget tests that turn those numbers into hard gates — the
# checker's decide tiers, warm and cold, a repeat decide of a statement
# whose plan is refused (exactly 0 allocs/op), a windowed trace (an append
# into a full window, and deriving a window of statements that yield no
# fact, must be exactly 0 allocs/op), the proxy's pooled encode path
# end-to-end (history-free warm probe through wire encode of typed rows
# must be exactly 0 allocs/op on the v2 surface), the proxy's trace of
# range reads (32 reads of 500 rows keep no row, only their counts, in
# process and over pgwire), the engine's bound range read (the same count
# for 50 rows as for 500, at most 4, and through a secondary index for 8
# rows as for 128; BenchmarkRangeScan fails a point or range read past 4
# and a full scan that keeps no row past 2), a pgwire DataRow framed from
# typed values (exactly 0; BenchmarkDataRow fails 212 rows of pg_scan's
# (INT, TEXT) that allocate), and a pgwire range-read exchange, whose rows
# stream from the scan (the same count and bytes for 50 rows as for 500,
# and exactly one write for a read of 1, 50, 200 or 500 rows).
allocbudget:
	$(GO) test -run '^$$' -bench 'BenchmarkWarmDecide|BenchmarkColdDecide' -benchmem -benchtime=100x ./internal/checker
	$(GO) test -run 'TestWarmDecideAllocBudget|TestColdDecideAllocBudget|TestUnplannedStatementsBlock' -count=1 ./internal/checker
	$(GO) test -run '^$$' -bench 'BenchmarkTraceAppendWindowed|BenchmarkFactsWindowedScan' -benchmem -benchtime=100x ./internal/trace
	$(GO) test -run 'TestTraceAllocBudget' -count=1 ./internal/trace
	$(GO) test -run '^$$' -bench 'BenchmarkWarmEncode' -benchmem -benchtime=100x ./internal/proxy
	$(GO) test -run 'TestWarmEncodeAllocBudget|TestRangeReadKeepsNoRows' -count=1 ./internal/proxy
	$(GO) test -run '^$$' -bench 'BenchmarkRangeScan' -benchmem -benchtime=100x ./internal/engine
	$(GO) test -run 'TestScanAllocsConstant|TestInsertRowAllocs' -count=1 ./internal/engine
	$(GO) test -run '^$$' -bench 'BenchmarkDataRow' -benchmem -benchtime=100x ./internal/pgwire
	$(GO) test -run 'TestDataRowAllocs|TestPgExchangeAllocsConstant|TestExchangeIsOneWrite' -count=1 ./internal/pgwire

# Postgres wire-protocol conformance: raw-socket client exercising the
# simple and extended flows, mid-transaction blocks, cancellation, the
# prepared-statement history-free hit pin, the connection limit,
# malformed counts, and the edges of streamed reads.
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

# Instrument inventory check: bring up every serving surface (v2, pg,
# WAL, shadow) over one registry, run one request, and compare
# the registered instrument names with DESIGN.md §9.2 in both
# directions.
metricslint:
	$(GO) test -count=1 -run 'TestMetricNamesDocumented' .

# Document identifier check: every back-quoted Go-style identifier in
# DESIGN.md and README.md must name a declaration in the tree (or the
# standard library), or sit on a line that marks it as gone.
doclint:
	$(GO) test -count=1 -run 'TestDocIdentifiersResolve' .

# Non-test Go lines per package directory, then the total and the
# total outside bench/: the size figures a simplicity change reports.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } END { for (d in n) print n[d], d }' | \
		sort -k2 | \
		awk '{ printf "%7d %s\n", $$1, $$2; t += $$1; if ($$2 !~ /^\.\/bench(\/|$$)/) o += $$1 } \
			END { printf "%7d total\n%7d total outside bench/\n", t, o }'

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Ten-second fuzz smokes: the SQL parser (corpus in
# internal/sqlparser/testdata), then the cold cover search — generated
# policies, templates and facts on which the compiled search must decide
# byte-identically to refDecide, the test-only reference — then statement
# plans: generated (statement, arguments, session) triples on which
# filling a plan must give the templates and the decision that binding
# and translating the statement gives (the test-only oracle), and on
# which a statement with a bare parameter as a condition, which has no
# plan, must block — then fact extractors: generated (statement,
# arguments, result rows) triples whose trace facts must be the
# reference derivation's, key for key and in order (none, for a
# statement with no plan) — then index
# scans: generated tables, writes and single-table reads on which the
# served read, the generic evaluator and a keyless full scan must render
# byte-identically, and each write, served and through the reference
# row finder, must leave the same tables, count and error.
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

# Ten-second fuzz smokes of the wire codecs: the hand-rolled fast
# decoder must agree with the normalized reflective fallback on every
# line it accepts; the pooled response encode of typed rows must equal
# encoding/json through Value.MarshalJSON and decode back to the same
# Values; every pgwire DataRow cell must equal the string-building
# reference rendering; a fuzzed pgwire frontend byte stream, startup
# included, must neither panic the connection nor keep it from ending
# with its input, must get only whole backend messages back, and must
# leave the connection at most rowsKeep of output capacity.
fuzzwire:
	$(GO) test -run '^$$' -fuzz=FuzzWireDecode -fuzztime=10s ./internal/proxy
	$(GO) test -run '^$$' -fuzz=FuzzEncodeResponsePooled -fuzztime=10s ./internal/proxy
	$(GO) test -run '^$$' -fuzz=FuzzValueTextParity -fuzztime=10s ./internal/pgwire
	$(GO) test -run '^$$' -fuzz=FuzzPgFrontend -fuzztime=10s ./internal/pgwire

# Kill-and-recover integration test: run a WAL-backed proxy, SIGKILL
# it mid-workload, restart, and assert decision parity with an
# uncrashed control run.
killrecover:
	$(GO) test -run 'TestKillRecover' -v ./internal/durable

# Ordering smoke of the v2 wire under the race detector, three times
# over: inline answers never overtake a lane runner's answers, a client
# that stops reading is dropped, and Close drains. The overtake test
# catches a broken ordering rule only some of the time, hence -count.
pipesmoke:
	$(GO) test -race -count=3 -run 'TestInlineNeverOvertakesLaneAnswers|TestStalledReaderDropped|TestGracefulCloseDrains' ./internal/proxy

# Group-commit smoke of the WAL under the race detector, three times
# over: concurrent and shared-session appends recover in order, the
# first appender in line commits for those queued behind it, appends
# racing Close return, Close waits out a background checkpoint, and a
# failed write or fsync fails the log closed.
walsmoke:
	$(GO) test -race -count=3 -run 'TestGroupCommitConcurrentAppends|TestFirstInLineCommitsForAll|TestSharedSessionConcurrentAppendsRecover|TestAppendCloseRaceDoesNotHang|TestCloseWaitsForBackgroundCheckpoint|TestFailedWriteFailsClosed|TestFailedSyncFailsClosed' ./internal/durable

# Concurrency smoke of the engine under the race detector, three times
# over: readers racing to build an unbuilt secondary index (one of them
# cloning) while a writer inserts, updates and deletes, and parallel
# readers beside a writer.
enginesmoke:
	$(GO) test -race -count=3 -run 'TestSecondaryIndexConcurrentBuild|TestConcurrentReadsAndWrites' ./internal/engine

# staticcheck is optional tooling: run it when installed, succeed
# quietly when not, so CI works on minimal containers.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; fi

ci: fmtcheck vet test race coldsmoke timingguard allocbudget benchsmoke pgsmoke driversmoke shadowsmoke metricslint doclint fuzz fuzzwal fuzzwire killrecover pipesmoke walsmoke enginesmoke staticcheck
