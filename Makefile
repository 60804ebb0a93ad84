# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# steps. `make check` is the pre-push gate.

GO ?= go

.PHONY: build vet fmt test race tz lint lint-json lint-only lint-fixtures lint-perf fuzz-smoke bench-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: fails listing every Go file outside hidden directories
# that gofmt would change, the testdata/ fixture trees included.
fmt:
	@out=$$(find . -name '*.go' -not -path './.*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# -timeout 3m turns a hung test into a failure with every goroutine's
# stack instead of go's 10-minute default. The slowest package (the root
# one) takes 26 s on a 2-CPU host. The race step below keeps the default:
# on the same host, under -race, the root package takes 195 s (30 s of it
# TestExperimentsFileMatchesRun), internal/gen/sim 112 s and
# internal/analysis 72-81 s.
test:
	$(GO) test -timeout 3m ./...

# The guard on shard.Run callbacks: fn(i) may write only state index i
# owns, and the parallel-equivalence tests run both callbacks at several
# worker counts, so a shared write fails here as a data race. So do two
# goroutines drawing from one randx stream
# (TestGenerateParallelEquivalence) and a netproxy counter bumped
# atomically but read plainly (TestCountersConcurrentSnapshot). The same
# run ends the netproxy, replay, shard, stream, core and gen/sim test binaries
# with the goroutine-leak check (internal/leakcheck), which fails on any
# goroutine their code started that outlives the tests. No lint rule
# checks any of these.
race:
	$(GO) test -race ./...

# The calendar, the engine, the codecs and the golden subset under a
# local zone that is not UTC. Log records carry zone-free int64 instants,
# so the one way a zone can get back into the study is an instant
# converted through the time package in Local; this run catches it.
tz:
	TZ=Asia/Kolkata $(GO) test -count=1 ./internal/simtime ./internal/core ./internal/mnet/...
	TZ=Asia/Kolkata $(GO) test -count=1 -run 'TestGoldenDigests|TestSaveLoadRoundTrip' .

# wearlint walks the module and reports determinism/concurrency
# violations; see DESIGN.md "Static analysis". -json-out writes the
# byte-stable JSON artifact from the same load+typecheck, which is how
# CI gets both outputs from one run.
lint:
	$(GO) run ./cmd/wearlint -json-out wearlint.json ./...

# Same findings as machine-readable JSON on stdout; byte-stable across
# runs.
lint-json:
	$(GO) run ./cmd/wearlint -format json ./...

# Fast single-check iteration while tuning one analyzer:
#   make lint-only CHECK=ctxflow
#   make lint-only CHECK=detreach,lockheld
lint-only:
	$(GO) run ./cmd/wearlint -checks $(CHECK) ./...

# The analyzer golden-fixture suite alone: fixture rot fails here with a
# named target before the full test run.
lint-fixtures:
	$(GO) test ./internal/analysis -run 'TestGolden|TestLoadTree'

# One warm analyzer pass over the real module must stay under the
# benchmark's 30s wall-clock ceiling, so growing the check catalog can't
# silently make `make lint` crawl.
lint-perf:
	$(GO) test -run '^$$' -bench '^BenchmarkWearlintModule$$' -benchtime 1x .

# Run the native fuzz targets over their seed corpus only (no mutation):
# the mme/udr/proxylog codec fuzzers, the collection-path parsers (httplog
# FuzzReadHead, sni FuzzReadClientHello), the randx Split derivation
# (FuzzSplitLabel), and the study over truncated or corrupted log
# encodings (core FuzzRunStreamReaders).
fuzz-smoke:
	$(GO) test -run='^Fuzz' ./internal/mnet/... ./internal/randx ./internal/core

# Short runs of the repository benchmark (cmd/wearperf) on all four workloads.
# Each exit status is wearperf's correctness verdict, which includes the
# seed-1234 golden digests pinned in cmd/wearperf/golden.go. batch is the
# only workload whose passes re-run the generator and check its re-encoded
# logs against those digests; study-resident is the only one that drives
# the engine's per-worker queues of whole subscribers, whose passes must
# match a Workers=1 reference; study-files is the only one that streams stream.Readers over
# saved logs; collect is the only one that studies a live proxy log through
# stream.Tail.
bench-smoke:
	bash cmd/wearperf/run.sh --workload study-files --seconds 3 --trace 0
	bash cmd/wearperf/run.sh --workload study-resident --seconds 3 --trace 0
	bash cmd/wearperf/run.sh --workload batch --seconds 3 --trace 0
	bash cmd/wearperf/run.sh --workload collect --seconds 3 --trace 0

check: build vet fmt lint lint-fixtures race tz fuzz-smoke lint-perf bench-smoke
