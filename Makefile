# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# steps. `make check` is the pre-push gate.

GO ?= go

.PHONY: build vet test race lint lint-json lint-only lint-fixtures lint-suppressions fuzz-smoke bench-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

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
#   make lint-only CHECK=randsplit
#   make lint-only CHECK=membound,ctxflow
lint-only:
	$(GO) run ./cmd/wearlint -checks $(CHECK) ./...

# The analyzer golden-fixture suite alone: fixture rot fails here with a
# named target before the full test run.
lint-fixtures:
	$(GO) test ./internal/analysis -run 'TestGolden|TestLoadTree'

# Regenerate the committed //wearlint:ignore inventory. CI (and
# TestSuppressionInventory) diff a fresh scan against the committed file,
# so every new suppression — or silently edited justification — lands as
# a reviewed change to LINT_SUPPRESSIONS.json, run this after adding one.
lint-suppressions:
	$(GO) run ./cmd/wearlint -suppressions > LINT_SUPPRESSIONS.json

# Run the native fuzz targets over their seed corpus only (no mutation):
# the mme/proxylog codec fuzzers, the collection-path parsers (httplog
# FuzzReadHead, sni FuzzReadClientHello), the wearlint suppression
# grammar (FuzzIgnoreDirective, FuzzSuppressionInventory), the randx
# Split derivation (FuzzSplitLabel), and the study over truncated or
# corrupted log encodings (core FuzzRunStreamReaders).
fuzz-smoke:
	$(GO) test -run='^Fuzz' ./internal/mnet/... ./internal/analysis ./internal/randx ./internal/core

# Short runs of the repository benchmark (cmd/wearperf) on three workloads.
# Each exit status is wearperf's correctness verdict, which includes the
# seed-1234 golden digests pinned in cmd/wearperf/golden.go. batch is the
# only workload whose passes re-run the generator and check its re-encoded
# logs against those digests; study-resident is the only one that drives
# the engine's user-major fan-out, whose passes must match a Workers=1
# reference.
bench-smoke:
	bash cmd/wearperf/run.sh --workload study-files --seconds 3 --trace 0
	bash cmd/wearperf/run.sh --workload study-resident --seconds 3 --trace 0
	bash cmd/wearperf/run.sh --workload batch --seconds 3 --trace 0

check: build vet lint lint-fixtures race fuzz-smoke
