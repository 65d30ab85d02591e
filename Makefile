# make verify mirrors the CI pipeline (lint gate, tier-1 tests, race,
# fuzz smoke, coverage gate, bench smoke + regression gate) so a green
# local run means a green CI run. Individual steps are also exposed as
# targets. staticcheck/govulncheck run in CI with pinned versions; they
# are invoked here only when already installed, so verify works offline.

GO ?= go
FUZZTIME ?= 10s

.PHONY: verify fmt vet lint-tools build test examples bench-module race fuzz cover bench-smoke bench bench-update clean

verify: fmt vet lint-tools build test examples bench-module race fuzz cover bench-smoke
	@echo "verify: all checks passed"

# Mirror the CI staticcheck/govulncheck steps when the pinned tools are
# on PATH; skip quietly otherwise (CI always runs them).
lint-tools:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint-tools: staticcheck not installed, skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint-tools: govulncheck not installed, skipping (CI runs it)"; fi

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Each example exits non-zero when it fails; examples/transform, for one,
# compares the transformed loop with its sequential run. No test runs them.
examples:
	@for d in ./examples/*/; do $(GO) run "$$d" >/dev/null || exit 1; done

# bench/ is its own module, so ./... above never descends into it; it
# compiles against server/client/router's exported surface.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

race:
	$(GO) test -race ./...

# The CI fuzz smoke: coverage-guided exploration beyond the checked-in
# seeds, one target at a time (go test allows one -fuzz per invocation).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzAdaptiveSolve$$' -fuzztime $(FUZZTIME) ./internal/trisolve
	$(GO) test -run '^$$' -fuzz '^FuzzFusedSolve$$' -fuzztime $(FUZZTIME) ./internal/trisolve
	$(GO) test -run '^$$' -fuzz '^FuzzSelect$$' -fuzztime $(FUZZTIME) ./internal/planner
	$(GO) test -run '^$$' -fuzz '^FuzzRepair$$' -fuzztime $(FUZZTIME) ./internal/delta
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzJSONDecode$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzPackedJSON$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzRouteKey$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/transform
	$(GO) test -run '^$$' -fuzz '^FuzzTransform$$' -fuzztime $(FUZZTIME) ./internal/transform

# The CI coverage gate: total statement coverage vs the checked-in floor.
cover:
	$(GO) run ./cmd/ci coverage

# One repetition of the CI bench job: fast local check that the gate and
# artifact plumbing still work.
bench-smoke:
	$(GO) run ./cmd/ci bench -count 1 -out BENCH_ci.json

# The full CI bench job (5 repetitions, benchstat-comparable artifact).
bench:
	$(GO) run ./cmd/ci bench -count 5 -out BENCH_ci.json

# Rewrite ci/bench_baseline.json from this machine's run.
bench-update:
	$(GO) run ./cmd/ci bench -count 5 -out BENCH_ci.json -update

clean:
	rm -f BENCH_ci.json coverage.out
