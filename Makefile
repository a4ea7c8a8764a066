GO ?= go
FUZZTIME ?= 3s
COV_FLOOR ?= 70

.PHONY: all build vet loc test cover race fuzz perf bench verify clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# loc prints the ROADMAP aim-2 figure: lines of non-test Go outside bench/.
# The command lives in scripts/ci.sh, whose vet stage prints it too.
loc:
	@./scripts/ci.sh loc

test:
	$(GO) test ./...

# cover measures the core protocol packages (the STM engine and the RTS
# scheduler) and warns when the combined figure slips under the soft floor.
# scripts/ci.sh enforces the same floor (strict by default; set
# CI_COV_STRICT=0 there to downgrade a shortfall to a warning).
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=dstm/internal/stm,dstm/internal/core ./...
	@$(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); \
		printf "coverage (internal/stm + internal/core): %s%% (floor $(COV_FLOOR)%%)\n", $$3; \
		if ($$3+0 < $(COV_FLOOR)) print "WARNING: below the soft floor" > "/dev/stderr"}'

race:
	$(GO) test -race ./...

# fuzz runs every fuzz target for FUZZTIME each (seed corpora are under
# each package's testdata/fuzz and also replay during plain `make test`).
# The target list lives in scripts/ci.sh so make and CI stay in sync.
fuzz:
	CI_FUZZTIME=$(FUZZTIME) ./scripts/ci.sh fuzz

# perf runs the perf smokes: the commit-pipeline msgs/commit bound, the
# wire-codec zero-allocation gate, the open-loop rows of internal/testbed's
# drive test, the repo benchmark in smoke mode (`go run ./bench -quick`;
# output checks, trace oracle and "no message outside the per-kind table"
# gated), and a 3-process dstmnode cluster smoke.
perf:
	./scripts/ci.sh perf

# verify is the tier-1 gate; it delegates to the staged CI script so
# `make verify` and CI run exactly the same checks.
verify:
	CI_FUZZTIME=$(FUZZTIME) CI_COV_FLOOR=$(COV_FLOOR) ./scripts/ci.sh all

# bench runs the root package's key-skew and ablation benchmarks
# (bench_test.go). The paper's tables and figures are
# `go run ./cmd/rtsbench`; msgs/commit, latency tails and the open-loop
# numbers are the repo benchmark's: `bash bench/run.sh` (bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

clean:
	$(GO) clean ./...
	rm -f coverage.out
