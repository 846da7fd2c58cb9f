# Single source of the verify recipe: CI (.github/workflows/ci.yml) and
# humans run the same targets.

GO ?= go

# The root-package micro benchmark set (micro_bench_test.go +
# serve_bench_test.go); bench-json archives exactly these so the perf
# trajectory is comparable PR to PR.
MICROBENCH = ^Benchmark(InferToExit1|InferToExit3|InferToExit3Int8|InferToExit3Int8Fast|InferBatched1|InferBatched4|InferBatched16|InferBatched1Int8Fast|InferBatched4Int8Fast|InferBatched16Int8Fast|ServerInferThroughput|LegacyInferToExit3|IncrementalResume|LegacyIncrementalResume|PlanCompile|PlanCompileInt8Fast|TrainStep|ApplyCompressionPolicy|QuantizeWeights8bit|QTableUpdate|SolarTraceGeneration|SynthCIFARSample|EngineRunToCompletion|FullSimulationEpisode|FleetStep|FleetShard)$$
BENCH_JSON ?= BENCH_pr10.json

# The hot-path subset bench-smoke gates in CI: a kernel regression that
# breaks inference or the episode loop fails the build.
SMOKEBENCH = ^Benchmark(InferToExit1|InferToExit3|InferToExit3Int8|InferToExit3Int8Fast|IncrementalResume|FullSimulationEpisode)$$

.PHONY: all build test test-cpu race fuzz-smoke bench bench-smoke bench-json artifact-check infer-smoke crash-smoke fleet-smoke chaos-soak fmt fmt-check lint ehlint shellcheck staticcheck clean

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full test suite
test:
	$(GO) test ./...

## test-cpu: run the packages that fan work out across goroutines at
## one and four cores, so a test that only passes on a 1-core box (or
## only on a many-core one) fails here. Both passes share one process,
## so this also catches a test that cannot run twice.
CPU_PKGS = ./internal/plan ./internal/batch ./internal/fleet ./internal/exper ./internal/serve
test-cpu:
	$(GO) test -cpu=1,4 $(CPU_PKGS)

## race: run the full test suite under the race detector
race:
	$(GO) test -race ./...

## fuzz-smoke: run every fuzz target for 10 s each. go test -fuzz takes
## one target per invocation, so the loop runs them in turn.
FUZZ_TARGETS = ./internal/serve:FuzzResumeJournal ./internal/serve:FuzzInferRequest \
	./internal/plan:FuzzRequantU8 ./internal/artifact:FuzzDecode ./internal/fleet:FuzzFleetSpec
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$fn ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime 10s $$pkg; \
	done

## bench: one-iteration benchmark smoke pass (compiles and runs every benchmark once)
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

## bench-smoke: run the inference/episode hot-path benchmarks exactly once
bench-smoke:
	$(GO) test -run='^$$' -bench='$(SMOKEBENCH)' -benchtime=1x -benchmem .

## bench-json: run the micro benchmarks (with allocation metrics) and
## archive them as $(BENCH_JSON) (two steps, no pipe: a failing benchmark
## run must fail the target, not hand benchjson an empty stream)
bench-json:
	$(GO) test -run='^$$' -bench='$(MICROBENCH)' -benchtime=100ms -benchmem . > $(BENCH_JSON).bench.out
	$(GO) run ./cmd/benchjson < $(BENCH_JSON).bench.out > $(BENCH_JSON)
	@rm -f $(BENCH_JSON).bench.out
	@echo "wrote $(BENCH_JSON)"

## artifact-check: decode the checked-in golden deployment artifact
## (wire-format gate: drift without a deliberate version bump fails) and
## build+vet every example program, which would otherwise only be
## covered while ./... expansion happens to include them
artifact-check:
	$(GO) test -run 'TestGoldenArtifact' .
	$(GO) build ./examples/...
	$(GO) vet ./examples/...

## infer-smoke: boot the real ehserved daemon, upload the golden
## artifact, POST one /v1/infer request, and assert the decoded
## prediction — the end-to-end gate on the online serving path
infer-smoke:
	./scripts/infer_smoke.sh

## crash-smoke: SIGKILL the real ehserved daemon mid-grid, restart it on
## the same -data-dir, and assert the resumed job's final result
## document is byte-identical to an uninterrupted run's — the
## crash-recovery gate
crash-smoke:
	./scripts/crash_smoke.sh grid

## fleet-smoke: the same crash-recovery gate for a fleet job
fleet-smoke:
	./scripts/crash_smoke.sh fleet

## chaos-soak: hammer a server armed with a seeded fault-injection spec
## for 30 wall-clock seconds under the race detector; every response
## must stay within the error taxonomy and the daemon must stay healthy
chaos-soak:
	CHAOS_SOAK_SECONDS=30 $(GO) test -race -run TestChaosSoak -v ./internal/serve

## fmt: rewrite sources with gofmt
fmt:
	gofmt -w .

## fmt-check: fail if any file is not gofmt-clean
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## lint: static analysis — stock go vet, the repo's own ehlint analyzer
## suite (run through go vet's -vettool protocol so cmd/go caches
## results per package), and shellcheck over scripts/ when installed
lint: ehlint shellcheck
	$(GO) vet ./...

## ehlint: the five repo-invariant analyzers (internal/lint) over the
## whole tree, driven by go vet so analysis is unit-at-a-time and cached
ehlint:
	$(GO) build -o bin/ehlint ./cmd/ehlint
	$(GO) vet -vettool=$(abspath bin/ehlint) ./...

## shellcheck: lint shell scripts; skipped with a notice when the tool
## is not installed (CI has it, minimal dev containers may not)
shellcheck:
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck scripts/*.sh; \
	else \
		echo "shellcheck not installed; skipping script lint"; \
	fi

## staticcheck: deeper static analysis (CI installs honnef.co staticcheck;
## locally: go install honnef.co/go/tools/cmd/staticcheck@latest)
staticcheck:
	staticcheck ./...

## ci: everything the CI workflow gates on
ci: fmt-check lint build test-cpu race fuzz-smoke bench artifact-check infer-smoke crash-smoke fleet-smoke

clean:
	$(GO) clean ./...
