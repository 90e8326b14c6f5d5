# edgescope build/test/bench targets. `make ci` is the tier-1 gate.

GO ?= go

# The gated wide-query benchmarks run at a fixed iteration count, so their
# B/op (pooled scratch allocated once per run, spread over the iterations)
# does not depend on how many iterations a box fits in a time budget.
WIDE_BENCH = Wide$$
WIDE_BENCHTIME = 20x

.PHONY: build vet test race fuzz chaos bench bench-json bench-compare bench-multicore ci loc repro repro-sha profile

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the packages that schedule work across goroutines.
race:
	$(GO) test -race ./internal/core/ ./internal/crowd/ ./internal/par/ ./internal/predict/ ./internal/telemetry/ ./internal/telemetry/cluster/ ./internal/telemetry/serve/ ./cmd/telemetryd/

# Brief fuzz passes over the wire decoder, the durability surfaces (WAL
# segment replay, snapshot decode, sketch, sketch-page and key-inventory
# codecs), the shard index against a flat-map scan, and the kernels against
# their references: the sketch flush against its scalar form, the envelope
# codec and the /keys JSON writer against encoding/json, the AVX2 exp and
# LSTM kernels against their portable Go.
fuzz:
	$(GO) test -run xxx -fuzz FuzzEnvelopeDecode -fuzztime 5s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzWALSegmentReplay -fuzztime 3s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzSnapshotDecode -fuzztime 3s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzSketchPageDecode -fuzztime 3s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzKeyInventoryDecode -fuzztime 3s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzShardIndexMatchesScan -fuzztime 3s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzSketchUnmarshalBinary -fuzztime 3s ./internal/stats/
	$(GO) test -run xxx -fuzz FuzzSketchFlushMatchesReference -fuzztime 5s ./internal/stats/
	$(GO) test -run xxx -fuzz FuzzEnvelopeCodecMatchesReference -fuzztime 5s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzKeysJSONMatchesEncoder -fuzztime 5s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzExpBulkMatchesPortable -fuzztime 5s ./internal/mathx/
	$(GO) test -run xxx -fuzz FuzzLSTMKernelsMatchPortable -fuzztime 5s ./internal/mathx/

# The full chaos/durability test surface: fault-injected equivalence over
# every built-in scenario, stall/short-write survival, kill-and-recover.
chaos:
	$(GO) test -count=1 -run 'TestChaos|TestKillAndRecover|TestRecover|TestTornTail|TestCorrupt' -v ./internal/telemetry/

# Full benchmark sweep. 100ms per benchmark keeps iteration counts
# meaningful on the micro-benchmarks while the heavyweights run once.
bench:
	$(GO) test -bench . -skip '$(WIDE_BENCH)' -benchmem -benchtime 100ms -run xxx .
	$(GO) test -bench '$(WIDE_BENCH)' -benchmem -benchtime $(WIDE_BENCHTIME) -run xxx .

# Record the perf trajectory for future PRs (the scenario tag comes from the
# `scenario:` context line bench_test.go prints). The RunAll pair is
# re-benched at an iteration-count -benchtime so its ns/op is a ≥2-iteration
# statistic; benchdump keeps the higher-iteration entry per name.
bench-json:
	{ $(GO) test -bench . -skip '$(WIDE_BENCH)' -benchmem -benchtime 100ms -run xxx . && \
	  $(GO) test -bench '$(WIDE_BENCH)' -benchmem -benchtime $(WIDE_BENCHTIME) -run xxx . && \
	  $(GO) test -bench '^BenchmarkRunAll(Serial|Parallel)$$' -benchmem -benchtime 2x -run xxx . ; } \
	  | $(GO) run ./cmd/benchdump -out BENCH.json

# Delta table of the working tree's benchmarks vs the committed BENCH.json
# (HEAD's copy, so repeated runs never gate against a drifted baseline),
# with the same allocation-budget gate ci.sh enforces (the gated names live
# in scripts/bench_gate — one source for CI and local runs). The temp
# snapshots are removed whether the gate passes or fails.
bench-compare:
	{ $(GO) test -bench . -skip '$(WIDE_BENCH)' -benchmem -benchtime 100ms -run xxx . && \
	  $(GO) test -bench '$(WIDE_BENCH)' -benchmem -benchtime $(WIDE_BENCHTIME) -run xxx . && \
	  $(GO) test -bench '^BenchmarkRunAll(Serial|Parallel)$$' -benchmem -benchtime 2x -run xxx . ; } \
	  | $(GO) run ./cmd/benchdump -out BENCH.new.json
	@git show HEAD:BENCH.json > BENCH.base.json 2>/dev/null || cp BENCH.json BENCH.base.json; \
	$(GO) run ./cmd/benchdump -compare \
		-gate "$$(cat scripts/bench_gate)" -tolerance 0.15 \
		BENCH.base.json BENCH.new.json; st=$$?; rm -f BENCH.new.json BENCH.base.json; exit $$st

# Multi-core scaling pin (ROADMAP item 6): the RunAll pair at GOMAXPROCS>=4
# (the host's core count when larger), recorded to BENCH_MULTICORE.json, then
# the parallel/serial ratio check. benchdump gates the ratio only when the
# snapshot's num_cpu is >=4 — on a 1-CPU box GOMAXPROCS=4 just time-slices,
# so the committed reference numbers from such hosts are advisory, and the
# check prints the verdict without failing the build.
bench-multicore:
	@procs=$$(nproc 2>/dev/null || echo 4); [ "$$procs" -ge 4 ] || procs=4; \
	echo "bench-multicore: GOMAXPROCS=$$procs"; \
	GOMAXPROCS=$$procs $(GO) test -bench '^BenchmarkRunAll(Serial|Parallel)$$' -benchmem -benchtime 2x -run xxx . \
	  | $(GO) run ./cmd/benchdump -out BENCH_MULTICORE.json
	$(GO) run ./cmd/benchdump -ratio-check BENCH_MULTICORE.json

ci:
	./scripts/ci.sh

# Non-test Go lines per package (ROADMAP item 9's table, reproducible).
loc:
	./scripts/loc.sh

# Reproduce every paper artifact in parallel.
repro:
	$(GO) run ./cmd/reproall -parallel 0

# Byte-identity across parallelism: build reproall once (trimmed, no VCS
# stamp), then print the SHA-256 of its `-ext -quiet-times` stdout for every
# built-in scenario at -parallel 1 and 4. Exits non-zero if a run fails or
# the two parallelism levels disagree on any scenario.
REPRO_SCENARIOS = small paper dense-metro rural-sparse flash-crowd stress
repro-sha:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -trimpath -buildvcs=false -o "$$tmp/reproall" ./cmd/reproall || exit 1; \
	st=0; for s in $(REPRO_SCENARIOS); do \
	  for p in 1 4; do \
	    "$$tmp/reproall" -scenario $$s -ext -quiet-times -parallel $$p > "$$tmp/out-$$p" || exit 1; \
	  done; \
	  a=$$(sha256sum < "$$tmp/out-1" | cut -c1-64); b=$$(sha256sum < "$$tmp/out-4" | cut -c1-64); \
	  if [ "$$a" = "$$b" ]; then echo "$$s $$a"; \
	  else echo "$$s MISMATCH parallel-1 $$a parallel-4 $$b"; st=1; fi; \
	done; exit $$st

# The profile-first workflow in one command: run the full serial
# reproduction under CPU and heap profiling, then print the top consumers of
# both. Override the scenario with PROFILE_SCENARIO=stress (etc.).
PROFILE_SCENARIO ?= small
profile:
	$(GO) run ./cmd/reproall -scenario $(PROFILE_SCENARIO) -parallel 1 -quiet-times \
	  -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "== cpu.prof (top) =="
	$(GO) tool pprof -top -nodecount 15 cpu.prof
	@echo "== mem.prof (top) =="
	$(GO) tool pprof -top -nodecount 15 mem.prof
