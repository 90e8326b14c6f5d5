# edgescope build/test/bench targets. `make ci` is the tier-1 gate.

GO ?= go

# The gated wide-query benchmarks run at a fixed iteration count, so their
# B/op (pooled scratch allocated once per run, spread over the iterations)
# does not depend on how many iterations a box fits in a time budget.
WIDE_BENCH = (Wide|AllTime)$$
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
# segment replay, the WAL record codec, snapshot decode, sketch, sketch-page
# and key-inventory codecs, the crash states of a power cut), the shard index against a
# flat-map scan, and the kernels against
# their references: the sketch flush against its scalar form, the envelope
# codec and the /keys JSON writer against encoding/json, the AVX2 exp and
# LSTM kernels against their portable Go.
fuzz:
	$(GO) test -run xxx -fuzz FuzzEnvelopeDecode -fuzztime 5s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzWALSegmentReplay -fuzztime 3s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzWALRecordRoundTrip -fuzztime 3s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzSnapshotDecode -fuzztime 3s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzSketchPageDecode -fuzztime 3s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzKeyInventoryDecode -fuzztime 3s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzShardIndexMatchesScan -fuzztime 3s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzCrashStates -fuzztime 10s -fuzzminimizetime 10x ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzSketchUnmarshalBinary -fuzztime 3s ./internal/stats/
	$(GO) test -run xxx -fuzz FuzzSketchFlushMatchesReference -fuzztime 5s ./internal/stats/
	$(GO) test -run xxx -fuzz FuzzEnvelopeCodecMatchesReference -fuzztime 5s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzKeysJSONMatchesEncoder -fuzztime 5s ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzExpBulkMatchesPortable -fuzztime 5s ./internal/mathx/
	$(GO) test -run xxx -fuzz FuzzLSTMKernelsMatchPortable -fuzztime 5s ./internal/mathx/

# The full chaos/durability test surface: fault-injected equivalence over
# every built-in scenario, stall/short-write survival, kill-and-recover, and
# a minute of the crash-state checker's schedules. Its interleaved shard
# workers make coverage noisy, so each new input is minimised briefly.
chaos:
	$(GO) test -count=1 -run 'TestChaos|TestKillAndRecover|TestRecover|TestTornTail|TestCorrupt' -v ./internal/telemetry/
	$(GO) test -run xxx -fuzz FuzzCrashStates -fuzztime 60s -fuzzminimizetime 10x ./internal/telemetry/

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

# Byte-identity across parallelism and across builds: build reproall once
# (trimmed, no VCS stamp), then print the SHA-256 of its `-ext -quiet-times`
# stdout for every built-in scenario at -parallel 1 and 4. On an amd64 host
# the same source is also built with GOAMD64=v3 (the compiler may fuse
# multiply-adds; skipped, with a note, on a CPU without x86-64-v3) and with
# GOARCH=386 (the portable kernels, run natively), and each of those must
# print the same hash for every scenario at -parallel 4: the bytes are a
# function of the source and the seed, not of the build. Exits non-zero if a
# run fails or any two runs disagree.
REPRO_SCENARIOS = small paper dense-metro rural-sparse flash-crowd stress
REPRO_V3_FLAGS = avx2 bmi1 bmi2 f16c fma movbe abm
repro-sha:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -trimpath -buildvcs=false -o "$$tmp/reproall" ./cmd/reproall || exit 1; \
	builds=; \
	if [ "$$($(GO) env GOHOSTARCH)" = amd64 ]; then \
	  builds=386; \
	  GOARCH=386 $(GO) build -trimpath -buildvcs=false -o "$$tmp/reproall-386" ./cmd/reproall || exit 1; \
	  v3=yes; for f in $(REPRO_V3_FLAGS); do grep -qw $$f /proc/cpuinfo || v3=; done; \
	  if [ -n "$$v3" ]; then \
	    builds="v3 386"; \
	    GOAMD64=v3 $(GO) build -trimpath -buildvcs=false -o "$$tmp/reproall-v3" ./cmd/reproall || exit 1; \
	  else echo "repro-sha: CPU lacks x86-64-v3, GOAMD64=v3 build skipped"; fi; \
	fi; \
	st=0; for s in $(REPRO_SCENARIOS); do \
	  for p in 1 4; do \
	    "$$tmp/reproall" -scenario $$s -ext -quiet-times -parallel $$p > "$$tmp/out-$$p" || exit 1; \
	  done; \
	  a=$$(sha256sum < "$$tmp/out-1" | cut -c1-64); b=$$(sha256sum < "$$tmp/out-4" | cut -c1-64); \
	  if [ "$$a" = "$$b" ]; then echo "$$s $$a"; \
	  else echo "$$s MISMATCH parallel-1 $$a parallel-4 $$b"; st=1; fi; \
	  for v in $$builds; do \
	    "$$tmp/reproall-$$v" -scenario $$s -ext -quiet-times -parallel 4 > "$$tmp/out-$$v" || exit 1; \
	    c=$$(sha256sum < "$$tmp/out-$$v" | cut -c1-64); \
	    if [ "$$c" != "$$a" ]; then echo "$$s MISMATCH default-build $$a $$v-build $$c"; st=1; fi; \
	  done; \
	done; \
	[ $$st = 0 ] && [ -n "$$builds" ] && echo "repro-sha: the $$builds builds print the same hashes"; exit $$st

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
