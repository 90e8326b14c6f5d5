#!/usr/bin/env bash
# ci.sh — the repo's tier-1 gate plus the perf-trajectory snapshot.
#
#   gofmt cleanliness  → build  → vet  → orphan-package check (every
#   internal/ package is in `go list -deps` of the repo's main packages;
#   internal/faultinject is the one test-only harness)
#   → cross-arch: arm64 build and vet; 386 tests of the kernel packages,
#     which run natively and take the portable Go path (no AVX2 assembly
#     off amd64)  → full tests (the root package's
#     TestEveryFunctionReachable is the per-function form of the orphan
#     check: every non-test function is reachable from a main package or
#     listed with a reason in scripts/reach_keep; TestEveryOptionSet is the
#     per-option form: every field of an exported *Config/*Options struct
#     is set by non-test code outside its type's fill, or listed there too;
#     TestEveryFieldRead the per-field form: every field of an untagged
#     non-test struct is read by non-test code, or listed there too)
#   → race tests (concurrency-bearing packages)
#   → short fuzz passes (wire decoder + the durability surfaces: WAL
#     segment replay, the WAL record codec, snapshot decode, sketch codec,
#     sketch-page and key-inventory codecs, the crash states of a power
#     cut; the shard key index against a flat-map scan;
#     the sketch flush kernel against its scalar reference; the envelope
#     and /keys JSON kernels against encoding/json; the AVX2 exp and LSTM
#     kernels against their portable Go)
#   → chaos smoke: a seeded drop+duplicate+reorder fault plan on the small
#     scenario through the retrying client must answer byte-identically to
#     a clean run, and a killed durable ingestor must recover to the same
#     answers
#   → metrics smoke: a live telemetryd (replaying the small scenario, with
#     -pprof) must serve /metrics as well-formed Prometheus exposition
#     carrying the ingest families — scraped and linted by cmd/metriclint
#   → cluster smoke: a 3-node cluster + frontend on loopback replaying the
#     small scenario must answer /query byte-identically to a single-node
#     replay; a node asked for its /sketches in the binary page form, or
#     its /keys in the binary inventory form, must answer in it, its JSON
#     page must hold one fold per key (each match with "windows"), and the
#     frontend's /metrics (leg, page-byte, merge and retry-client
#     families) and the node's (fold families) must lint,
#     and the node must have fsynced at most 2 WAL files per sync batch;
#     a SIGKILLed member must surface as an explicit partial result; a
#     restarted member (WAL recovery) must reconverge, having replayed no
#     more WAL than the documented restart bound
#   → rebalance smoke: a fourth node joins the live cluster through
#     POST /admin/join (sketch-page handoff, epoch activation), then a
#     member drains and leaves — /query and /keys must stay byte-identical
#     to the single-node replay at every epoch, with no daemon restarted
#     — then a 50-envelope POST must land in 1–3 ingest legs; a restarted
#     frontend must fold 50 envelopes on streams it carried before the
#     restart (all-time count +50); two concurrent 50-envelope POSTs must
#     each be acked 50
#   → scenario smoke: reproall -list, then `make repro-sha` — every built-in
#     scenario with -ext through a trimmed build at -parallel 1 and 4, one
#     SHA-256 each, failing on any mismatch (stdout must be byte-identical
#     at any worker count) — and fig14 alone at -parallel 1, 2 and 8
#   → examples smoke: each examples/* program runs once, exits 0 and prints
#     something — they are roots of the reachability walk, so they must at
#     least run
#   → short paper-artifact benchmarks, compared against the committed
#     BENCH.json by `benchdump -compare`: the delta table lands in the CI
#     log, and the allocation-budget gate fails the run if B/op or
#     allocs/op on the named hot benchmarks regresses more than 15%. On
#     success the fresh snapshot replaces BENCH.json (commit it to ratchet
#     the trajectory).
#
# Usage: scripts/ci.sh [--no-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

# The allocation-budget gate: the benchmarks the allocation overhaul pinned
# down. B/op and allocs/op (not ns/op) are gated because allocation metrics
# are stable across machines; 15% headroom absorbs benchtime-iteration
# jitter. The list lives in scripts/bench_gate so `make bench-compare` and
# CI cannot drift.
BENCH_GATE="$(cat scripts/bench_gate)"
# The wide-query benchmarks and the fixed iteration count they run at (the
# Makefile's bench targets use the same two values).
WIDE_BENCH='(Wide|AllTime)$'
WIDE_BENCHTIME=20x

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== orphan packages (every internal/ package reachable from a main package) =="
# Code no binary can reach is code no engine, artifact or workload runs.
# `go list` only — nothing is downloaded. internal/faultinject is the one
# allow-listed test-only harness: the chaos tests import it, no binary does.
mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
# shellcheck disable=SC2086  # $mains is a word list
orphans=$(go list ./internal/... | grep -vx 'edgescope/internal/faultinject' |
  grep -vxF -f <(go list -deps $mains) || true)
if [[ -n "$orphans" ]]; then
  echo "internal packages imported by no main package (delete them, or name the binary that needs them):" >&2
  echo "$orphans" >&2
  exit 1
fi

echo "== cross-arch (arm64 compile + vet, 386 kernel tests) =="
# The exp kernel defines the artifact bytes on every GOARCH; keep it and its
# callers free of amd64 assumptions. 386 binaries run on an amd64 host, so
# the portable kernels (and the goldens they must reproduce) get a real run.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/mathx ./internal/rng ./internal/workload ./internal/predict
GOARCH=386 go test ./internal/mathx ./internal/rng ./internal/workload ./internal/predict

echo "== test =="
go test ./...

echo "== race (parallel engine packages) =="
go test -race ./internal/core/ ./internal/crowd/ ./internal/par/ ./internal/predict/ ./internal/telemetry/ ./internal/telemetry/cluster/ ./internal/telemetry/serve/ ./cmd/telemetryd/

echo "== fuzz (telemetry decoder, 5s) =="
go test -run xxx -fuzz FuzzEnvelopeDecode -fuzztime 5s ./internal/telemetry/

echo "== fuzz (durability surfaces: WAL replay, WAL records, snapshot, sketch, sketch-page + key-inventory codecs; 3s each) =="
go test -run xxx -fuzz FuzzWALSegmentReplay -fuzztime 3s ./internal/telemetry/
go test -run xxx -fuzz FuzzWALRecordRoundTrip -fuzztime 3s ./internal/telemetry/
go test -run xxx -fuzz FuzzSnapshotDecode -fuzztime 3s ./internal/telemetry/
go test -run xxx -fuzz FuzzSketchPageDecode -fuzztime 3s ./internal/telemetry/
go test -run xxx -fuzz FuzzKeyInventoryDecode -fuzztime 3s ./internal/telemetry/
go test -run xxx -fuzz FuzzSketchUnmarshalBinary -fuzztime 3s ./internal/stats/

echo "== fuzz (crash states of a power cut, 5s) =="
go test -run xxx -fuzz FuzzCrashStates -fuzztime 5s -fuzzminimizetime 10x ./internal/telemetry/

echo "== fuzz (shard key index ≡ flat-map scan, 3s) =="
go test -run xxx -fuzz FuzzShardIndexMatchesScan -fuzztime 3s ./internal/telemetry/

echo "== fuzz (sketch flush kernel ≡ scalar reference, 5s) =="
go test -run xxx -fuzz FuzzSketchFlushMatchesReference -fuzztime 5s ./internal/stats/

echo "== fuzz (envelope codec and /keys JSON kernels ≡ encoding/json reference, 5s each) =="
go test -run xxx -fuzz FuzzEnvelopeCodecMatchesReference -fuzztime 5s ./internal/telemetry/
go test -run xxx -fuzz FuzzKeysJSONMatchesEncoder -fuzztime 5s ./internal/telemetry/

echo "== fuzz (AVX2 exp and LSTM kernels ≡ portable Go, 5s each) =="
go test -run xxx -fuzz FuzzExpBulkMatchesPortable -fuzztime 5s ./internal/mathx/
go test -run xxx -fuzz FuzzLSTMKernelsMatchPortable -fuzztime 5s ./internal/mathx/

echo "== chaos smoke (seeded drop+dup+reorder on small, retrying client) =="
# The chaos acceptance pin: >=1% drops, duplicates and reorders injected
# into the small scenario's stream through the retrying client must deliver
# exactly once and answer every quantile/CDF query byte-identically to a
# clean run, with the fault trace reproducible from the seed. The kill-and-
# recover pin rides along: a crashed durable ingestor reopens to the same
# answers.
go test -count=1 -run 'TestChaosEquivalenceAcrossScenarios/small|TestKillAndRecoverByteIdentical' ./internal/telemetry/

smoke=$(mktemp -d .ci-smoke.XXXXXX)
trap 'rm -rf "$smoke"' EXIT

echo "== metrics smoke (live telemetryd /metrics through metriclint) =="
go build -o "$smoke/telemetryd" ./cmd/telemetryd
go build -o "$smoke/metriclint" ./cmd/metriclint
METRICS_PORT="${METRICS_PORT:-18355}"
"$smoke/telemetryd" -addr "127.0.0.1:$METRICS_PORT" -replay -scenario small \
  -pprof -log-format json 2> "$smoke/telemetryd.log" &
TELEMETRYD_PID=$!
trap 'kill "$TELEMETRYD_PID" 2>/dev/null; rm -rf "$smoke"' EXIT
scrape_ok=""
for _ in $(seq 1 60); do
  if "$smoke/metriclint" -url "http://127.0.0.1:$METRICS_PORT/metrics" \
      -require telemetry_ingest_accepted_total,telemetry_ingest_processed_total,telemetry_shard_queue_depth \
      2> "$smoke/metriclint.err"; then
    scrape_ok=1
    break
  fi
  sleep 0.5
done
if [[ -z "$scrape_ok" ]]; then
  echo "metrics smoke failed:" >&2
  cat "$smoke/metriclint.err" >&2
  cat "$smoke/telemetryd.log" >&2
  exit 1
fi
kill "$TELEMETRYD_PID" 2>/dev/null
wait "$TELEMETRYD_PID" 2>/dev/null || true
trap 'rm -rf "$smoke"' EXIT
echo "  /metrics well-formed, ingest families present"

echo "== cluster smoke (3 durable nodes + frontend: replay, kill, partial, recover) =="
# The distributed acceptance story end to end, over real processes and real
# HTTP: a 3-node cluster replaying the small scenario through the frontend
# router must answer /query byte-identically to a single-node replay; with
# one member SIGKILLed the frontend must say "partial" and name the member;
# after a restart (WAL recovery) the answer must reconverge to the same
# bytes.
CLUSTER_BASE="${CLUSTER_PORT_BASE:-18360}"
N0=$((CLUSTER_BASE)); N1=$((CLUSTER_BASE + 1)); N2=$((CLUSTER_BASE + 2))
FRONT=$((CLUSTER_BASE + 3)); SINGLE=$((CLUSTER_BASE + 4))
PEERS="n0=http://127.0.0.1:$N0,n1=http://127.0.0.1:$N1,n2=http://127.0.0.1:$N2"
QS='metric=rtt_ms&q=0.5,0.95,0.99&cdf=10,50,100'
CLUSTER_PIDS=()
cluster_cleanup() {
  for pid in ${CLUSTER_PIDS[@]+"${CLUSTER_PIDS[@]}"}; do
    kill -9 "$pid" 2>/dev/null || true
  done
}
trap 'cluster_cleanup; rm -rf "$smoke"' EXIT
start_node() { # id port [peers]
  "$smoke/telemetryd" -role node -node-id "$1" -peers "${3:-$PEERS}" \
    -addr "127.0.0.1:$2" -data "$smoke/cluster-$1" -sync-every 1 \
    -log-format json 2>> "$smoke/cluster-$1.log" &
  CLUSTER_PIDS+=($!)
}
wait_http() { # url tries
  for _ in $(seq 1 "${2:-100}"); do
    if curl -fsS "$1" > /dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "timeout waiting for $1" >&2
  return 1
}
start_node n0 "$N0"
start_node n1 "$N1"; NODE1_PID=$!
start_node n2 "$N2"
wait_http "http://127.0.0.1:$N0/healthz"
wait_http "http://127.0.0.1:$N1/healthz"
wait_http "http://127.0.0.1:$N2/healthz"

# The single-node reference: the identical replay, one process.
"$smoke/telemetryd" -addr "127.0.0.1:$SINGLE" -replay -scenario small \
  -log-format json 2> "$smoke/cluster-single.log" &
CLUSTER_PIDS+=($!)
# The frontend replays the same campaign through the partition router; it
# only starts serving once the replay is done. -data gives it a place to
# persist each activated assignment (the rebalance smoke checks it).
"$smoke/telemetryd" -role frontend -addr "127.0.0.1:$FRONT" -peers "$PEERS" \
  -probe-interval 200ms -node-timeout 1s -replay -scenario small \
  -data "$smoke/cluster-frontend-state" \
  -log-format json 2> "$smoke/cluster-frontend.log" &
CLUSTER_PIDS+=($!); FRONT_PID=$!
wait_http "http://127.0.0.1:$SINGLE/healthz" 300
wait_http "http://127.0.0.1:$FRONT/healthz" 600

curl -fsS "http://127.0.0.1:$SINGLE/query?$QS" > "$smoke/cluster-single-query.json"
curl -fsS "http://127.0.0.1:$SINGLE/keys" > "$smoke/cluster-single-keys.json"
# The member queues drain asynchronously after the routed replay, so poll
# until the scatter-gathered answer converges to the single-node bytes.
converge() { # outfile tries
  for _ in $(seq 1 "${2:-100}"); do
    curl -fsS "http://127.0.0.1:$FRONT/query?$QS" > "$1" 2>/dev/null || true
    if diff -q "$smoke/cluster-single-query.json" "$1" > /dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "cluster /query never converged to the single-node answer:" >&2
  diff "$smoke/cluster-single-query.json" "$1" >&2 || true
  cat "$smoke/cluster-frontend.log" >&2
  return 1
}
converge "$smoke/cluster-query.json"
curl -fsS "http://127.0.0.1:$FRONT/keys" > "$smoke/cluster-keys.json"
diff "$smoke/cluster-single-keys.json" "$smoke/cluster-keys.json"
echo "  3-node /query and /keys byte-identical to a single-node replay"

# The frontend↔node legs' wire forms, from outside: asked for the binary
# page or key inventory, a node answers in it (without the header it stays
# JSON for curl).
PAGE_CT='application/x-edgescope-sketch-page'
got_ct=$(curl -fsS -o "$smoke/cluster-n0-page.bin" -w '%{content_type}' \
  -H "Accept: $PAGE_CT" "http://127.0.0.1:$N0/sketches?$QS")
if [[ "$got_ct" != "$PAGE_CT" ]] || [[ "$(head -c 6 "$smoke/cluster-n0-page.bin")" != "espage" ]]; then
  echo "n0 /sketches with Accept: $PAGE_CT answered content type '$got_ct'" >&2
  exit 1
fi
KEYS_CT='application/x-edgescope-keys'
got_ct=$(curl -fsS -o "$smoke/cluster-n0-keys.bin" -w '%{content_type}' \
  -H "Accept: $KEYS_CT" "http://127.0.0.1:$N0/keys")
if [[ "$got_ct" != "$KEYS_CT" ]] || [[ "$(head -c 6 "$smoke/cluster-n0-keys.bin")" != "eskeys" ]]; then
  echo "n0 /keys with Accept: $KEYS_CT answered content type '$got_ct'" >&2
  exit 1
fi
# What the page holds: one sealed fold per key — every match carries
# "windows" (the rollups folded into it), and no (region, net) repeats.
curl -fsS "http://127.0.0.1:$N0/sketches?$QS" > "$smoke/cluster-n0-page.json"
matches=$(grep -c '"sketch":' "$smoke/cluster-n0-page.json" || true)
folds=$(grep -c '"windows": [1-9]' "$smoke/cluster-n0-page.json" || true)
repeated=$(grep -E '"(region|net)":' "$smoke/cluster-n0-page.json" | paste - - | sort | uniq -d)
if [[ "$matches" -eq 0 ]] || [[ "$matches" != "$folds" ]] || [[ -n "$repeated" ]]; then
  echo "n0 /sketches: $matches matches, $folds of them folds, repeated keys: '$repeated'" >&2
  exit 1
fi
"$smoke/metriclint" -url "http://127.0.0.1:$FRONT/metrics" \
  -require cluster_frontend_queries_total,cluster_frontend_leg_seconds,cluster_frontend_page_bytes_total,cluster_frontend_merge_seconds,cluster_router_legs_total,cluster_router_leg_envelopes,telemetry_client_sent_total,telemetry_client_retries_total,telemetry_client_failed_total,telemetry_client_backoff_seconds
"$smoke/metriclint" -url "http://127.0.0.1:$N0/metrics" \
  -require telemetry_sketches_seconds,telemetry_sketches_folded_rollups_total,telemetry_sketches_memo_hits_total,telemetry_sketches_memo_misses_total,telemetry_query_seconds,telemetry_snapshot_bytes,telemetry_wal_bytes_since_snapshot,telemetry_wal_file_fsyncs_total,telemetry_shard_keys
# The fold memo: the rollups have not changed since the converged /query, so
# repeating it must be answered from n0's memo — its hit counter moves.
memo_hits() {
  curl -fsS "http://127.0.0.1:$N0/metrics" | awk '/^telemetry_sketches_memo_hits_total / { print $NF }'
}
hits_before=$(memo_hits)
curl -fsS "http://127.0.0.1:$FRONT/query?$QS" > /dev/null
hits_after=$(memo_hits)
if ! awk -v a="$hits_before" -v b="$hits_after" 'BEGIN { exit !(b > a) }'; then
  echo "n0 answered a repeated identical /query without a fold memo hit ($hits_before → $hits_after)" >&2
  exit 1
fi
echo "  n0 answered a repeated /query from its fold memo (hits $hits_before → $hits_after)"
# A WAL sync fsyncs the segments written since the last one, not every open
# handle: files fsynced per sync batch, summed over n0's shards, reads 1 here
# (-sync-every 1) and read the open-handle count (3 on this replay) when every
# cadence walked them all. Past 2, that regression is back.
curl -fsS "http://127.0.0.1:$N0/metrics" | awk '
  /^telemetry_wal_file_fsyncs_total\{/ { files += $NF }
  /^telemetry_wal_fsyncs_total\{/ { batches += $NF }
  END {
    printf "  n0 WAL: %d files fsynced in %d sync batches\n", files, batches
    exit !(batches > 0 && files <= 2 * batches)
  }' || { echo "n0 fsyncs more than 2 files per WAL sync batch (or none at all)" >&2; exit 1; }
echo "  n0 serves binary sketch pages and key inventories on request, one fold per key; frontend and node /metrics lint with the leg, merge, ingest-leg, retry-client, fold and checkpoint families"

# README's partial-result sentence, exactly: the answer below must list as
# missing the partitions the assignment gives n1 — all of them, no others.
n1_owns=$(curl -fsS "http://127.0.0.1:$FRONT/admin/assignment" | tr -d ' \n' |
  grep -o '"owners":\[[^]]*\]' | grep -o '\[.*' | tr -d '[]"' | tr ',' '\n' |
  grep -n '^n1$' | cut -d: -f1 | while read -r i; do echo $((i - 1)); done | paste -sd, -)
kill -9 "$NODE1_PID" 2>/dev/null
partial_ok=""
for _ in $(seq 1 100); do
  curl -fsS "http://127.0.0.1:$FRONT/query?$QS" > "$smoke/cluster-partial.json" 2>/dev/null || true
  if grep -q '"partial": true' "$smoke/cluster-partial.json" &&
      grep -q '"n1"' "$smoke/cluster-partial.json"; then
    partial_ok=1
    break
  fi
  sleep 0.2
done
if [[ -z "$partial_ok" ]]; then
  echo "frontend never reported the killed member as a partial result:" >&2
  cat "$smoke/cluster-partial.json" >&2
  cat "$smoke/cluster-frontend.log" >&2
  exit 1
fi
missing=$(tr -d ' \n' < "$smoke/cluster-partial.json" |
  grep -o '"missing_partitions":\[[^]]*\]' | tr -d -c '0-9,')
if [[ -z "$n1_owns" ]] || [[ "$missing" != "$n1_owns" ]]; then
  echo "missing_partitions [$missing] is not exactly what n1 owned [$n1_owns]:" >&2
  cat "$smoke/cluster-partial.json" >&2
  exit 1
fi
echo "  killed n1: /query answers partial, naming the missing member and exactly its partitions ($missing)"

# README's restart bound, from what the kill left on disk: per shard, the
# replayed WAL suffix holds fewer records than -snapshot-every (4096, the
# default these nodes run with) or fewer bytes than the checkpoint beside it
# (no framed WAL record is smaller than 28 bytes: TestSmallestEnvelopeRecord).
replay_bound=0
for shard in "$smoke"/cluster-n1/shard-*; do
  snap_bytes=$(stat -c %s "$shard/snapshot.bin" 2>/dev/null || echo 0)
  per_shard=$((snap_bytes / 28 + 1))
  if [[ "$per_shard" -lt 4096 ]]; then per_shard=4096; fi
  replay_bound=$((replay_bound + per_shard))
done
start_node n1 "$N1"
converge "$smoke/cluster-recovered.json" 150
curl -fsS "http://127.0.0.1:$N1/healthz" > "$smoke/cluster-n1-healthz.json"
replayed=$(grep -o '"records_replayed": [0-9]*' "$smoke/cluster-n1-healthz.json" | grep -o '[0-9]*$' || true)
if [[ -z "$replayed" ]] || [[ "$replayed" -gt "$replay_bound" ]]; then
  echo "n1 replayed '${replayed}' WAL records at restart, documented bound $replay_bound:" >&2
  cat "$smoke/cluster-n1-healthz.json" >&2
  exit 1
fi
echo "  n1 recovered from its WAL ($replayed records replayed, bound $replay_bound): /query reconverged to the single-node bytes"

echo "== rebalance smoke (live join, drain, leave through /admin) =="
# Elastic membership end to end over real processes: a fourth node joins
# the loaded cluster (sketch-page handoff, atomic epoch activation) and
# /query + /keys must stay byte-identical to the single-node replay; then
# n2 drains and leaves — still byte-identical, with no daemon restarted.
N3=$((CLUSTER_BASE + 5))
PEERS4="$PEERS,n3=http://127.0.0.1:$N3"
start_node n3 "$N3" "$PEERS4"
wait_http "http://127.0.0.1:$N3/healthz"
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "{\"id\":\"n3\",\"url\":\"http://127.0.0.1:$N3\"}" \
  "http://127.0.0.1:$FRONT/admin/join" > "$smoke/cluster-join.json"
active_at() { # epoch tries
  for _ in $(seq 1 "${2:-100}"); do
    curl -fsS "http://127.0.0.1:$FRONT/admin/assignment" \
      > "$smoke/cluster-assignment.json" 2>/dev/null || true
    if grep -q '"status": "active"' "$smoke/cluster-assignment.json" &&
        grep -q "\"epoch\": $1" "$smoke/cluster-assignment.json"; then
      return 0
    fi
    sleep 0.2
  done
  echo "assignment never activated at epoch $1:" >&2
  cat "$smoke/cluster-assignment.json" >&2
  cat "$smoke/cluster-frontend.log" >&2
  return 1
}
active_at 2
converge "$smoke/cluster-joined-query.json" 150
curl -fsS "http://127.0.0.1:$FRONT/keys" > "$smoke/cluster-joined-keys.json"
diff "$smoke/cluster-single-keys.json" "$smoke/cluster-joined-keys.json"
grep -q '"n3"' "$smoke/cluster-frontend-state/cluster-state.json"
echo "  n3 joined live: epoch 2 active, /query and /keys still byte-identical"

curl -fsS -X POST -H 'Content-Type: application/json' -d '{"id":"n2"}' \
  "http://127.0.0.1:$FRONT/admin/drain" > /dev/null
active_at 3
curl -fsS -X POST -H 'Content-Type: application/json' -d '{"id":"n2"}' \
  "http://127.0.0.1:$FRONT/admin/leave" > /dev/null
active_at 4
converge "$smoke/cluster-left-query.json" 150
curl -fsS "http://127.0.0.1:$FRONT/keys" > "$smoke/cluster-left-keys.json"
diff "$smoke/cluster-single-keys.json" "$smoke/cluster-left-keys.json"
echo "  n2 drained and left: epoch 4 active, answers still byte-identical"

# One POST per owner: a 50-envelope request to the frontend reaches the
# three owners in at most three ingest legs (cluster_router_legs_total), and
# all 50 are accepted. It runs last: its keys are not in the single-node
# reference.
router_legs() {
  curl -fsS "http://127.0.0.1:$FRONT/metrics" |
    awk '/^cluster_router_legs_total\{/ { n += $NF } END { print n + 0 }'
}
legs_before=$(router_legs)
for i in $(seq 0 49); do
  printf '{"v":1,"ts":%d,"metric":"rtt_ms","user":%d,"region":"smoke-%d","net":"WiFi","value":%d}\n' \
    $((1700000000000 + i * 10)) $((i % 7 + 1)) $((i % 10)) $((10 + i))
done > "$smoke/cluster-batch.jsonl"
post_batch() { # file → the frontend's "accepted"
  curl -fsS -X POST -H 'Content-Type: application/jsonl' --data-binary "@$1" \
    "http://127.0.0.1:$FRONT/ingest" | tr -d ' \n' | grep -o '"accepted":[0-9]*' | grep -o '[0-9]*$' || true
}
accepted=$(post_batch "$smoke/cluster-batch.jsonl")
legs=$(($(router_legs) - legs_before))
if [[ "$accepted" != 50 ]] || [[ "$legs" -lt 1 ]] || [[ "$legs" -gt 3 ]]; then
  echo "a 50-envelope POST to the frontend: '$accepted' accepted in $legs ingest legs (want 50 in 1–3)" >&2
  exit 1
fi
echo "  a 50-envelope POST to the frontend reached its owners in $legs ingest legs"

# The frontend numbers nothing, so a restarted one forwards what producers
# send: the same 50 envelopes again, on streams its previous incarnation
# carried, fold, and the all-time count rises by exactly 50 (a frontend that
# numbered unsequenced envelopes from in-memory cursors restarted at 1, and
# the nodes folded them zero times as duplicates). Then two 50-envelope
# POSTs at once: /ingest serves requests concurrently, and each is acked 50.
flush_members() {
  for port in "$N0" "$N1" "$N2" "$N3"; do
    curl -fsS -X POST "http://127.0.0.1:$port/admin/flush" > /dev/null
  done
}
alltime_count() {
  curl -fsS "http://127.0.0.1:$FRONT/query?metric=rtt_ms" | tr -d ' \n' |
    grep -o '"count":[0-9.e+]*' | grep -o '[0-9][0-9.e+]*$'
}
flush_members
count_before=$(alltime_count)
kill "$FRONT_PID"
wait "$FRONT_PID" 2>/dev/null || true
"$smoke/telemetryd" -role frontend -addr "127.0.0.1:$FRONT" -peers "$PEERS4" \
  -probe-interval 200ms -node-timeout 1s -data "$smoke/cluster-frontend-state" \
  -log-format json 2>> "$smoke/cluster-frontend.log" &
CLUSTER_PIDS+=($!)
wait_http "http://127.0.0.1:$FRONT/healthz"
accepted=$(post_batch "$smoke/cluster-batch.jsonl")
flush_members
count_after=$(alltime_count)
if [[ "$accepted" != 50 ]] || ! awk -v a="$count_before" -v b="$count_after" 'BEGIN { exit !(b - a == 50) }'; then
  echo "restarted frontend: '$accepted' of 50 acked, all-time count $count_before → $count_after (want +50)" >&2
  cat "$smoke/cluster-frontend.log" >&2
  exit 1
fi
post_batch "$smoke/cluster-batch.jsonl" > "$smoke/cluster-post-a.txt" &
post_a=$!
post_batch "$smoke/cluster-batch.jsonl" > "$smoke/cluster-post-b.txt" &
post_b=$!
wait "$post_a" "$post_b"
if [[ "$(cat "$smoke/cluster-post-a.txt")" != 50 ]] || [[ "$(cat "$smoke/cluster-post-b.txt")" != 50 ]]; then
  echo "two concurrent 50-envelope POSTs acked '$(cat "$smoke/cluster-post-a.txt")' and '$(cat "$smoke/cluster-post-b.txt")' (want 50 each)" >&2
  exit 1
fi
echo "  restarted frontend: 50 acked on old streams, all-time count $count_before → $count_after; two concurrent POSTs acked 50 each"
cluster_cleanup
CLUSTER_PIDS=()
trap 'rm -rf "$smoke"' EXIT

echo "== scenario smoke (reproall, parallel-invariance over every built-in) =="
go build -o "$smoke/reproall" ./cmd/reproall
"$smoke/reproall" -list > /dev/null
make --no-print-directory repro-sha
# fig14 alone: with one artifact selected, the per-VM fan-out inside the
# node is the only thing the worker count changes.
"$smoke/reproall" -only fig14 -parallel 1 -quiet-times > "$smoke/fig14-p1.txt"
for p in 2 8; do
  "$smoke/reproall" -only fig14 -parallel "$p" -quiet-times > "$smoke/fig14-p$p.txt"
  diff "$smoke/fig14-p1.txt" "$smoke/fig14-p$p.txt"
done
echo "  fig14 ok ($(wc -c < "$smoke/fig14-p1.txt") bytes, identical at -parallel 1, 2 and 8)"

echo "== examples smoke (each examples/* program runs, exits 0, prints) =="
for ex in examples/*/; do
  go run "./$ex" > "$smoke/example.out"
  if [[ ! -s "$smoke/example.out" ]]; then
    echo "$ex printed nothing" >&2
    exit 1
  fi
  echo "  ${ex%/} ok ($(wc -l < "$smoke/example.out") lines)"
done

if [[ "${1:-}" != "--no-bench" ]]; then
  echo "== bench → compare gate → BENCH.json =="
  # The scenario tag comes from the `scenario:` context line bench_test.go
  # prints, so BENCH.json always names what actually ran. -benchtime 100ms
  # gives the sub-microsecond benchmarks meaningful iteration counts; the
  # RunAll pair (which a 100ms budget runs exactly once) is re-benched at an
  # iteration-count -benchtime so its recorded ns/op is a ≥2-iteration
  # statistic — benchdump keeps the higher-iteration entry per name. The
  # gated wide-query benchmarks run at a fixed iteration count instead (their
  # pooled scratch is allocated once per run, so B/op is that allocation over
  # the iteration count, and a time budget made it depend on the box).
  # The sweep goes to a file first: `tee /dev/stderr` truncated a log that
  # stderr was redirected to.
  { go test -bench . -skip "$WIDE_BENCH" -benchmem -benchtime 100ms -run xxx . &&
    go test -bench "$WIDE_BENCH" -benchmem -benchtime "$WIDE_BENCHTIME" -run xxx . &&
    go test -bench '^BenchmarkRunAll(Serial|Parallel)$' -benchmem -benchtime 2x -run xxx . ; } \
    > "$smoke/bench.txt"
  cat "$smoke/bench.txt" >&2
  go run ./cmd/benchdump -out "$smoke/BENCH.new.json" < "$smoke/bench.txt"
  # Gate against the COMMITTED baseline (not the working-tree file, which a
  # previous passing run may have refreshed): repeated local runs must not
  # ratchet +14% drifts under a 15% budget. Outside git, fall back to the
  # tree snapshot.
  git show HEAD:BENCH.json > "$smoke/BENCH.base.json" 2>/dev/null \
    || cp BENCH.json "$smoke/BENCH.base.json"
  echo "-- benchdump delta vs committed BENCH.json --"
  go run ./cmd/benchdump -compare -gate "$BENCH_GATE" -tolerance 0.15 \
    "$smoke/BENCH.base.json" "$smoke/BENCH.new.json"
  mv "$smoke/BENCH.new.json" BENCH.json
fi

echo "== ci OK =="
