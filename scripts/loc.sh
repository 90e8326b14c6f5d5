#!/usr/bin/env bash
# Non-test Go lines (wc -l) per package under cmd/, internal/ and examples/ —
# the table ROADMAP item 5 tracks. bench/e2e is the benchmark, not the
# program it measures, and is left out.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find cmd internal examples -name '*.go' ! -name '*_test.go' -print0 |
  xargs -0 wc -l |
  awk '$2 != "total" {
         dir = $2; sub(/\/[^\/]*$/, "", dir)
         lines[dir] += $1; total += $1
       }
       END {
         for (d in lines) printf "%7d  %s\n", lines[d], d
         printf "%7d  total\n", total
       }' |
  sort -k2
