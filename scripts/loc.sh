#!/usr/bin/env bash
# Non-test Go lines (wc -l) per package under cmd/, internal/ and examples/ —
# the table ROADMAP item 9 tracks. bench/e2e is the benchmark, not the
# program it measures: it gets its own row below the total and is not
# summed into it.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# rows DIR...: one "lines  package" row per package under the directories.
rows() {
  find "$@" -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 wc -l |
    awk '$2 != "total" { dir = $2; sub(/\/[^\/]*$/, "", dir); lines[dir] += $1 }
         END { for (d in lines) printf "%7d  %s\n", lines[d], d }' |
    sort -k2
}

rows cmd internal examples | awk '{ print; total += $1 } END { printf "%7d  total\n", total }'
rows bench/e2e | sed 's/$/ (the benchmark; not in the total)/'
