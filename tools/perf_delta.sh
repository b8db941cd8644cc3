#!/usr/bin/env bash
# Renders the simulator-throughput delta as a GitHub-flavoured markdown
# table: one row per (scheme, workload) cell of bench_perf_sim, committed
# BENCH_sim.json beside the freshly measured point and the percentage
# delta. CI appends it to the perf-smoke step summary so a PR shows
# exactly which cells moved, not just the gated TOTAL; the pass/fail
# decision stays with check_perf_regression.sh.
#
# Rows present in only one file (a preset added or dropped) render with
# "-" for the missing side, so coverage changes are visible rather than
# silently dropped. Rows without a numeric kcycles_per_s are skipped.
#
# Usage: tools/perf_delta.sh COMMITTED_JSON FRESH_JSON
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 COMMITTED_JSON FRESH_JSON" >&2
  exit 2
fi

# Flattens a bench_perf_sim JSON mirror (one object per row, stable key
# order) into "scheme|workload<TAB>kcycles_per_s" lines.
rows_of() {
  awk 'BEGIN { RS="}" }
       /"scheme":/ {
         scheme = ""; workload = ""; kcps = "";
         if (match($0, /"scheme": *"[^"]*"/)) {
           scheme = substr($0, RSTART, RLENGTH);
           sub(/.*: *"/, "", scheme); sub(/"$/, "", scheme);
         }
         if (match($0, /"workload": *"[^"]*"/)) {
           workload = substr($0, RSTART, RLENGTH);
           sub(/.*: *"/, "", workload); sub(/"$/, "", workload);
         }
         if (match($0, /"kcycles_per_s": *[0-9.]+/)) {
           kcps = substr($0, RSTART, RLENGTH);
           sub(/.*: */, "", kcps);
         }
         if (scheme != "" && kcps != "") {
           printf "%s|%s\t%s\n", scheme, workload, kcps;
         }
       }' "$1"
}

committed_rows=$(rows_of "$1")
fresh_rows=$(rows_of "$2")
if [ -z "$committed_rows" ] || [ -z "$fresh_rows" ]; then
  echo "error: no throughput rows found ($1 / $2)" >&2
  exit 2
fi

awk -F '\t' '
  NR == FNR { committed[$1] = $2; order[++n] = $1; next }
  {
    fresh[$1] = $2;
    if (!($1 in committed)) order[++n] = $1;  # new cell, keep at the end
  }
  END {
    print "| scheme | workload | committed kcycles/s | measured kcycles/s | delta |";
    print "|---|---|---:|---:|---:|";
    for (i = 1; i <= n; ++i) {
      key = order[i];
      split(key, part, "|");
      c = (key in committed) ? committed[key] : "";
      f = (key in fresh) ? fresh[key] : "";
      if (c != "" && f != "" && c + 0 > 0) {
        delta = sprintf("%+.1f%%", (f - c) / c * 100.0);
      } else {
        delta = "-";
      }
      printf "| %s | %s | %s | %s | %s |\n",
             part[1], part[2], c == "" ? "-" : c, f == "" ? "-" : f, delta;
    }
  }' <(printf '%s\n' "$committed_rows") <(printf '%s\n' "$fresh_rows")
