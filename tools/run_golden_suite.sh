#!/usr/bin/env bash
# Regenerates the golden-numbers tables (bench/golden/*.json): a fixed-seed,
# small-cycle-budget run of the headline bench and the main figure benches,
# each writing its --json rendering. CI compares the result with the
# checked-in goldens byte for byte.
#
# Usage: tools/run_golden_suite.sh BENCH_BIN_DIR OUT_DIR
#   BENCH_BIN_DIR  directory holding the bench_* binaries (e.g. build/bench)
#   OUT_DIR        where the golden JSON files go (bench/golden to refresh
#                  the checked-in goldens, a scratch dir in CI)
#
# Every knob that affects the numbers is pinned here — cycles, warmup, seed,
# suite shape — so the tables are bit-reproducible on any host (the
# simulator is deterministic in its inputs). Set CLUSMT_CACHE_DIR to reuse
# finished runs across invocations; jobs count never changes results.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BENCH_BIN_DIR OUT_DIR" >&2
  exit 2
fi
bin_dir=$1
out_dir=$2
mkdir -p "$out_dir"

flags=(--per-type 1 --mixes 2 --cycles 20000 --warmup 5000 --seed 1)

# Headline + main figure benches, plus the ablation benches whose runtime
# the shared run cache pays for (ROADMAP "golden coverage growth"): the
# ablations reuse the figure benches' base configurations, so most of their
# cells are cache hits on a warm CI run dir. ext_hetero gates the
# heterogeneous-shape grid; its symmetric column shares cells with the
# rf-study benches.
for bench in headline_summary fig2_iq_throughput fig3_copies fig10_fairness \
             ablate_links ablate_steering ext_hetero; do
  "$bin_dir/bench_$bench" "${flags[@]}" --json "$out_dir/$bench.json" \
    >/dev/null
done
echo "golden tables written to $out_dir"
