#!/usr/bin/env bash
# Regenerate every paper table/figure into results/ (console output +
# CSVs). Usage: scripts/run_all.sh [build-dir] [suite]
set -euo pipefail

BUILD="${1:-build}"
SUITE="${2:-default}"
OUT=results
mkdir -p "$OUT"

run() {
  local name="$1"
  shift
  echo "==> $name"
  "$BUILD/bench/$name" "$@" --csv="$OUT/$name.csv" | tee "$OUT/$name.txt"
}

run fig2_partitioners
run fig3_memory
run fig4_speedup --suite="$SUITE"
run fig5_scaling
run fig6_graph_types --suite="$SUITE"
run table1_cost_model
run table2_datasets
run table3_incore
run table4_outofcore
run table5_large_ids
run sec5a_comm_volume
run sec5b_sync_latency
run sec6a_direction_sweep
run sec7a_road
run sec7c_apu
run ablation_strategies
run analysis_frontier --json="$OUT/frontier_trace"
run ext_multinode

echo "==> micro_operators"
"$BUILD/bench/micro_operators" --json="$OUT/BENCH_operators.json" \
  | tee "$OUT/micro_operators.txt"

echo "all results in $OUT/"
