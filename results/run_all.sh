#!/usr/bin/env bash
# Regenerates every recorded result under results/ by running each
# gpumech-bench harness (crates/bench/src/bin) at its default grid.
#
#   bash results/run_all.sh
#
# About 40 minutes on one core; the oracle-bound figure sweeps
# (fig11-fig16) take most of it. The serve and shard harnesses drive the
# release `gpumech` binary, so the whole workspace is built first.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace

run() {
  local bin=$1
  shift
  echo "== $bin $*" >&2
  cargo run --release --quiet -p gpumech-bench --bin "$bin" -- "$@"
}

# Tables
run table1_config > results/table1.txt
run table2_models > results/table2.txt
run table3_stall_types > results/table3.txt

# Figures
run fig04_case_study > results/fig04.txt
run fig07_selection > results/fig07.txt
run fig11_rr --json results/fig11.json > results/fig11.txt
run fig12_gto --json results/fig12.json > results/fig12.txt
run fig13_warps --json results/fig13.json > results/fig13.txt
run fig14_mshr --json results/fig14.json > results/fig14.txt
run fig15_dram --json results/fig15.json > results/fig15.txt
run fig16_cpi_stacks > results/fig16.txt

# Ablations, diagnostics and the Section VI-D speed comparison
run ablation_contention > results/ablation_contention.txt
run ablation_sfu > results/ablation_sfu.txt
run debug_traffic > results/debug_traffic.txt
run speedup > results/speedup.txt

# Execution-layer benchmarks
run bench_parallel --blocks 48 --json results/BENCH_parallel.json
run bench_serve --server-bin target/release/gpumech --json results/BENCH_serve.json
run bench_shard --shard-bin target/release/gpumech --json results/BENCH_shard.json

# One markdown report over every recorded JSON
run report --dir results --out results/report.md
