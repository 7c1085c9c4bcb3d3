#!/usr/bin/env bash
# Run all four workloads, one after another, from the repository root:
#   bash perfbench/run_all.sh [seed] [seconds] [trace]
# Stops with a non-zero exit at the first workload whose correctness
# gates fail.
set -euo pipefail
seed=${1:-1}
seconds=${2:-20}
trace=${3:-0}
for workload in paper-sweep sharded-ingest durable-ingest serve-mixed; do
  python3 perfbench/run.py --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace"
done
