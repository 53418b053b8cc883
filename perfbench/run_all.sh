#!/usr/bin/env bash
# Runs every workload untraced (end-to-end metrics), then traced
# (per-layer metrics). Usage: bash perfbench/run_all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-25}
cd "$(dirname "$0")/.."
for workload in forward-qds attention-longformer serve-qds decode-chat; do
    for trace in 0 1; do
        cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
