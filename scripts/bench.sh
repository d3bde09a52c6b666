#!/usr/bin/env bash
# Regenerate one of the three artifacts crates/bench still owns (wall-clock
# performance is benchmark/run.sh's job, not this script's):
#
#   scripts/bench.sh chaos     results/BENCH_chaos.json — SWAT-ASR message
#                              cost and answer rate under drops × delays,
#                              with crash-window variants (`swat chaos`)
#   scripts/bench.sh repair    results/BENCH_repair.json — self-healing vs a
#                              static tree under interior crashes; fails
#                              unless healing dominates in every cell
#                              (`swat repair-bench`)
#   scripts/bench.sh failover  results/BENCH_failover.json — the LEADER of a
#                              real-TCP cluster killed mid-run: election
#                              latency, unavailability window, answered
#                              fraction; fails on any wrong answer
#                              (`swat failover-bench`)
#
# chaos and repair are simulations: the file is a function of the seed, two
# runs are byte-identical, and scripts/check.sh holds the committed files to
# `cmp` — rerun this after changing simulator code and commit the result.
# Extra flags (--quick, --seed, --out, … see `swat help`) are forwarded.
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
chaos) cmd=chaos ;;
repair) cmd=repair-bench ;;
failover) cmd=failover-bench ;;
*)
    echo "usage: scripts/bench.sh <chaos|repair|failover> [flags]" >&2
    exit 2
    ;;
esac
name=$1
shift
cargo run --release -q -p swat-cli -- "$cmd" --out "results/BENCH_$name.json" "$@"
