#!/usr/bin/env bash
# Regenerate one of the four artifacts crates/bench still owns (wall-clock
# performance is benchmark/run.sh's job, not this script's):
#
#   scripts/bench.sh figures   results/figures.txt — the stdout of the
#                              figure binaries fig4 fig5 fig9 fig10 space
#                              ablation, each under a `=== <bin> ===`
#                              header (≈ 90 s, fig5 most of it). Fig 6 is
#                              wall-clock and is not in the file: run
#                              `cargo run --release -p swat-bench --bin
#                              fig6` and record it in EXPERIMENTS.md
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
# figures, chaos and repair are functions of the seed: two runs are
# byte-identical, and scripts/check.sh holds the committed files to `cmp` —
# rerun this after changing the code they exercise and commit the result.
# Extra flags (--quick, --seed, --out, … see `swat help`) are forwarded to
# the three `swat` commands; figures takes only `--out FILE` (the seed is
# SWAT_SEED, as for every figure binary).
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
figures)
    out=results/figures.txt
    if [ "${2:-}" = --out ]; then out=$3; fi
    cargo build --release -q -p swat-bench
    for bin in fig4 fig5 fig9 fig10 space ablation; do
        echo "=== $bin ==="
        "target/release/$bin"
    done >"$out"
    exit
    ;;
chaos) cmd=chaos ;;
repair) cmd=repair-bench ;;
failover) cmd=failover-bench ;;
*)
    echo "usage: scripts/bench.sh <figures|chaos|repair|failover> [flags]" >&2
    exit 2
    ;;
esac
name=$1
shift
cargo run --release -q -p swat-cli -- "$cmd" --out "results/BENCH_$name.json" "$@"
