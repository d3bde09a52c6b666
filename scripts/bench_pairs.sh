#!/usr/bin/env bash
# Paired benchmark runs, parent against working tree: the ten-pair rule of
# the choosing-metrics guide as one command.
#
#   scripts/bench_pairs.sh <workload> <parent-ref> [pairs=10]
#
# Unpacks <parent-ref> under target/bench-pairs/ (`git archive`: no
# worktree is registered, nothing to prune afterwards), then runs
#   benchmark/run.sh --workload W --seed S --seconds 20 --trace 0
# on both sides with a fresh seed per pair, alternating which side goes
# first. Per run it prints `failed`/`correct`/`attempted` and the
# `ingest:` line of stderr (`push_row:` on lib-store) — rows acked, the
# per-chunk rate median, p99 median and the slowest acked row; at the
# end, per end-to-end
# metric of BENCHMARK.json, each side's median and quartiles and the pairs
# the tree won (ties count for neither). It only calls the benchmark;
# every result line is kept in target/bench-pairs/<side>.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: scripts/bench_pairs.sh <workload> <parent-ref> [pairs=10]" >&2
    exit 2
fi
workload=$1
ref=$2
pairs=${3:-10}

work=$PWD/target/bench-pairs
rm -rf "$work/parent"
mkdir -p "$work/parent"
git archive "$ref" | tar -x -C "$work/parent"
: >"$work/parent.jsonl"
: >"$work/tree.jsonl"

# One run of one side; appends its result line to <side>.jsonl.
run_side() {
    local side=$1 seed=$2 root=$PWD
    [ "$side" = parent ] && root=$work/parent
    if ! CARGO_TARGET_DIR="$work/$side-target" bash "$root/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds 20 --trace 0 \
        >"$work/out" 2>"$work/err"; then
        echo "  $side run exited non-zero; its stderr follows" >&2
        tail -n 20 "$work/err" >&2
    fi
    local line
    line=$(tail -n 1 "$work/out")
    case "$line" in
        "{"*) echo "$line" >>"$work/$side.jsonl" ;;
        *)
            echo "  $side printed no result line" >&2
            exit 1
            ;;
    esac
    local failed correct attempted chunks
    failed=$(sed -n 's/.*"failed": \([0-9]*\).*/\1/p' <<<"$line")
    correct=$(sed -n 's/.*"correct": \([a-z]*\).*/\1/p' <<<"$line")
    attempted=$(sed -n 's/.*"attempted": \([0-9]*\).*/\1/p' <<<"$line")
    chunks=$(sed -n 's/^ *\(ingest\|push_row\): //p' "$work/err" | head -n 1)
    printf '  %-6s failed %s correct %s attempted %s; %s\n' \
        "$side" "$failed" "$correct" "$attempted" "${chunks:-?}"
}

# The value of metric $2 on every line of file $1, one per line.
values() {
    sed -n 's/.*"'"$2"'": {"unit": "[^"]*", "value": \([-0-9.eE+]*\)}.*/\1/p' "$1"
}

# "median [q1, q3]" of the numbers on stdin (quartiles interpolated).
spread() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) {
            h = (NR - 1) * p + 1; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        END { if (NR) printf "%.5g [%.5g, %.5g]", q(0.5), q(0.25), q(0.75) }'
}

base=$RANDOM
echo "bench_pairs: $workload, parent $ref, $pairs pairs, seeds from $base, nproc $(nproc)"
for ((i = 1; i <= pairs; i++)); do
    seed=$((base + i))
    echo "pair $i, seed $seed"
    if ((i % 2)); then
        run_side parent "$seed"
        run_side tree "$seed"
    else
        run_side tree "$seed"
        run_side parent "$seed"
    fi
done

echo
printf '%-16s %-7s %-34s %-34s %s\n' metric better "parent median [q1, q3]" "tree median [q1, q3]" "tree wins"
sed -n '/"end_to_end"/,/\]/s/.*"name": "\([^"]*\)".*"better": "\([^"]*\)".*/\1 \2/p' BENCHMARK.json |
    while read -r metric better; do
        wins=$(paste <(values "$work/parent.jsonl" "$metric") <(values "$work/tree.jsonl" "$metric") |
            awk -v better="$better" '
                $1 != $2 { decided++; if ((better == "higher") == ($2 > $1)) won++ }
                END { printf "%d of %d", won, decided }')
        printf '%-16s %-7s %-34s %-34s %s\n' "$metric" "$better" \
            "$(values "$work/parent.jsonl" "$metric" | spread)" \
            "$(values "$work/tree.jsonl" "$metric" | spread)" "$wins"
    done
