#!/usr/bin/env bash
# Non-test source lines per crate: every crates/*/src/**/*.rs counted up
# to its first `#[cfg(test)]` (unit tests sit at the end of a file here).
#
#   scripts/loc.sh            the working tree
#   scripts/loc.sh <git-ref>  the same for that commit beside it, and the
#                             delta — per crate, then per file that moved
#
# The ref is unpacked with `git archive` under target/loc/ (as
# bench_pairs.sh does: no worktree is registered, nothing to prune).
set -euo pipefail
cd "$(dirname "$0")/.."

# "<lines> <crate>/src/<file>" for every source file under $1/crates.
count() {
    (cd "$1/crates" && find . -path './*/src/*' -name '*.rs' | sort | while read -r f; do
        printf '%d %s\n' "$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")" "${f#./}"
    done)
}

if [ $# -eq 0 ]; then
    count . | awk '
        { split($2, p, "/"); n[p[1]] += $1; total += $1 }
        END {
            for (c in n) printf "%-14s %6d\n", c, n[c] | "sort"
            close("sort")
            printf "%-14s %6d\n", "total", total
        }'
    exit 0
fi

ref=$1
work=$PWD/target/loc
rm -rf "$work"
mkdir -p "$work"
git archive "$ref" crates | tar -x -C "$work"

# Lines are "<ref-lines> <tree-lines> <file>", a side without the file 0.
join -a 1 -a 2 -e 0 -o 1.2,2.2,0 -1 1 -2 1 \
    <(count "$work" | awk '{ print $2, $1 }' | sort) \
    <(count . | awk '{ print $2, $1 }' | sort) |
    awk -v ref="$ref" '
        {
            split($3, p, "/"); c = p[1]
            was[c] += $1; now[c] += $2; twas += $1; tnow += $2
            if ($1 != $2) moved[++m] = sprintf("  %-34s %6d %6d %+6d", $3, $1, $2, $2 - $1)
        }
        END {
            printf "%-14s %8s %8s %7s\n", "crate", ref, "tree", "delta"
            for (c in now) printf "%-14s %8d %8d %+7d\n", c, was[c], now[c], now[c] - was[c] | "sort"
            close("sort")
            printf "%-14s %8d %8d %+7d\n", "total", twas, tnow, tnow - twas
            if (m) print "files that moved:"
            for (i = 1; i <= m; i++) print moved[i]
        }'
