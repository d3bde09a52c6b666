#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh                     every workload, untraced and traced,
#                                        every metric printed by name and unit
#   benchmark/run.sh --quick             the same on toy shapes, under 10 s
#   benchmark/run.sh --repeat 3 --out f  three result sets into f (--append: add
#                                        to f; fill two files in turns to
#                                        interleave them in time)
#   benchmark/run.sh agree A.json B.json hold two result files against the
#                                        bounds in BENCHMARK.json
#   benchmark/run.sh --workload wire-ingest --seed 7 --seconds 20 --trace 0
#                                        one run, as BENCHMARK.json's command
#                                        starts it; last stdout line is JSON
set -euo pipefail
cd "$(dirname "$0")/.."

# Offline and out of the root workspace: benchmark/ has its own manifest
# and lock file. CARGO_TARGET_DIR is honoured when the caller sets it.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/swat-benchmark"

# One CPU for everything: node threads, clients, flushers. On this kind of
# host a wake-up that crosses CPUs costs a VM exit, and whether it does is
# the scheduler's whim, which made the same binary read 1 800 or 11 000
# rows/s. Pinned, every hop is a context switch on one CPU and the figures
# repeat. No parallel speed-up can show this way, and none is claimed.
pin=()
if command -v taskset >/dev/null; then
  cpu="$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')"
  taskset -c "$cpu" true 2>/dev/null && pin=(taskset -c "$cpu")
fi

case "${1:-}" in
  "" | --quick | --repeat | --seed | --seconds | --out | --append) set -- all "$@" ;;
esac

# Keep that CPU awake. Whenever the benchmark sleeps (a node blocked on a
# socket, the open-loop generator waiting for its next due time) the
# virtual CPU halts; waking it costs a VM exit, and a CPU that idles often
# drops to a slower clock for seconds at a time. A busy loop in the idle
# scheduling class runs only while nothing else wants the CPU and yields
# the moment anything does. With it, ten runs of one workload spread by a
# few per cent instead of fifteen to thirty. It watches this script and
# ends by itself should the script be killed.
spinner=
if [ ${#pin[@]} -gt 0 ] && [ "$1" != agree ] && command -v chrt >/dev/null; then
  "${pin[@]}" chrt -i 0 bash -c \
    'while kill -0 "$1" 2>/dev/null; do for ((i = 0; i < 200000; i++)); do :; done; done' _ $$ &
  spinner=$!
fi
stop_spinner() {
  if [ -n "$spinner" ]; then
    kill "$spinner" 2>/dev/null || true
    wait "$spinner" 2>/dev/null || true
  fi
}
trap stop_spinner EXIT

# Not `exec`: the trap has to run. The script's exit code is the binary's.
status=0
"${pin[@]}" "$bin" "$@" || status=$?
exit "$status"
