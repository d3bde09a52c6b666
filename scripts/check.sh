#!/usr/bin/env bash
# Full local gate: formatting, lints, the tier-1 build+test cycle and every
# smoke, as one table. Run from anywhere; the script cds to the repo root.
#
# A row is three strings: a name, a command, and a gate. The loop at the
# bottom prints the name, runs the command with its output in
# target/check/<name>.log, then runs the gate (`grep -q` patterns over what
# the command wrote, or `cmp` against a committed artifact; empty = the exit
# status is the gate). Either failing tails the log and stops. Add a check by
# adding a row.
set -euo pipefail
cd "$(dirname "$0")/.."

SWAT=target/release/swat

# 2-node TCP cluster over the release binaries: ingest, point, top-k and
# status through `swat client`, then SIGTERM both nodes — the leader must
# drain and the replica must checkpoint — and a restart of the replica for
# another stream count must be refused. Runs in its row's subshell, which
# is what the EXIT trap and the plain variables are scoped to.
daemon_smoke() {
    dir=$(mktemp -d)
    trap 'kill "${leader_pid:-}" "${replica_pid:-}" 2>/dev/null || true; rm -rf "$dir"' EXIT
    target/release/swatd --role replica --shard 0 --shards 1 --streams 4 \
        --window 16 --dir "$dir/store" \
        --port-file "$dir/replica.addr" >"$dir/replica.log" &
    replica_pid=$!
    for _ in $(seq 100); do [ -s "$dir/replica.addr" ] && break; sleep 0.05; done
    target/release/swatd --role leader --shards 1 --streams 4 \
        --window 16 --replica "$(head -n1 "$dir/replica.addr")" \
        --port-file "$dir/leader.addr" >"$dir/leader.log" &
    leader_pid=$!
    for _ in $(seq 100); do [ -s "$dir/leader.addr" ] && break; sleep 0.05; done
    $SWAT client --addr "$(head -n1 "$dir/leader.addr")" \
        --ingest 1,2,3,4 --ingest 5,6,7,8 \
        --point 0:0 --top-k 2 --status | tee "$dir/client.log"
    grep -q 'applied req_id=0 duplicate=false' "$dir/client.log"
    grep -q 'applied req_id=1 duplicate=false' "$dir/client.log"
    grep -q '^point\[0:0\]: value=' "$dir/client.log"
    grep -q '^top-k\[2\]: complete' "$dir/client.log"
    if grep -Eq 'DEGRADED|OVERLOADED|UNAVAILABLE|ERROR' "$dir/client.log"; then
        echo "daemon smoke: a request degraded on a healthy cluster" >&2
        return 1
    fi
    kill -TERM "$leader_pid" && wait "$leader_pid"
    kill -TERM "$replica_pid" && wait "$replica_pid"
    cat "$dir/replica.log" "$dir/leader.log"
    grep -q 'checkpointed: true' "$dir/replica.log"
    grep -q 'swatd: drained' "$dir/leader.log"
    # The drained store holds 4 streams: reopening it for 5 must be a
    # typed refusal at startup, not a server misreading its rows.
    status=0
    timeout 10 target/release/swatd --role replica --shard 0 --shards 1 \
        --streams 5 --window 16 --dir "$dir/store" \
        --port-file "$dir/wrong.addr" >"$dir/wrong.log" 2>&1 || status=$?
    cat "$dir/wrong.log"
    if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
        echo "daemon smoke: swatd served a 4-stream store as 5 (exit $status)" >&2
        return 1
    fi
    grep -q 'store directory mismatch: placement' "$dir/wrong.log"
}

ROWS=(
    "fmt"
    "cargo fmt --check"
    ""

    "clippy"
    "cargo clippy --workspace --all-targets -- -D warnings"
    ""

    # Every intra-doc link resolves: a deleted item a doc comment still
    # names fails here.
    "docs"
    "RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --offline"
    ""

    "tier-1"
    "cargo build --release && cargo test -q"
    ""

    # benchmark/ is a package of its own outside the workspace and calls the
    # daemon's planning, merging and server API by name: an API break fails
    # here, not after every smoke.
    "benchmark build"
    "cargo build --release --offline --manifest-path benchmark/Cargo.toml"
    ""

    # Every crate's tests, then the swat + swatd release binaries the
    # smokes below drive.
    "workspace tests"
    "cargo test -q --workspace && cargo build --release -p swat-cli"
    ""

    # Blocked path vs frozen scalar reference: bit-identity, and a
    # zero-allocation steady state.
    "ingest equivalence"
    "cargo test -q -p swat-tree --test ingest_equivalence && cargo test -q -p swat-tree --test ingest_alloc"
    ""

    # Slot order, steadiness and the equivalence suites optimized — what
    # the benchmark runs; no debug_assert — the growing tree's included,
    # so its grow step's lane resize runs as optimized code. The lane
    # merge against the scalar merge too: the lanes are where the
    # optimizer vectorizes; and the scalar merge's own tests, the literal
    # zero-pad cases and the one-summary instance of the merge core. And
    # the truncated Haar walk every query runs against the full walk, bit
    # for bit over signed zeros, one lane and sixteen, as optimized code;
    # the set pass's own unit tests, whose lanes vectorize too; the
    # lane-major storage's unit tests (the range lanes against f64::min
    # and max on signed-zero ties among them); the pinned snapshot bytes and
    # digests, as the optimized writers produce them; and the sharded
    # top-k against its brute-force ranking with the row-floor test, a
    # loop the optimizer vectorizes, beside its own unit tests. Then the
    # blocked cascade's own unit tests — the chunk schedule, the prefix a
    # merge reads of its children and the smoke test against the frozen
    # reference — on the codegen that ships.
    "release equivalence"
    "cargo test -q --release -p swat-tree --test steady --test ingest_equivalence --test query_equivalence --test golden --test growing_equivalence --test shard_properties &&
     cargo test -q --release -p swat-wavelet --lib topk &&
     cargo test -q --release -p swat-wavelet --lib block &&
     cargo test -q --release -p swat-wavelet --lib coeffs &&
     cargo test -q --release -p swat-wavelet --lib haar:: &&
     cargo test -q --release -p swat-tree --lib scratch:: &&
     cargo test -q --release -p swat-tree --lib block:: &&
     cargo test -q --release -p swat-tree --lib ingest::"
    ""

    # Every CRC-32 path this CPU has, as the benchmark runs it: debug builds
    # run the same code, not the same codegen. The gate wants the line that
    # names the paths the tests called, so the log records what this host
    # checked (a path its CPU lacks is named as skipped).
    "release crc32"
    "cargo test -q --release -p swat-tree --lib codec -- --nocapture"
    "grep -q 'crc32 paths tested: portable' target/check/release-crc32.log"

    # The wire codec optimized: the stack a decode needs (the nested-fence
    # frame) and the bulk row paths are release-build behaviour.
    "release codec"
    "cargo test -q --release -p swat-daemon --test frame_fuzz && cargo test -q --release -p swat-daemon --lib proto::"
    ""

    # The two simulator artifacts are counts, a function of the seed: the
    # full sweeps must reproduce the committed files byte for byte. After a
    # deliberate simulator change, scripts/bench.sh chaos|repair and commit.
    "chaos artifact"
    "$SWAT chaos --out target/check/BENCH_chaos.json"
    "cmp target/check/BENCH_chaos.json results/BENCH_chaos.json"

    "repair artifact"
    "$SWAT repair-bench --out target/check/BENCH_repair.json"
    "cmp target/check/BENCH_repair.json results/BENCH_repair.json"

    # Every figure but the wall-clock Fig 6 is a function of the seed too
    # (≈ 90 s, fig5 most of it). After a deliberate change of the numbers,
    # scripts/bench.sh figures, commit, and restate EXPERIMENTS.md.
    "figures artifact"
    "scripts/bench.sh figures --out target/check/figures.txt"
    "cmp target/check/figures.txt results/figures.txt"

    # Segment/manifest/WAL corruption: typed error or verified prefix only.
    "store fuzz"
    "cargo test -q -p swat-store --test corruption_fuzz"
    ""

    # Every fault kind at every step of the flush schedule (segment write,
    # manifest commit) and of the WAL schedule, digests bit-exact, the cell
    # count printed; then the unit tests of retention (what a flush may
    # delete), of the fall-back onto the older snapshot and of the one
    # double fault that costs rows.
    "crash points"
    "cargo test -q -p swat-store --test crash_points -- --nocapture && cargo test -q -p swat-store --lib -- manifest:: recovery::"
    "grep -q 'flush domain: .* cells' target/check/crash-points.log && grep -q 'WAL domain: .* cells' target/check/crash-points.log"

    # Two snapshots and a WAL tail on disk, set + two snapshot buffers on
    # the heap, a constant number of descriptors with no sync(): release
    # mode, because debug builds run the same code, not the same
    # allocation pattern. Then the store's unit tests optimized — a crash
    # at every residue of the 64-row tile, freezes with rows held, the
    # &self digest of a holding store — and 200 runs of the parked-
    # snapshot test, whose status() once saw the new commit point beside
    # the fault it cleared.
    "store"
    "cargo test --release -q -p swat-store --test store_bounds &&
     cargo test --release -q -p swat-store --lib -- store:: &&
     bin=\$(cargo test --release -p swat-store --lib --no-run 2>&1 | sed -n 's/.*Executable.*(\\(.*\\))\$/\\1/p') &&
     for _ in \$(seq 200); do \"\$bin\" --exact --quiet store::tests::a_newer_snapshot_supersedes_a_parked_one; done"
    ""

    "daemon smoke"
    "daemon_smoke"
    ""

    # Release mode, the timings the deadlines meet in production: the
    # finiteness pass every row gets (multi::, a loop the optimizer
    # vectorizes), the buffered transport — frames lent from the read
    # buffer, a long one's growth given back, frames encoded into the
    # write queue — the coalesced fan-out and its scripted-peer
    # failure cases, the driver's loops over the scripted fabric and in the
    # simulator, the leader's merges (the top-k and the ingest ack rule),
    # the raw-socket connection-worker tests and the 2 000-row
    # ring run of tcp_cluster; every holding's clock-aligned tiles — the
    # TiledSet itself, a standby promoted and a primary (in memory and
    # durable) read at every residue mod 64 against a row-by-row twin,
    # exported and installed, duplicates and refused rows inside a tile,
    # the unpersisted-promote/install rollbacks — and warm standby and
    # durable primary rows, and a warm connection's frames in and answers
    # out, under the counting allocator; a real swatd sole
    # holder SIGKILLed and recovered with every acked row; then the
    # freezing push_row under the counting allocator and extend_rows
    # against the push_row loop.
    "fan-out holdings freeze"
    "cargo test --release -q -p swat-tree --lib multi:: &&
     cargo test --release -q -p swat-daemon --lib -- transport:: client:: driver:: sim:: replica:: node:: cluster:: &&
     cargo test --release -q -p swat-daemon --test sim_oracle --test standby_equivalence --test holding_alloc &&
     cargo test --release -q -p swat-daemon --test tcp_cluster &&
     cargo test --release -q -p swat-cli --test sole_holder_kill &&
     cargo test --release -q -p swat-store --test freeze_alloc &&
     cargo test --release -q -p swat-tree --test ingest_equivalence extend_rows"
    ""

    # Kills the leader of a real-TCP failover cluster mid-run; the command
    # itself fails unless a survivor claims a new term, every retried row
    # re-acks, and the recovered cluster answers bit-exactly.
    "failover smoke"
    "$SWAT failover-bench --quick --out target/check/failover-smoke.json"
    "grep -q '\"bench\": \"failover\"' target/check/failover-smoke.json &&
     grep -q '\"recovered\": true' target/check/failover-smoke.json &&
     grep -q '\"zero_wrong_answers\": true' target/check/failover-smoke.json"

    # benchmark/'s own tests pin the declared-vs-emitted metric schema;
    # --quick drives all four workloads, untraced and traced, and exits
    # non-zero on a wrong answer or a failed op.
    "benchmark smoke"
    "cargo test --release --offline -q --manifest-path benchmark/Cargo.toml && benchmark/run.sh --quick"
    ""
)

mkdir -p target/check
passed=()
for ((i = 0; i < ${#ROWS[@]}; i += 3)); do
    name=${ROWS[i]} cmd=${ROWS[i + 1]} gate=${ROWS[i + 2]}
    log=target/check/${name// /-}.log
    echo "== $name =="
    # Not `if ! (…)`: bash ignores `set -e` inside a tested command, and
    # daemon_smoke relies on it.
    set +e
    (set -e; eval "$cmd") >"$log" 2>&1
    status=$?
    set -e
    if [ "$status" -ne 0 ]; then
        tail -n 60 "$log" >&2
        echo "FAILED: $name (exit $status; full log: $log)" >&2
        exit 1
    fi
    if [ -n "$gate" ] && ! eval "$gate"; then
        tail -n 60 "$log" >&2
        echo "FAILED: $name — gate: $gate" >&2
        exit 1
    fi
    passed+=("$name")
done

printf -v list '%s, ' "${passed[@]}"
echo "OK: ${list%, } all green"
