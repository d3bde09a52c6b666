//! The four workloads, by the names `BENCHMARK.json` fixes, and the two
//! passes over each: the untraced one that gives the end-to-end metrics
//! and the traced one that gives the per-layer metrics.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use swat_daemon::{encode_request, encode_response, Request, Response};
use swat_tree::shard_members;

use crate::gen::{wire_queries, RowGen};
use crate::inline::{self, Stage, StageTimes};
use crate::json::Json;
use crate::libstore;
use crate::stats::{median, peak_rss_mb, quiet_p50, HostSnapshot, Phase, Samples};
use crate::wire::{timed_restart, ClosedPlan, MixedPlan, QueryPhase, Shape, Tally, Wire, WorkDir};

pub const WORKLOADS: [&str; 4] = ["wire-ingest", "wire-wide", "wire-mixed", "lib-store"];

/// `run_seconds` of `BENCHMARK.json`; the fixed op counts of the traced
/// pass are stated for this length and scaled with `--seconds`.
pub const NOMINAL_SECONDS: f64 = 20.0;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Human-readable lines for the report: diagnostics that are not
    /// metrics (sample counts, tails, the budget table).
    pub notes: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn correct(&self) -> bool {
        self.tally.clean() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line result the driver reads.
    pub fn result_line(&self) -> String {
        let field = |name: &str, value: Json| (name.to_owned(), value);
        let metrics = self.metrics.iter().map(|m| {
            let entry = [
                field("value", Json::Num(m.value)),
                field("unit", Json::Str(m.unit.to_owned())),
            ];
            (m.name.clone(), Json::Obj(entry.into()))
        });
        let failed = self.tally.failed + self.tally.wrong;
        Json::Obj(
            [
                field("correct", Json::Bool(self.correct())),
                field("attempted", Json::Num(self.tally.attempted.max(1) as f64)),
                field("failed", Json::Num(failed as f64)),
                field("metrics", Json::Obj(metrics.collect())),
            ]
            .into(),
        )
        .to_string()
    }
}

/// One workload's shape and sizes. Every count that is not timed is fixed
/// here, so two runs of one seed do the same work.
struct Spec {
    shape: Shape,
    /// Cluster (or store) bring-ups per run; `setup_s` is their median.
    setup_reps: usize,
    /// Rows per timed ingest chunk.
    chunk_rows: usize,
    /// Rows in when the peak resident set is read.
    mark_rows: usize,
    /// Rows and queries the inline arm replays at `NOMINAL_SECONDS`.
    inline_rows: usize,
    inline_queries: usize,
    /// `wire-mixed` only: the open-loop rate and connection B's pause.
    mixed: Option<(f64, Duration)>,
}

/// The cluster of `wire-ingest` and `wire-mixed`.
const NARROW: Shape = Shape {
    streams: 64,
    shards: 3,
    window: 256,
};

fn spec(workload: &str, quick: bool) -> Option<Spec> {
    let full = full_spec(workload)?;
    if !quick {
        return Some(full);
    }
    // `--quick`: the same code paths and metric names on shapes small
    // enough for a smoke test; the numbers mean nothing.
    let shrink = |s: Shape| Shape {
        streams: s.streams / 8,
        shards: s.shards,
        window: s.window / 8,
    };
    Some(Spec {
        shape: shrink(full.shape),
        setup_reps: 2,
        chunk_rows: 50,
        mark_rows: 0,
        inline_rows: full.inline_rows / 4,
        inline_queries: full.inline_queries / 4,
        mixed: full.mixed,
    })
}

fn full_spec(workload: &str) -> Option<Spec> {
    Some(match workload {
        "wire-ingest" => Spec {
            shape: NARROW,
            setup_reps: 5,
            chunk_rows: 1_000,
            mark_rows: 40_000,
            inline_rows: 20_000,
            inline_queries: 5_000,
            mixed: None,
        },
        "wire-wide" => Spec {
            shape: Shape {
                streams: 2048,
                shards: 2,
                window: 1024,
            },
            setup_reps: 2,
            chunk_rows: 250,
            mark_rows: 3_000,
            inline_rows: 1_200,
            inline_queries: 2_000,
            mixed: None,
        },
        "wire-mixed" => Spec {
            shape: NARROW,
            setup_reps: 5,
            chunk_rows: 1_000,
            mark_rows: 0,
            inline_rows: 8_000,
            inline_queries: 32_000,
            mixed: Some((1_000.0, Duration::from_micros(100))),
        },
        // The traced pass puts lib-store's shape behind a one-shard
        // cluster, so the same layers are measured on it as on the wire
        // workloads and the kernel-to-wire gap can be read off directly.
        "lib-store" => Spec {
            shape: libstore::SHAPE,
            setup_reps: 5,
            chunk_rows: 250,
            mark_rows: 10_000,
            inline_rows: 2_000,
            inline_queries: 2_000,
            mixed: None,
        },
        _ => return None,
    })
}

fn work_root() -> PathBuf {
    PathBuf::from("benchmark/work")
}

/// Scratch directories of runs that were killed before they could clean
/// up: remove those whose process is gone.
fn sweep_stale_work(root: &Path) {
    for entry in std::fs::read_dir(root).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let pid = name.split('-').nth(1).and_then(|p| p.parse::<u32>().ok());
        if pid.is_some_and(|p| !Path::new(&format!("/proc/{p}")).exists()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Run one workload. `None` for a name `BENCHMARK.json` does not list.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    results: &Path,
) -> Option<Outcome> {
    let spec = spec(workload, quick)?;
    sweep_stale_work(&work_root());
    let out = match (trace, workload) {
        (true, _) => traced(workload, &spec, seed, seconds, results),
        (false, "lib-store") => lib_store(&spec, seed, seconds),
        (false, _) => wire_untraced(&spec, seed, seconds),
    };
    // Only succeeds once every run's scratch directory is gone.
    let _ = std::fs::remove_dir(work_root());
    Some(out)
}

struct Setup {
    wire: Wire,
    _dir: WorkDir,
    setup_s: Vec<f64>,
    restart_ms: Vec<f64>,
}

/// Bring the cluster up `reps` times. Every cluster but the last is
/// killed and each of its shard primaries restarted from its directory
/// (the crash-recovery time of a node holding the warm-up rows); the last
/// one is the cluster the workload runs on.
fn set_up(shape: Shape, seed: u64, reps: usize) -> Setup {
    let mut setup_s = Vec::new();
    let mut restart_ms = Vec::new();
    let mut tally = Tally::default();
    for rep in 1.. {
        let dir = WorkDir::create(&work_root(), "wire").expect("work directory");
        let t0 = Instant::now();
        let mut wire = Wire::start(shape, seed, dir.path()).expect("cluster comes up");
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep >= reps {
            wire.tally.absorb(tally);
            return Setup {
                wire,
                _dir: dir,
                setup_s,
                restart_ms,
            };
        }
        let Wire {
            cluster,
            oracle,
            tally: warm,
            ..
        } = wire;
        tally.absorb(warm);
        for (shard, dir) in cluster.kill().iter().enumerate() {
            restart_ms.push(timed_restart(&shape, shard, dir, &oracle, &mut tally));
        }
    }
    unreachable!("the loop returns on its last repetition")
}

/// What the wire side of a workload measured, whichever pass asked.
struct WireRun {
    tally: Tally,
    setup_s: Vec<f64>,
    restart_ms: Vec<f64>,
    rows_per_s: f64,
    ingest_p50_us: f64,
    ingest_p99_us: f64,
    queries: QueryPhase,
    rss_mb: f64,
    lag_p99_us: f64,
    notes: Vec<String>,
}

/// Set up, drive the workload over the wire for about `seconds`, sweep,
/// stop, and restart every primary from what it left on disk.
fn wire_run(spec: &Spec, seed: u64, seconds: f64, setup_reps: usize) -> WireRun {
    let shape = spec.shape;
    let Setup {
        mut wire,
        _dir,
        setup_s,
        restart_ms,
    } = set_up(shape, seed, setup_reps);
    let queries = wire_queries(seed, shape.streams, shape.window, 1 << 14);
    let mut notes = Vec::new();

    let (rows_per_s, ingest_p50_us, ingest_p99_us, query_phase, rss_mb, lag_p99_us);
    if let Some((rate_per_s, think)) = spec.mixed {
        let plan = MixedPlan {
            rate_per_s,
            seconds,
            think,
            chunk: 500,
        };
        let mixed = wire.mixed(&plan, &queries);
        let a = &mixed.ingest;
        let all = Samples::new(a.latencies_us.clone());
        let lag = Samples::new(a.lag_us.clone());
        rows_per_s = a.latencies_us.len() as f64 / a.seconds;
        ingest_p50_us = quiet_p50(&a.latencies_us, rate_per_s as usize / 4);
        let per_second: Vec<f64> = a
            .latencies_us
            .chunks(rate_per_s as usize)
            .map(|c| Samples::new(c.to_vec()).percentile(0.99))
            .collect();
        ingest_p99_us = median(&per_second);
        lag_p99_us = lag.percentile(0.99);
        rss_mb = peak_rss_mb();
        let (q, tail) = all.highest_supported();
        notes.push(format!(
            "ingest: open loop at {rate_per_s} rows/s, {} rows, latency from due time: p50 {:.1} us, p{} {tail:.1} us, max {:.1} us; generator lag p50 {:.1} us",
            all.len(),
            all.median(),
            q * 100.0,
            all.max(),
            lag.median()
        ));
        notes.push(format!(
            "queries: closed loop with {} us think time; {} top-k answers raced a row and were checked for `complete` only",
            think.as_micros(),
            mixed.unchecked_topk
        ));
        query_phase = mixed.queries;
    } else {
        let plan = ClosedPlan {
            budget: Duration::from_secs_f64(seconds),
            chunk_rows: spec.chunk_rows,
            chunk_queries: 2 * spec.chunk_rows.max(500),
            mark_rows: spec.mark_rows,
        };
        let closed = wire.closed_loop(&plan, &queries);
        rows_per_s = closed.ingest.quiet_per_s();
        ingest_p50_us = closed.ingest.quiet_p50_us();
        ingest_p99_us = closed.ingest.p99_us();
        lag_p99_us = 0.0;
        rss_mb = closed.rss_mb;
        notes.push(phase_note("ingest", "rows", &closed.ingest));
        query_phase = closed.queries;
    }
    notes.push(phase_note("queries", "queries", &query_phase.phase));
    wire.sweep();

    let Wire {
        cluster,
        oracle,
        mut tally,
        ..
    } = wire;
    // Every acked row must also be on disk: stop, and restart each
    // primary from its directory alone.
    match cluster.stop() {
        Some(dirs) => {
            for (shard, dir) in dirs.iter().enumerate() {
                timed_restart(&shape, shard, dir, &oracle, &mut tally);
            }
        }
        None => tally.failed += 1,
    }
    WireRun {
        tally,
        setup_s,
        restart_ms,
        rows_per_s,
        ingest_p50_us,
        ingest_p99_us,
        queries: query_phase,
        rss_mb,
        lag_p99_us,
        notes,
    }
}

fn phase_note(label: &str, unit: &str, p: &Phase) -> String {
    format!(
        "{label}: {} {unit} in {} chunks; per chunk: rate median {:.0}/s best {:.0}/s, p50 median {:.1} us best {:.1} us, p99 median {:.1} us, max {:.1} us",
        p.ops(),
        p.chunks.len(),
        p.per_s(),
        p.quiet_per_s(),
        p.p50_us(),
        p.quiet_p50_us(),
        p.p99_us(),
        p.max_us()
    )
}

fn wire_untraced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let r = wire_run(spec, seed, seconds, spec.setup_reps);
    let mut out = Outcome {
        tally: r.tally,
        notes: r.notes,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "restart of a killed primary holding the warm-up rows: {} samples, median {:.1} ms",
        r.restart_ms.len(),
        median(&r.restart_ms)
    ));
    out.put("setup_s", median(&r.setup_s), "s");
    out.put("rows_per_s", r.rows_per_s, "rows/s");
    out.put("ingest_p50_us", r.ingest_p50_us, "us");
    out.put("queries_per_s", r.queries.phase.quiet_per_s(), "queries/s");
    out.put("query_p50_us", r.queries.phase.quiet_p50_us(), "us");
    out.put("peak_rss_mb", r.rss_mb, "MB");
    out
}

fn lib_store(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let r = libstore::run(
        spec.shape,
        seed,
        seconds,
        &work_root(),
        &libstore::Sizes {
            setup_reps: spec.setup_reps,
            chunk_rows: spec.chunk_rows,
            chunk_queries: 100.min(spec.chunk_rows),
            mark_rows: spec.mark_rows,
        },
    );
    let mut out = Outcome {
        tally: r.tally,
        ..Outcome::default()
    };
    out.notes.push(phase_note("push_row", "rows", &r.ingest));
    out.notes.push(phase_note("battery", "queries", &r.queries));
    out.notes.push(format!(
        "store: {} stalls over 1 ms, {} flushes, {} compactions, {} segments, {:.0} B on disk per row, drain {:.0} us; {} crash-recover cycles replayed {} WAL rows, {:.1} ms median",
        r.stalls,
        r.flushes,
        r.compactions,
        r.segments,
        r.disk_bytes_per_row,
        r.checkpoint_us,
        r.recover_ms.len(),
        r.wal_rows_replayed,
        median(&r.recover_ms)
    ));
    out.put("setup_s", median(&r.setup_s), "s");
    out.put("rows_per_s", r.ingest.quiet_per_s(), "rows/s");
    out.put("ingest_p50_us", r.ingest.quiet_p50_us(), "us");
    out.put("queries_per_s", r.queries.quiet_per_s(), "queries/s");
    out.put("query_p50_us", r.queries.quiet_p50_us(), "us");
    out.put("peak_rss_mb", r.rss_mb, "MB");
    out
}

/// The ops the inline arm replays: warm-up rows, then the workload's mix.
/// `wire-mixed` interleaves four queries after every row; the others
/// ingest first and query afterwards, as they do over the wire.
fn inline_ops(spec: &Spec, seed: u64, scale: f64) -> (Vec<Request>, Vec<Request>) {
    let shape = spec.shape;
    let mut rows = RowGen::new(seed, shape.streams);
    let mut next_id = 0u64;
    let mut ingest = |n: usize| -> Vec<Request> {
        (0..n)
            .map(|_| {
                next_id += 1;
                Request::Ingest {
                    req_id: next_id - 1,
                    row: rows.next_row(),
                }
            })
            .collect()
    };
    let warm = ingest(shape.warm_rows());
    let n_rows = ((spec.inline_rows as f64 * scale) as usize).max(50);
    let n_queries = ((spec.inline_queries as f64 * scale) as usize).max(50);
    let rows = ingest(n_rows);
    let queries = wire_queries(seed, shape.streams, shape.window, n_queries);
    let ops = if spec.mixed.is_some() {
        let per_row = n_queries.div_ceil(n_rows);
        let mut q = queries.into_iter();
        rows.into_iter()
            .flat_map(|r| std::iter::once(r).chain(q.by_ref().take(per_row).collect::<Vec<_>>()))
            .collect()
    } else {
        rows.into_iter().chain(queries).collect()
    };
    (warm, ops)
}

/// The traced pass. Runs the wire side briefly (the budget needs the wire
/// latency of the same minute), one transport hop in isolation, the
/// inline arm untraced and traced over the same ops, and the shadows.
fn traced(workload: &str, spec: &Spec, seed: u64, seconds: f64, results: &Path) -> Outcome {
    let host0 = HostSnapshot::take();
    let shape = spec.shape;
    let scale = seconds / NOMINAL_SECONDS;
    let mut out = Outcome::default();

    let wire = wire_run(spec, seed, seconds * 0.4, 1);
    out.tally.absorb(wire.tally);
    out.notes
        .extend(wire.notes.iter().map(|n| format!("wire: {n}")));

    let (warm, ops) = inline_ops(spec, seed, scale);
    let is_row = |r: &Request| matches!(r, Request::Ingest { .. });
    let row_ops: Vec<usize> = (0..ops.len()).filter(|&i| is_row(&ops[i])).collect();
    let query_ops: Vec<usize> = (0..ops.len()).filter(|&i| !is_row(&ops[i])).collect();

    // One hop at this workload's frame sizes: a leg (fenced sub-row of
    // shard 0 out, ack back) and the client's own (full row out).
    let members = shard_members(shape.streams, shape.shards, 0);
    let full_row = vec![0.5; shape.streams];
    let leg_frame = encode_request(&Request::Fenced {
        term: 0,
        leader: 0,
        shard: 0,
        epoch: 0,
        inner: Box::new(Request::Ingest {
            req_id: 0,
            row: full_row[..members.len()].to_vec(),
        }),
    });
    let client_frame = encode_request(&Request::Ingest {
        req_id: 0,
        row: full_row,
    });
    let ack_frame = encode_response(&Response::IngestOk {
        req_id: 0,
        duplicate: false,
        failed_shards: Vec::new(),
    });
    let hop_budget = Duration::from_secs_f64(seconds * 0.04);
    let hop = inline::transport_hops(&leg_frame, &ack_frame, hop_budget).expect("loopback echo");
    let client_hop =
        inline::transport_hops(&client_frame, &ack_frame, hop_budget).expect("loopback echo");

    let plain = inline::run_arm(&shape, &work_root(), &warm, &ops, false, &mut out.tally);
    let traced = inline::run_arm(&shape, &work_root(), &warm, &ops, true, &mut out.tally);
    let trace_path = results.join(format!("trace-{workload}.jsonl"));
    // The file holds the first ops in full; the statistics use them all.
    if let Err(e) = traced.tracer.write_jsonl(&trace_path, 2_000) {
        out.notes.push(format!("trace not written: {e}"));
    }
    let stages = StageTimes::of(&traced.tracer.spans, ops.len());

    let rows: Vec<&[f64]> = warm
        .iter()
        .chain(&ops)
        .filter_map(|r| match r {
            Request::Ingest { row, .. } => Some(row.as_slice()),
            _ => None,
        })
        .collect();
    let mut named = Vec::new();
    inline::shadows(&shape, &work_root(), &rows, &mut named, &mut out.tally);
    let shadow = |name: &str| {
        named
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };

    // ---- per-layer metrics -------------------------------------------
    let pick = |v: &[f64], at: &[usize]| -> Vec<f64> { at.iter().map(|&i| v[i]).collect() };
    let chunk = 200;
    let inline_row_us = quiet_p50(&pick(&plain.op_us, &row_ops), chunk);
    let inline_query_us = quiet_p50(&pick(&plain.op_us, &query_ops), chunk);
    let hop_us = hop.median();
    let client_hop_us = client_hop.median();
    let n_ops = ops.len() as f64;
    // Legs of an ingest are fixed by the assignment: one per primary and
    // one per standby.
    let legs_per_row = (shape.shards * if shape.standbys() { 2 } else { 1 }) as f64;

    out.put("transport.hop_us", hop_us, "us");
    out.put("transport.hop_p99_us", hop.percentile(0.99), "us");
    out.put("transport.client_hop_us", client_hop_us, "us");
    for stage in [
        Stage::EncodeRequest,
        Stage::DecodeRequest,
        Stage::EncodeResponse,
        Stage::DecodeResponse,
        Stage::Plan,
        Stage::Finish,
        Stage::Handle,
    ] {
        out.put(
            &format!("{}_us", stage.name()),
            stages.call_p50(stage),
            "us",
        );
    }
    out.put(
        "proto.bytes_per_op",
        traced.counts.bytes as f64 / n_ops,
        "B",
    );
    out.put(
        "proto.frames_per_op",
        traced.counts.frames as f64 / n_ops,
        "count",
    );
    out.put(
        "cluster.legs_per_op",
        traced.counts.legs as f64 / n_ops,
        "count",
    );
    out.put(
        "node.self_us",
        stages.call_p50(Stage::Handle) - shadow("replica.handle_us"),
        "us",
    );
    out.put("inline.op_us", inline_row_us, "us");
    out.put(
        "inline.op_p99_us",
        Samples::new(pick(&plain.op_us, &row_ops)).percentile(0.99),
        "us",
    );
    out.put("inline.query_us", inline_query_us, "us");
    out.put("inline.ops_per_s", n_ops / plain.seconds, "ops/s");
    out.put(
        "alloc.count_per_op",
        plain.allocs.allocations as f64 / n_ops,
        "count",
    );
    out.put("alloc.bytes_per_op", plain.allocs.bytes as f64 / n_ops, "B");
    for (name, value, unit) in &named {
        out.put(name, *value, unit);
    }
    let some_rows = &rows[..rows.len().min(4 * shape.window)];
    out.put("shard.topk_us", inline::topk_us(&shape, some_rows), "us");

    // The wire side of the same minute, and what is left of it once the
    // state machines and the hops are taken out: threads, locks, sockets.
    let q = &wire.queries;
    let kind = |i: usize| median(&q.kind_p50_us[i]);
    out.put("wire.rows_per_s", wire.rows_per_s, "rows/s");
    out.put("wire.ingest_p50_us", wire.ingest_p50_us, "us");
    out.put("wire.ingest_p99_us", wire.ingest_p99_us, "us");
    out.put("wire.query_p50_us", q.phase.quiet_p50_us(), "us");
    out.put("wire.query_p99_us", q.phase.p99_us(), "us");
    out.put("query.point_p50_us", kind(0), "us");
    out.put("query.range_p50_us", kind(1), "us");
    out.put("query.topk_p50_us", kind(2), "us");
    out.put("gen.lag_p99_us", wire.lag_p99_us, "us");
    let hops_us = legs_per_row * hop_us + client_hop_us;
    let overhead_us = wire.ingest_p50_us - inline_row_us - hops_us;
    out.put("server.overhead_us", overhead_us, "us");
    out.put(
        "server.overhead_frac",
        overhead_us / wire.ingest_p50_us,
        "ratio",
    );
    // A point query is one leg and the client's hop.
    out.put(
        "server.query_overhead_us",
        kind(0) - inline_query_us - hop_us - client_hop_us,
        "us",
    );

    // ---- the budget of one acked row ---------------------------------
    // The traced arm says in what proportions an op divides; the untraced
    // arm says how long it takes. Spans carry the cost of recording them,
    // so every self time is scaled back by the ratio of the two arms.
    let traced_row_us = quiet_p50(&pick(&traced.op_us, &row_ops), chunk);
    let own = |stage: Stage| stages.self_p50(stage, &row_ops) * inline_row_us / traced_row_us;
    let proto_us = own(Stage::EncodeRequest)
        + own(Stage::DecodeRequest)
        + own(Stage::EncodeResponse)
        + own(Stage::DecodeResponse);
    let cluster_us = own(Stage::Plan) + own(Stage::Finish);
    // A primary leg's handle is node + replica + store + tree; a standby
    // leg's is node + replica + tree (its copy is in memory). The shadows
    // give each layer's cost per call; the handles' measured totals are
    // divided in those proportions.
    let positive = |v: f64| v.max(0.0);
    let tree_call = shadow("tree.push_row_us");
    let store_call = positive(shadow("store.self_us"));
    let replica_call = positive(shadow("replica.self_us"));
    let node_call = positive(stages.call_p50(Stage::Handle) - shadow("replica.handle_us"));
    let primary_us = own(Stage::Handle);
    let standby_us = own(Stage::HandleStandby);
    let primary_call = tree_call + store_call + replica_call + node_call;
    let standby_call = tree_call + replica_call + node_call;
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let tree_us =
        primary_us * share(tree_call, primary_call) + standby_us * share(tree_call, standby_call);
    let store_us = primary_us * share(store_call, primary_call);
    let replica_us = primary_us * share(replica_call, primary_call)
        + standby_us * share(replica_call, standby_call);
    let node_us =
        primary_us * share(node_call, primary_call) + standby_us * share(node_call, standby_call);
    let glue_us = own(Stage::Op) + own(Stage::Leg);
    let attributed = proto_us + cluster_us + tree_us + store_us + replica_us + node_us + glue_us;
    let total = wire.ingest_p50_us;
    let parts = [
        ("budget.transport_frac", hops_us),
        ("budget.server_frac", overhead_us),
        ("budget.proto_frac", proto_us),
        ("budget.cluster_frac", cluster_us),
        ("budget.node_frac", node_us),
        ("budget.replica_frac", replica_us),
        ("budget.store_frac", store_us),
        ("budget.tree_frac", tree_us),
        ("budget.glue_frac", glue_us),
        // Medians of parts do not add up to the median of the whole;
        // this is by how much they miss.
        ("budget.residual_frac", inline_row_us - attributed),
    ];
    out.notes.push(format!(
        "budget of one acked row: wire p50 {total:.1} us = inline {inline_row_us:.1} us + {legs_per_row} legs x {hop_us:.1} us + client hop {client_hop_us:.1} us + server {overhead_us:.1} us"
    ));
    for (name, us) in parts {
        out.put(name, us / total, "ratio");
        out.notes.push(format!(
            "  {:<10} {:>9.1} us {:>6.1} %",
            name.trim_start_matches("budget.").trim_end_matches("_frac"),
            us,
            100.0 * us / total
        ));
    }
    out.put(
        "trace.overhead_frac",
        (traced.seconds - plain.seconds) / plain.seconds,
        "ratio",
    );
    out.notes.push(format!(
        "inline arm: {} ops untraced in {:.3} s, traced in {:.3} s ({} spans, first 2000 ops in {})",
        ops.len(),
        plain.seconds,
        traced.seconds,
        traced.tracer.spans.len(),
        trace_path.display()
    ));
    if plain.counts != traced.counts {
        out.tally.wrong += 1;
        out.notes
            .push("the two inline arms moved different frames".to_owned());
    }

    let host = HostSnapshot::take().since(&host0);
    out.put("host.nproc", crate::stats::machine_cpus() as f64, "count");
    out.put("host.cpus_allowed", crate::stats::nproc() as f64, "count");
    out.put("host.steal_frac", host.steal_frac, "ratio");
    out.put("host.invol_ctx_switches", host.involuntary as f64, "count");
    out.put("host.vol_ctx_switches", host.voluntary as f64, "count");
    out
}
