//! `lib-store`: the paper's per-arrival and per-query costs with the
//! network removed. One `DurableStore` with default options, one thread,
//! no sockets: push rows, crash and recover ten times, then a query
//! battery on the recovered set, every answer compared with an in-memory
//! twin fed the same rows.

use std::path::Path;
use std::time::{Duration, Instant};

use swat_store::{DurableStore, RecoveryManager};
use swat_tree::{
    local_top_k, InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions, RangeMatch,
    RangeQuery, ShardedStreamSet, StreamSet,
};
use swat_wavelet::TopCoeff;

use crate::gen::{recent_index, Rng, RowGen};
use crate::stats::{micros_since, peak_rss_mb, Chunk, Phase};
use crate::wire::{dir_bytes, Shape, Tally, WorkDir};

/// One `wire-wide` shard's sub-row.
pub const SHAPE: Shape = Shape {
    streams: 1024,
    shards: 1,
    window: 1024,
};
/// Crash-and-recover cycles, and the rows pushed between two of them.
const CYCLES: usize = 10;
const CYCLE_ROWS: usize = 300;
/// A push slower than this is a stall.
const STALL_US: f64 = 1_000.0;

enum Query {
    /// The same recent-skewed indices on every stream.
    Points(Vec<usize>),
    /// One exponentially weighted inner product on every stream.
    Inner(InnerProductQuery),
    Range(usize, RangeQuery),
    TopK,
}

#[derive(PartialEq)]
enum Answer {
    Points(Vec<Vec<PointAnswer>>),
    Inner(Vec<Vec<InnerProductAnswer>>),
    Range(Vec<RangeMatch>),
    TopK(Vec<TopCoeff>),
    Refused,
}

/// 70 % point, 20 % inner product, 8 % range, 2 % top-k.
fn battery(shape: Shape, seed: u64, count: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0xBA77_E121);
    let window = shape.window;
    (0..count)
        .map(|_| match rng.below(100) {
            0..=69 => Query::Points((0..4).map(|_| recent_index(&mut rng, window)).collect()),
            70..=89 => Query::Inner(InnerProductQuery::exponential(
                (window / 8) >> rng.below(3),
                1.0,
            )),
            90..=97 => {
                let span = 64.min(window);
                let newest = rng.below(window - span + 1);
                Query::Range(
                    rng.below(shape.streams),
                    RangeQuery::new(rng.unit() * 160.0 - 80.0, 10.0, newest, newest + span - 1),
                )
            }
            _ => Query::TopK,
        })
        .collect()
}

fn ask_store(set: &StreamSet, members: &[usize], q: &Query) -> Answer {
    let opts = QueryOptions::default();
    match q {
        Query::Points(idx) => set
            .point_many(idx, opts, 1)
            .map_or(Answer::Refused, Answer::Points),
        Query::Inner(ip) => set
            .inner_product_many(std::slice::from_ref(ip), opts, 1)
            .map_or(Answer::Refused, Answer::Inner),
        Query::Range(s, r) => set
            .tree(*s)
            .range_query(r)
            .map_or(Answer::Refused, Answer::Range),
        Query::TopK => Answer::TopK(local_top_k(set, members, 8).entries().to_vec()),
    }
}

fn ask_twin(twin: &ShardedStreamSet, q: &Query) -> Answer {
    let opts = QueryOptions::default();
    match q {
        Query::Points(idx) => twin
            .point_many(idx, opts, 1)
            .map_or(Answer::Refused, Answer::Points),
        Query::Inner(ip) => twin
            .inner_product_many(std::slice::from_ref(ip), opts, 1)
            .map_or(Answer::Refused, Answer::Inner),
        Query::Range(s, r) => twin
            .tree(*s)
            .range_query(r)
            .map_or(Answer::Refused, Answer::Range),
        Query::TopK => Answer::TopK(twin.global_top_k(8, 1).0.entries().to_vec()),
    }
}

#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    pub ingest: Phase,
    pub stalls: u64,
    pub rss_mb: f64,
    pub checkpoint_us: f64,
    pub recover_ms: Vec<f64>,
    pub wal_rows_replayed: u64,
    pub queries: Phase,
    pub flushes: u64,
    pub compactions: u64,
    pub segments: usize,
    pub disk_bytes_per_row: f64,
}

struct Run {
    store: DurableStore,
    twin: ShardedStreamSet,
    rows: RowGen,
    out: Outcome,
}

impl Run {
    /// Push `rows` one by one, each push timed; feed the twin afterwards.
    fn push_chunk(&mut self, count: usize) -> Chunk {
        let rows: Vec<Vec<f64>> = (0..count).map(|_| self.rows.next_row()).collect();
        let mut latencies_us = Vec::with_capacity(count);
        let t_chunk = Instant::now();
        for row in &rows {
            let t0 = Instant::now();
            let pushed = self.store.push_row(row);
            latencies_us.push(micros_since(t0));
            self.out.tally.attempted += 1;
            self.out.tally.failed += u64::from(pushed.is_err());
        }
        let wall = t_chunk.elapsed();
        self.out.stalls += latencies_us.iter().filter(|&&us| us > STALL_US).count() as u64;
        for row in &rows {
            self.twin.push_row(row);
        }
        Chunk::of(latencies_us, wall)
    }

    /// Ask `queries` of the store's set one by one, each timed; compare
    /// with the twin afterwards.
    fn ask_chunk<'q>(&mut self, members: &[usize], queries: impl Iterator<Item = &'q Query>) {
        let chunk: Vec<&Query> = queries.collect();
        let mut latencies_us = Vec::with_capacity(chunk.len());
        let mut answers = Vec::with_capacity(chunk.len());
        let t_chunk = Instant::now();
        for q in &chunk {
            let t = Instant::now();
            let a = ask_store(self.store.set(), members, q);
            latencies_us.push(micros_since(t));
            answers.push(a);
        }
        let wall = t_chunk.elapsed();
        self.out.queries.chunks.push(Chunk::of(latencies_us, wall));
        for (q, a) in chunk.iter().zip(&answers) {
            self.out.tally.attempted += 1;
            match a {
                Answer::Refused => self.out.tally.failed += 1,
                a if *a == ask_twin(&self.twin, q) => {}
                _ => self.out.tally.wrong += 1,
            }
        }
    }
}

/// Everything about a run that is counted, not timed.
pub struct Sizes {
    pub setup_reps: usize,
    /// Short chunks: at 8 KB a row the background flusher (one flush per
    /// 4096 rows, on the same CPU) is busy much of the time, and ten runs
    /// agreed better on the best 250-row chunk (spread 6–10 %) than on the
    /// best whole freeze cycle (12 %).
    pub chunk_rows: usize,
    pub chunk_queries: usize,
    /// Rows in when the peak resident set is read (see
    /// `Wire::closed_loop`).
    pub mark_rows: usize,
}

/// Run the workload for about `seconds`.
pub fn run(shape: Shape, seed: u64, seconds: f64, work_root: &Path, sizes: &Sizes) -> Outcome {
    let config = shape.config();
    // Set up several times; the last store is the one measured.
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..sizes.setup_reps {
        drop(last.take());
        let dir = WorkDir::create(work_root, "store").expect("work directory");
        let t0 = Instant::now();
        let store = DurableStore::create(dir.path().join("s"), config, shape.streams)
            .expect("a fresh directory takes a store");
        let mut run = Run {
            store,
            twin: ShardedStreamSet::new(config, shape.streams, 1),
            rows: RowGen::new(seed, shape.streams),
            out: Outcome::default(),
        };
        run.push_chunk(shape.warm_rows());
        setup_s.push(t0.elapsed().as_secs_f64());
        // The run comes first in the pair, so it is dropped (and its
        // flusher joined) before its directory is removed.
        last = Some((run, dir));
    }
    let (mut run, dir) = last.expect("at least one set-up");
    run.out.setup_s = setup_s;

    // A chunk of pushes, then a chunk of the battery, over and over: both
    // sample the whole run (see `Wire::closed_loop`).
    let queries = battery(shape, seed, 4096);
    let members: Vec<usize> = (0..shape.streams).collect();
    let mut next = queries.iter().cycle();
    let t0 = Instant::now();
    let mut rss_at_mark = None;
    while t0.elapsed() < Duration::from_secs_f64(seconds * 0.85) {
        let chunk = run.push_chunk(sizes.chunk_rows);
        run.out.ingest.chunks.push(chunk);
        if rss_at_mark.is_none() && run.out.ingest.ops() >= sizes.mark_rows {
            rss_at_mark = Some(peak_rss_mb());
        }
        run.ask_chunk(&members, next.by_ref().take(sizes.chunk_queries));
    }
    run.out.rss_mb = rss_at_mark.unwrap_or_else(peak_rss_mb);

    // Drain to segments, so every cycle below recovers from the same
    // kind of state: a base snapshot plus exactly CYCLE_ROWS WAL rows.
    let t_ckpt = Instant::now();
    let drained = run.store.checkpoint();
    run.out.checkpoint_us = micros_since(t_ckpt);
    run.out.tally.attempted += 1;
    run.out.tally.failed += u64::from(drained.is_err());
    let status = run.store.status();
    run.out.flushes = status.flushes;
    run.out.compactions = status.compactions;
    run.out.segments = status.segments;
    let rows_on_disk = run.store.arrivals();
    run.out.disk_bytes_per_row = dir_bytes(run.store.dir()) as f64 / rows_on_disk.max(1) as f64;

    // Crash, recover, continue — ten times. `sync` is the ack:
    // everything pushed before it must come back, bit for bit.
    let store_dir = run.store.dir().to_path_buf();
    for _ in 0..CYCLES {
        run.push_chunk(CYCLE_ROWS);
        let acked = run.store.sync().is_ok();
        let (digest, arrivals) = (run.store.answers_digest(), run.store.arrivals());
        run.store.crash();
        let t0 = Instant::now();
        let recovered = RecoveryManager::recover(&store_dir);
        run.out.recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        run.out.tally.attempted += 1;
        match recovered {
            Ok((store, report)) => {
                run.out.wal_rows_replayed += report.wal_rows_replayed;
                let same = store.answers_digest() == digest && store.arrivals() == arrivals;
                run.out.tally.wrong += u64::from(acked && !same);
                run.out.tally.failed += u64::from(!acked);
                run.store = store;
            }
            Err(e) => panic!("recovery of an acked store failed: {e}"),
        }
    }

    // The recovered set must answer the battery as the twin does.
    run.ask_chunk(&members, next.by_ref().take(sizes.chunk_queries));

    let Run { store, out, .. } = run;
    drop(store);
    drop(dir);
    out
}
