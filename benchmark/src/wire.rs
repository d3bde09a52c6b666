//! The wire side: a real `swatd` cluster in this process (cluster mode,
//! standbys on, every node with a durable directory, loopback TCP), the
//! closed-loop and open-loop drivers, and the oracle that checks every
//! answer.

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use swat_daemon::{
    bind, encode_response, spawn_on, ClientError, ClusterNode, DaemonConfig, ErrorCode,
    FailoverClient, Request, Response, Role, ServerHandle,
};
use swat_replication::RetryPolicy;
use swat_tree::{shard_members, QueryOptions, RangeQuery, ShardedStreamSet, SwatConfig};

use crate::gen::RowGen;
use crate::stats::{micros_since, peak_rss_mb, Chunk, Phase, Samples};

/// The most threads that ever generate load at once: `wire-mixed`'s
/// writer and reader. Exactly one connection ever ingests, because rows
/// are synchronized across streams and two writers would make tree state
/// depend on their interleaving, which no oracle could check.
pub const GENERATOR_THREADS: usize = 2;
/// Coefficients kept per tree node, every workload.
pub const COEFFS: usize = 4;
/// `miss_threshold` of `DaemonConfig::localhost`, which the inline arm
/// must repeat when it builds the same nodes without a server.
pub const MISS_THRESHOLD: u32 = 3;

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub streams: usize,
    pub shards: usize,
    pub window: usize,
}

impl Shape {
    pub fn config(&self) -> SwatConfig {
        SwatConfig::with_coefficients(self.window, COEFFS).expect("window is a power of two")
    }

    /// Warm standbys wherever there is a ring to hold them. A one-shard
    /// cluster (the traced pass of `lib-store`) has none at bootstrap, and
    /// with standbys on its leader would spend the run re-seeding itself
    /// as one, refusing acks meanwhile.
    pub fn standbys(&self) -> bool {
        self.shards > 1
    }

    /// Rows ingested before anything is timed: every tree level has
    /// filled and turned over once.
    pub fn warm_rows(&self) -> usize {
        2 * self.window
    }
}

/// A scratch directory inside the checkout, removed on drop — also when
/// a run panics or fails.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(root: &Path, label: &str) -> io::Result<WorkDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes in the files of `dir`: what a store occupies on disk.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// `shards + 1` nodes on `127.0.0.1:0`, brought up the way `swatd` is:
/// all listeners bound first so every node starts with the full peer
/// list. Dropping it stops every node that is still up.
pub struct Cluster {
    handles: Vec<ServerHandle>,
    addrs: Vec<SocketAddr>,
    dirs: Vec<PathBuf>,
}

impl Cluster {
    pub fn start(shape: &Shape, work: &Path) -> io::Result<Cluster> {
        let nodes = shape.shards + 1;
        let listeners = (0..nodes)
            .map(|_| bind("127.0.0.1:0".parse().expect("static addr")))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<io::Result<Vec<_>>>()?;
        let mut cluster = Cluster {
            handles: Vec::new(),
            addrs: addrs.clone(),
            dirs: Vec::new(),
        };
        for (id, listener) in listeners.into_iter().enumerate() {
            let role = match id {
                0 => Role::Leader {
                    replicas: Vec::new(),
                },
                _ => Role::Replica { shard: id - 1 },
            };
            let mut cfg =
                DaemonConfig::localhost(role, shape.config(), shape.streams, shape.shards);
            cfg.peers = addrs.clone();
            cfg.standbys = shape.standbys();
            let dir = work.join(format!("node-{id}"));
            cfg.dir = Some(dir.clone());
            cluster.dirs.push(dir);
            cluster.handles.push(spawn_on(listener, cfg)?);
        }
        Ok(cluster)
    }

    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    pub fn client(&self) -> FailoverClient {
        FailoverClient::new(
            self.addrs.clone(),
            RetryPolicy {
                max_retries: 3,
                timeout: 30,
            },
            Duration::from_millis(500),
        )
    }

    /// Graceful stop of every node; the durable directory of each shard
    /// primary is returned if all of them checkpointed.
    pub fn stop(mut self) -> Option<Vec<PathBuf>> {
        // The leader holds no shard and has nothing to checkpoint.
        let checkpointed = self.take_down(|id, handle| handle.stop().checkpointed || id == 0);
        checkpointed.then(|| self.dirs[1..].to_vec())
    }

    /// Abrupt kill of every node: no drain, no checkpoint. What is in
    /// the directories afterwards is what a crashed node restarts from.
    pub fn kill(mut self) -> Vec<PathBuf> {
        self.take_down(|_, handle| {
            handle.kill();
            true
        });
        self.dirs[1..].to_vec()
    }

    /// Take every node down at the same moment. One after another would
    /// not do: a replica keeps serving while its leader still sends
    /// heartbeats, and replicas that outlive the leader by an election
    /// timeout start claiming terms.
    fn take_down(&mut self, down: impl Fn(usize, ServerHandle) -> bool + Sync) -> bool {
        let down = &down;
        std::thread::scope(|scope| {
            let joins: Vec<_> = self
                .handles
                .drain(..)
                .enumerate()
                .map(|(id, handle)| scope.spawn(move || down(id, handle)))
                .collect();
            joins
                .into_iter()
                .all(|j| j.join().expect("a node panicked while going down"))
        })
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.take_down(|_, handle| {
            handle.kill();
            true
        });
    }
}

/// Ops issued, ops that failed or were refused or degraded, and answers
/// that disagreed with the oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    pub fn clean(&self) -> bool {
        self.failed == 0 && self.wrong == 0
    }

    /// Count one answered (or unanswered) query: refused, degraded and
    /// transport failures are failed ops, any other answer that is not
    /// `right` is a wrong answer.
    pub fn judge(&mut self, resp: &Result<Response, ClientError>, right: bool) {
        self.attempted += 1;
        match resp {
            Ok(_) if right => {}
            Ok(Response::Overloaded | Response::Unavailable { .. }) | Err(_) => self.failed += 1,
            Ok(_) => self.wrong += 1,
        }
    }
}

/// What the in-process oracle says a quiesced cluster must answer.
pub fn expected(oracle: &ShardedStreamSet, req: &Request) -> Response {
    let bad = Response::ErrorR {
        code: ErrorCode::BadRequest,
    };
    match req {
        Request::Point { stream, index } => oracle
            .tree(*stream as usize)
            .point_with(*index as usize, QueryOptions::default())
            .map_or(bad, |a| Response::PointR { answer: a.into() }),
        Request::Range {
            stream,
            center,
            radius,
            newest,
            oldest,
        } => oracle
            .tree(*stream as usize)
            .range_query(&RangeQuery::new(
                *center,
                *radius,
                *newest as usize,
                *oldest as usize,
            ))
            .map_or(bad, |m| Response::RangeR {
                matches: m.into_iter().map(Into::into).collect(),
            }),
        Request::TopK { k } => Response::TopKR {
            complete: true,
            entries: oracle.global_top_k(*k as usize, 1).0.entries().to_vec(),
        },
        other => unreachable!("the benchmark never asks the oracle about {other:?}"),
    }
}

/// Bit-identical on the wire, which is stricter than `==` on floats.
pub fn same_answer(got: &Response, want: &Response) -> bool {
    encode_response(got) == encode_response(want)
}

fn fully_acked(resp: &Result<Response, ClientError>) -> bool {
    matches!(resp, Ok(Response::IngestOk { duplicate: false, failed_shards, .. }) if failed_shards.is_empty())
}

struct Timed {
    latencies_us: Vec<f64>,
    wall: Duration,
    responses: Vec<Result<Response, ClientError>>,
}

fn timed_calls(client: &mut FailoverClient, reqs: &[Request]) -> Timed {
    let mut latencies_us = Vec::with_capacity(reqs.len());
    let mut responses = Vec::with_capacity(reqs.len());
    let t_chunk = Instant::now();
    for req in reqs {
        let t0 = Instant::now();
        let resp = client.call(req);
        latencies_us.push(micros_since(t0));
        responses.push(resp);
    }
    Timed {
        latencies_us,
        wall: t_chunk.elapsed(),
        responses,
    }
}

/// A closed-loop query phase: every chunk, and per chunk the median
/// latency of its point, range and top-k queries.
#[derive(Default)]
pub struct QueryPhase {
    pub phase: Phase,
    pub kind_p50_us: [Vec<f64>; 3],
}

impl QueryPhase {
    fn record(&mut self, reqs: &[Request], latencies_us: Vec<f64>, wall: Duration) {
        let mut by_kind: [Vec<f64>; 3] = Default::default();
        for (req, us) in reqs.iter().zip(&latencies_us) {
            let kind = match req {
                Request::Point { .. } => 0,
                Request::Range { .. } => 1,
                _ => 2,
            };
            by_kind[kind].push(*us);
        }
        for (medians, samples) in self.kind_p50_us.iter_mut().zip(by_kind) {
            if !samples.is_empty() {
                medians.push(Samples::new(samples).median());
            }
        }
        self.phase.chunks.push(Chunk::of(latencies_us, wall));
    }
}

/// A warmed cluster, the one connection that ingests, and the oracle fed
/// every acked row.
pub struct Wire {
    pub shape: Shape,
    pub cluster: Cluster,
    pub client: FailoverClient,
    pub oracle: ShardedStreamSet,
    pub tally: Tally,
    rows: RowGen,
    next_id: u64,
}

impl Wire {
    /// Bring the cluster up and warm its trees; this is what `setup_s`
    /// times.
    pub fn start(shape: Shape, seed: u64, work: &Path) -> io::Result<Wire> {
        let cluster = Cluster::start(&shape, work)?;
        let client = cluster.client();
        let mut wire = Wire {
            shape,
            cluster,
            client,
            oracle: ShardedStreamSet::new(shape.config(), shape.streams, shape.shards),
            tally: Tally::default(),
            rows: RowGen::new(seed, shape.streams),
            next_id: 0,
        };
        let warm = wire.next_requests(shape.warm_rows());
        wire.ingest_chunk(&warm);
        Ok(wire)
    }

    pub fn next_requests(&mut self, count: usize) -> Vec<Request> {
        (0..count)
            .map(|_| {
                self.next_id += 1;
                Request::Ingest {
                    req_id: self.next_id - 1,
                    row: self.rows.next_row(),
                }
            })
            .collect()
    }

    /// Send `reqs` one after another, then feed the oracle the rows that
    /// were fully acked. Anything else counts as failed.
    pub fn ingest_chunk(&mut self, reqs: &[Request]) -> Chunk {
        let timed = timed_calls(&mut self.client, reqs);
        for (req, resp) in reqs.iter().zip(&timed.responses) {
            self.tally.attempted += 1;
            match req {
                Request::Ingest { row, .. } if fully_acked(resp) => self.oracle.push_row(row),
                _ => self.tally.failed += 1,
            }
        }
        Chunk::of(timed.latencies_us, timed.wall)
    }

    /// The closed loop of `wire-ingest` and `wire-wide`: a chunk of rows,
    /// then a chunk of queries against the quiesced cluster, over and over
    /// until `budget` is spent — so that ingest and queries both sample
    /// the whole run and neither is at the mercy of the host's mood during
    /// its own few seconds. Rows are generated, the oracle fed and every
    /// answer checked between chunks, outside every timer.
    ///
    /// Memory grows with rows ingested, and a faster system ingests more
    /// rows in the same time, so the peak resident set is read when
    /// `plan.mark_rows` rows are in (or at the end, if the run never gets
    /// that far): the same work on every run.
    pub fn closed_loop(&mut self, plan: &ClosedPlan, queries: &[Request]) -> Closed {
        let t0 = Instant::now();
        let mut out = Closed::default();
        let mut rss_at_mark = None;
        let mut next = queries.iter().cycle();
        while t0.elapsed() < plan.budget {
            let rows = self.next_requests(plan.chunk_rows);
            out.ingest.chunks.push(self.ingest_chunk(&rows));
            if rss_at_mark.is_none() && out.ingest.ops() >= plan.mark_rows {
                rss_at_mark = Some(peak_rss_mb());
            }
            let reqs: Vec<Request> = next.by_ref().take(plan.chunk_queries).cloned().collect();
            let timed = timed_calls(&mut self.client, &reqs);
            self.check_quiesced(&reqs, &timed.responses);
            out.queries.record(&reqs, timed.latencies_us, timed.wall);
        }
        out.rss_mb = rss_at_mark.unwrap_or_else(peak_rss_mb);
        out
    }

    fn check_quiesced(&mut self, reqs: &[Request], responses: &[Result<Response, ClientError>]) {
        for (req, resp) in reqs.iter().zip(responses) {
            let right = matches!(resp, Ok(r) if same_answer(r, &expected(&self.oracle, req)));
            self.tally.judge(resp, right);
        }
    }

    /// The correctness gate after a workload quiesces: every stream's
    /// newest point and a final top-k, bit-identical and complete.
    pub fn sweep(&mut self) {
        let mut reqs: Vec<Request> = (0..self.shape.streams as u64)
            .map(|stream| Request::Point { stream, index: 0 })
            .collect();
        reqs.push(Request::TopK { k: 8 });
        let timed = timed_calls(&mut self.client, &reqs);
        self.check_quiesced(&reqs, &timed.responses);
    }

    /// `wire-mixed`: connection A ingests on a schedule (open loop,
    /// latency from each row's due time); connection B asks, waits for
    /// the answer, thinks, and asks again (closed loop) for as long as A
    /// runs.
    pub fn mixed(&mut self, plan: &MixedPlan, queries: &[Request]) -> Mixed {
        let rows = self.next_requests((plan.rate_per_s * plan.seconds) as usize);
        let rows = &rows[..];
        let sent = AtomicU64::new(0);
        let acked = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let mut reader = self.cluster.client();
        let writer = &mut self.client;
        let oracle = &mut self.oracle;
        let (ingest, (queries, unchecked_topk, tally)) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let mut out = OpenLoop::default();
                let t0 = Instant::now();
                for (i, req) in rows.iter().enumerate() {
                    let due = Duration::from_secs_f64(i as f64 / plan.rate_per_s);
                    if let Some(wait) = due.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let late = |t0: Instant| t0.elapsed().saturating_sub(due).as_secs_f64() * 1e6;
                    out.lag_us.push(late(t0));
                    sent.store(i as u64 + 1, Ordering::SeqCst);
                    let resp = writer.call(req);
                    out.latencies_us.push(late(t0));
                    acked.store(i as u64 + 1, Ordering::SeqCst);
                    out.failed += u64::from(!fully_acked(&resp));
                }
                out.seconds = t0.elapsed().as_secs_f64();
                done.store(true, Ordering::SeqCst);
                out
            });
            let b = scope.spawn(|| {
                let mut out = QueryPhase::default();
                let mut checker = Replay {
                    oracle,
                    rows,
                    applied: 0,
                    pending: VecDeque::new(),
                    tally: Tally::default(),
                    unchecked: 0,
                };
                let mut next = queries.iter().cycle();
                while !done.load(Ordering::SeqCst) {
                    let reqs: Vec<Request> = next.by_ref().take(plan.chunk).cloned().collect();
                    let mut latencies_us = Vec::with_capacity(reqs.len());
                    let t_chunk = Instant::now();
                    for req in &reqs {
                        std::thread::sleep(plan.think);
                        let lo = acked.load(Ordering::SeqCst);
                        let t = Instant::now();
                        let resp = reader.call(req);
                        latencies_us.push(micros_since(t));
                        let hi = sent.load(Ordering::SeqCst);
                        checker.pending.push_back(Logged {
                            req: req.clone(),
                            resp,
                            lo,
                            hi,
                            right: false,
                        });
                        // Checked one answer at a time, so this thread
                        // never holds the CPU long enough to delay
                        // connection A. Later queries can still have
                        // seen any row count from the acked one up, so
                        // the oracle must not run ahead of it.
                        checker.advance_to(acked.load(Ordering::SeqCst));
                    }
                    out.record(&reqs, latencies_us, t_chunk.elapsed());
                }
                checker.advance_to(rows.len() as u64);
                checker.settle_all();
                (out, checker.unchecked, checker.tally)
            });
            (
                a.join().expect("ingest thread panicked"),
                b.join().expect("query thread panicked"),
            )
        });
        self.tally.absorb(tally);
        self.tally.attempted += rows.len() as u64;
        self.tally.failed += ingest.failed;
        Mixed {
            ingest,
            queries,
            unchecked_topk,
        }
    }
}

/// The sizes of the closed loop.
pub struct ClosedPlan {
    pub budget: Duration,
    pub chunk_rows: usize,
    pub chunk_queries: usize,
    pub mark_rows: usize,
}

#[derive(Default)]
pub struct Closed {
    pub ingest: Phase,
    pub queries: QueryPhase,
    pub rss_mb: f64,
}

/// The shape of `wire-mixed`'s load.
pub struct MixedPlan {
    pub rate_per_s: f64,
    pub seconds: f64,
    /// What connection B waits between an answer and its next question.
    pub think: Duration,
    pub chunk: usize,
}

/// Connection A of `wire-mixed`.
#[derive(Default)]
pub struct OpenLoop {
    /// Completion minus due time.
    pub latencies_us: Vec<f64>,
    /// Send minus due time: how late the generator ran.
    pub lag_us: Vec<f64>,
    pub seconds: f64,
    failed: u64,
}

pub struct Mixed {
    pub ingest: OpenLoop,
    pub queries: QueryPhase,
    /// Top-k answers given while a row was in flight: checked for
    /// `complete`, not against the oracle.
    pub unchecked_topk: u64,
}

struct Logged {
    req: Request,
    resp: Result<Response, ClientError>,
    /// Rows acked when the query was sent.
    lo: u64,
    /// Rows sent when its answer arrived.
    hi: u64,
    right: bool,
}

/// Checks answers given while rows were arriving. A query sent after
/// `lo` rows were acked and answered before row `hi + 1` was sent saw
/// some row count in `lo..=hi` on the shard it read; its answer must be
/// bit-identical to the oracle at one of them. The oracle is stepped
/// through the rows once, in bounded memory: answers are settled as soon
/// as the oracle has passed their `hi`. A top-k reads every shard, and
/// shards apply a row at different moments, so it is compared only when
/// no row was in flight (`lo == hi`); the rest are checked for `complete`
/// and counted as unchecked.
struct Replay<'a> {
    oracle: &'a mut ShardedStreamSet,
    rows: &'a [Request],
    /// Rows of `rows` the oracle has been fed.
    applied: u64,
    /// In sending order, so `lo` and `hi` never decrease along it.
    pending: VecDeque<Logged>,
    tally: Tally,
    unchecked: u64,
}

impl Replay<'_> {
    fn advance_to(&mut self, limit: u64) {
        loop {
            let n = self.applied;
            while self.pending.front().is_some_and(|q| q.hi < n) {
                let q = self.pending.pop_front().expect("front was just seen");
                self.tally.judge(&q.resp, q.right);
            }
            for q in self.pending.iter_mut().take_while(|q| q.lo <= n) {
                let (Ok(resp), false) = (&q.resp, q.right) else {
                    continue;
                };
                if matches!(q.req, Request::TopK { .. }) && q.lo != q.hi {
                    q.right = matches!(resp, Response::TopKR { complete: true, .. });
                    self.unchecked += u64::from(q.right);
                } else {
                    q.right = same_answer(resp, &expected(self.oracle, &q.req));
                }
            }
            if n >= limit {
                return;
            }
            if let Request::Ingest { row, .. } = &self.rows[n as usize] {
                self.oracle.push_row(row);
            }
            self.applied += 1;
        }
    }

    fn settle_all(&mut self) {
        for q in self.pending.drain(..) {
            self.tally.judge(&q.resp, q.right);
        }
    }
}

/// Restart a crashed or stopped shard primary from its directory, as
/// `swatd` does, and time it. The restarted node's newest point on every
/// stream it owns must equal the oracle's.
pub fn timed_restart(
    shape: &Shape,
    shard: usize,
    dir: &Path,
    oracle: &ShardedStreamSet,
    tally: &mut Tally,
) -> f64 {
    let t0 = Instant::now();
    let node = ClusterNode::durable_replica(
        shard as u64 + 1,
        shape.config(),
        shape.streams,
        shape.shards,
        MISS_THRESHOLD,
        shape.standbys(),
        dir.to_path_buf(),
    );
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tally.attempted += 1;
    let Ok(mut node) = node else {
        tally.failed += 1;
        return ms;
    };
    // A restarted node answers fenced shard traffic of the bootstrap
    // term; ask it what a leader would.
    let intact = shard_members(shape.streams, shape.shards, shard)
        .into_iter()
        .all(|g| {
            let ask = Request::Point {
                stream: g as u64,
                index: 0,
            };
            let fenced = Request::Fenced {
                term: 0,
                leader: 0,
                shard: shard as u32,
                epoch: 0,
                inner: Box::new(ask.clone()),
            };
            same_answer(&node.handle(&fenced), &expected(oracle, &ask))
        });
    if !intact {
        tally.wrong += 1;
    }
    ms
}
