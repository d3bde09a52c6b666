//! The traced pass: where the time of one op goes.
//!
//! The *inline arm* is the whole state-machine path of the cluster on one
//! thread with no sockets: a bootstrap leader and durable replicas, every
//! delivery round-tripping the codec exactly as `FailoverSim::deliver_req`
//! and the server's `serve_fan` do. Spans are recorded here, around the
//! calls into each layer's public functions; nothing inside the crates is
//! instrumented. *Shadow* instances fed the same sub-rows split a leg's
//! `ClusterNode::handle` into node, replica, store and tree time, and a
//! loopback echo gives the cost of one `TcpTransport` hop.

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use swat_daemon::{
    check_frame, decode_request, decode_response, encode_request, encode_response, stale_term_in,
    ClusterNode, PeerCall, Plan, ReplicaNode, Request, Response, TcpTransport, Transport,
};
use swat_store::{DurableStore, RecoveryManager};
use swat_tree::{
    shard_members, InnerProductQuery, QueryOptions, RangeQuery, ShardedStreamSet, StreamSet,
};
use swat_wavelet::{HaarCoeffs, MergeScratch};

use crate::alloc;
use crate::stats::{micros_since, Samples};
use crate::wire::{
    dir_bytes, expected, same_answer, Shape, Tally, WorkDir, COEFFS, MISS_THRESHOLD,
};

/// Where a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    Op,
    EncodeRequest,
    DecodeRequest,
    EncodeResponse,
    DecodeResponse,
    Plan,
    Finish,
    Leg,
    /// `ClusterNode::handle` on a fenced leg to a shard's primary.
    Handle,
    /// The same on a `Replicate` leg to its standby.
    HandleStandby,
}

const STAGES: [Stage; 10] = [
    Stage::Op,
    Stage::EncodeRequest,
    Stage::DecodeRequest,
    Stage::EncodeResponse,
    Stage::DecodeResponse,
    Stage::Plan,
    Stage::Finish,
    Stage::Leg,
    Stage::Handle,
    Stage::HandleStandby,
];

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Op => "op",
            Stage::EncodeRequest => "proto.encode_request",
            Stage::DecodeRequest => "proto.decode_request",
            Stage::EncodeResponse => "proto.encode_response",
            Stage::DecodeResponse => "proto.decode_response",
            Stage::Plan => "cluster.plan",
            Stage::Finish => "cluster.finish",
            Stage::Leg => "leg",
            Stage::Handle => "node.handle",
            Stage::HandleStandby => "node.handle_standby",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: Stage,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `NO_PARENT` for an op.
    pub parent: u32,
    pub op: u32,
}

/// Spans in a pre-allocated buffer, written out after the run. With
/// tracing off `enter`/`exit` do nothing, so the untraced arm runs the
/// same code and the difference between the arms is the tracing cost.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool, capacity: usize) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            open: Vec::with_capacity(8),
            op: 0,
        }
    }

    fn enter(&mut self, stage: Stage) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            stage,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op: self.op,
        });
    }

    fn exit(&mut self) {
        if !self.on {
            return;
        }
        let at = self.open.pop().expect("exit without enter");
        self.spans[at as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        if self.open.is_empty() {
            self.op += 1;
        }
    }

    /// `benchmark/results/trace-<workload>.jsonl`: one span per line.
    pub fn write_jsonl(&self, path: &Path, max_ops: u32) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .take_while(|(_, s)| s.op < max_ops)
        {
            let parent = match s.parent {
                NO_PARENT => "null".to_owned(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}",
                s.stage.name(),
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        out.flush()
    }
}

/// Per stage: the duration of every call, and per op the stage's self
/// time (span minus the part its children cover), summed over its calls.
pub struct StageTimes {
    pub per_call_us: Vec<Vec<f64>>,
    pub self_per_op_us: Vec<Vec<f64>>,
}

impl StageTimes {
    pub fn of(spans: &[Span], ops: usize) -> StageTimes {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut per_call_us = vec![Vec::new(); STAGES.len()];
        let mut self_per_op_us = vec![vec![0.0; ops]; STAGES.len()];
        for (s, child) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            per_call_us[s.stage as usize].push(dur as f64 / 1e3);
            self_per_op_us[s.stage as usize][s.op as usize] +=
                dur.saturating_sub(child) as f64 / 1e3;
        }
        StageTimes {
            per_call_us,
            self_per_op_us,
        }
    }

    pub fn call_p50(&self, stage: Stage) -> f64 {
        Samples::new(self.per_call_us[stage as usize].clone()).median()
    }

    /// Median over the ops in `ops` of the stage's self time per op.
    pub fn self_p50(&self, stage: Stage, ops: &[usize]) -> f64 {
        let v = &self.self_per_op_us[stage as usize];
        Samples::new(ops.iter().map(|&i| v[i]).collect()).median()
    }
}

/// Exact per-run counts of what crossed the (absent) wire.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireCounts {
    pub frames: u64,
    pub bytes: u64,
    pub legs: u64,
}

/// A leader and its replicas on one thread.
pub struct Inline {
    nodes: Vec<ClusterNode>,
    pub counts: WireCounts,
    _dir: WorkDir,
}

impl Inline {
    pub fn start(shape: &Shape, work_root: &Path) -> Inline {
        let dir = WorkDir::create(work_root, "inline").expect("work directory");
        let leader = ClusterNode::bootstrap_leader(
            shape.config(),
            shape.streams,
            shape.shards,
            MISS_THRESHOLD,
            shape.standbys(),
        )
        .with_meta_dir(dir.path().join("node-0"))
        .expect("no meta image yet");
        let mut nodes = vec![leader];
        for id in 1..=shape.shards {
            nodes.push(
                ClusterNode::durable_replica(
                    id as u64,
                    shape.config(),
                    shape.streams,
                    shape.shards,
                    MISS_THRESHOLD,
                    shape.standbys(),
                    dir.path().join(format!("node-{id}")),
                )
                .expect("a fresh directory takes a store"),
            );
        }
        Inline {
            nodes,
            counts: WireCounts::default(),
            _dir: dir,
        }
    }

    fn encode_req(&mut self, tr: &mut Tracer, req: &Request) -> Vec<u8> {
        tr.enter(Stage::EncodeRequest);
        let wire = encode_request(req);
        tr.exit();
        self.counts.frames += 1;
        self.counts.bytes += wire.len() as u64;
        wire
    }

    fn decode_req(tr: &mut Tracer, wire: &[u8]) -> Request {
        tr.enter(Stage::DecodeRequest);
        let req = decode_request(check_frame(wire).expect("own frames are intact"))
            .expect("a valid frame decodes");
        tr.exit();
        req
    }

    fn encode_resp(&mut self, tr: &mut Tracer, resp: &Response) -> Vec<u8> {
        tr.enter(Stage::EncodeResponse);
        let wire = encode_response(resp);
        tr.exit();
        self.counts.frames += 1;
        self.counts.bytes += wire.len() as u64;
        wire
    }

    fn decode_resp(tr: &mut Tracer, wire: &[u8]) -> Response {
        tr.enter(Stage::DecodeResponse);
        let resp = decode_response(check_frame(wire).expect("own frames are intact"))
            .expect("a valid frame decodes");
        tr.exit();
        resp
    }

    /// One leg: what `PeerPool::exchange` and the peer's connection
    /// worker do between them, minus the socket.
    fn deliver(&mut self, tr: &mut Tracer, call: &PeerCall) -> Option<Response> {
        tr.enter(Stage::Leg);
        self.counts.legs += 1;
        let wire = self.encode_req(tr, &call.request);
        let req = Self::decode_req(tr, &wire);
        tr.enter(if call.standby_leg {
            Stage::HandleStandby
        } else {
            Stage::Handle
        });
        let resp = self.nodes[call.node as usize].handle(&req);
        tr.exit();
        let wire = self.encode_resp(tr, &resp);
        let resp = Self::decode_resp(tr, &wire);
        tr.exit();
        Some(resp)
    }

    fn deliver_all(&mut self, tr: &mut Tracer, calls: &[PeerCall]) -> Vec<Option<Response>> {
        calls.iter().map(|c| self.deliver(tr, c)).collect()
    }

    /// One client op, start to finish: the client's encode, the leader's
    /// decode, plan, legs, merge and encode, the client's decode.
    pub fn op(&mut self, tr: &mut Tracer, req: &Request) -> Response {
        tr.enter(Stage::Op);
        let wire = self.encode_req(tr, req);
        let req = Self::decode_req(tr, &wire);
        tr.enter(Stage::Plan);
        let plan = self.nodes[0].lead().expect("node 0 leads").plan(&req);
        tr.exit();
        let resp = match plan {
            Plan::Done(r) => r,
            Plan::Fan(calls) => {
                let results = self.deliver_all(tr, &calls);
                assert!(stale_term_in(&results).is_none(), "no elections inline");
                match &req {
                    Request::TopK { k } => {
                        tr.enter(Stage::Plan);
                        let lead = self.nodes[0].lead().expect("node 0 leads");
                        let (_, refines) = lead.plan_topk_round2(*k, &calls, &results);
                        tr.exit();
                        let scans: Vec<(usize, Option<Response>)> = refines
                            .iter()
                            .map(|c| (c.shard, self.deliver(tr, c)))
                            .collect();
                        tr.enter(Stage::Finish);
                        let lead = self.nodes[0].lead().expect("node 0 leads");
                        let r = lead.finish_topk(*k, &calls, &results, &scans);
                        tr.exit();
                        r
                    }
                    other => {
                        tr.enter(Stage::Finish);
                        let lead = self.nodes[0].lead_mut().expect("node 0 leads");
                        let r = match other {
                            Request::Ingest { req_id, .. } => {
                                lead.finish_ingest(*req_id, &calls, &results)
                            }
                            _ => {
                                lead.finish_routed(&calls[0], results.into_iter().next().flatten())
                            }
                        };
                        tr.exit();
                        r
                    }
                }
            }
        };
        let wire = self.encode_resp(tr, &resp);
        let resp = Self::decode_resp(tr, &wire);
        tr.exit();
        resp
    }
}

/// One arm's run over `ops`: per-op latency, allocations on this thread,
/// and the wire counts.
pub struct ArmRun {
    pub op_us: Vec<f64>,
    pub seconds: f64,
    pub allocs: alloc::Counts,
    pub counts: WireCounts,
    pub tracer: Tracer,
}

/// Replay `warm` (untimed) then `ops` through a fresh inline cluster,
/// checking every answer against `oracle`, which is fed as rows ack.
pub fn run_arm(
    shape: &Shape,
    work_root: &Path,
    warm: &[Request],
    ops: &[Request],
    traced: bool,
    tally: &mut Tally,
) -> ArmRun {
    let mut arm = Inline::start(shape, work_root);
    let mut oracle = ShardedStreamSet::new(shape.config(), shape.streams, shape.shards);
    let mut off = Tracer::new(false, 0);
    for req in warm {
        arm.op(&mut off, req);
        if let Request::Ingest { row, .. } = req {
            oracle.push_row(row);
        }
    }
    arm.counts = WireCounts::default();
    let spans_per_op = 8 + 6 * (2 * shape.shards + 2);
    let mut tracer = Tracer::new(traced, ops.len() * spans_per_op);
    let mut op_us = Vec::with_capacity(ops.len());
    let mut responses = Vec::with_capacity(ops.len());
    let before = alloc::Counts::now();
    let t_all = Instant::now();
    for req in ops {
        let t0 = Instant::now();
        let resp = arm.op(&mut tracer, req);
        op_us.push(micros_since(t0));
        responses.push(resp);
    }
    let seconds = t_all.elapsed().as_secs_f64();
    let allocs = alloc::Counts::now().since(&before);
    for (req, resp) in ops.iter().zip(&responses) {
        tally.attempted += 1;
        let right = match req {
            Request::Ingest { row, req_id } => {
                oracle.push_row(row);
                *resp
                    == Response::IngestOk {
                        req_id: *req_id,
                        duplicate: false,
                        failed_shards: Vec::new(),
                    }
            }
            // Queries follow the rows they read in `ops`, so the oracle
            // has exactly those rows by the time it is asked.
            query => same_answer(resp, &expected(&oracle, query)),
        };
        tally.wrong += u64::from(!right);
    }
    ArmRun {
        op_us,
        seconds,
        allocs,
        counts: arm.counts,
        tracer,
    }
}

/// Round trips of one request/response frame pair over loopback TCP
/// through `TcpTransport`, against an echo thread: the cost of a hop with
/// nothing at either end.
pub fn transport_hops(request: &[u8], response: &[u8], budget: Duration) -> io::Result<Samples> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let reply = response.to_vec();
    let timeout = Duration::from_millis(500);
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let (stream, _) = listener.accept()?;
        let mut tp = TcpTransport::new(stream, timeout, timeout)?;
        while tp.recv_frame().is_ok() {
            if tp.send_frame(&reply).is_err() {
                break;
            }
        }
        Ok(())
    });
    let mut tp = TcpTransport::new(TcpStream::connect(addr)?, timeout, timeout)?;
    let mut hops = Vec::new();
    let t_all = Instant::now();
    while t_all.elapsed() < budget {
        let t0 = Instant::now();
        let sent = tp.send_frame(request);
        let got = tp.recv_frame();
        hops.push(micros_since(t0));
        if sent.is_err() || got.is_err() {
            return Err(io::Error::other("loopback echo failed"));
        }
    }
    drop(tp);
    echo.join().expect("echo thread panicked")?;
    Ok(Samples::new(hops))
}

/// What the shadows and the library micro-runs measured, by metric name.
pub type Named = Vec<(&'static str, f64, &'static str)>;

fn p50_of(mut f: impl FnMut(), reps: usize) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        v.push(micros_since(t0));
    }
    Samples::new(v).median()
}

/// Shadow instances fed shard 0's sub-rows of `rows`: a standalone
/// durable `ReplicaNode`, a `DurableStore`, and a bare `StreamSet`. Each
/// is one layer deeper than the one before, so their differences are the
/// layers' self times. Also the library micro-runs on the warmed set.
pub fn shadows(
    shape: &Shape,
    work_root: &Path,
    rows: &[&[f64]],
    out: &mut Named,
    tally: &mut Tally,
) {
    let members = shard_members(shape.streams, shape.shards, 0);
    let sub: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| members.iter().map(|&g| r[g]).collect())
        .collect();
    let config = shape.config();
    let dir = WorkDir::create(work_root, "shadow").expect("work directory");

    let mut set = StreamSet::new(config, members.len());
    let tree_us = Samples::new(
        sub.iter()
            .map(|r| {
                let t0 = Instant::now();
                set.push_row(r);
                micros_since(t0)
            })
            .collect(),
    );

    let mut store = DurableStore::create(dir.path().join("store"), config, members.len())
        .expect("a fresh directory takes a store");
    let mut stalls = 0u64;
    let store_us = Samples::new(
        sub.iter()
            .map(|r| {
                let t0 = Instant::now();
                let pushed = store.push_row(r);
                let us = micros_since(t0);
                tally.attempted += 1;
                tally.failed += u64::from(pushed.is_err());
                stalls += u64::from(us > 1_000.0);
                us
            })
            .collect(),
    );

    let mut replica = ReplicaNode::durable(
        1,
        config,
        shape.streams,
        shape.shards,
        0,
        &dir.path().join("replica"),
    )
    .expect("a fresh directory takes a replica");
    let replica_us = Samples::new(
        sub.iter()
            .enumerate()
            .map(|(i, r)| {
                let req = Request::Ingest {
                    req_id: i as u64,
                    row: r.clone(),
                };
                let t0 = Instant::now();
                let resp = replica.handle(&req);
                let us = micros_since(t0);
                tally.attempted += 1;
                tally.failed += u64::from(!matches!(resp, Response::IngestOk { .. }));
                us
            })
            .collect(),
    );
    // The three must have arrived at the same trees.
    tally.attempted += 1;
    tally.wrong += u64::from(
        set.answers_digest() != store.answers_digest()
            || set.answers_digest() != replica.answers_digest(),
    );

    out.push(("replica.handle_us", replica_us.median(), "us"));
    out.push((
        "replica.self_us",
        replica_us.median() - store_us.median(),
        "us",
    ));
    out.push(("store.push_row_us", store_us.median(), "us"));
    out.push(("store.push_row_p99_us", store_us.percentile(0.99), "us"));
    out.push(("store.push_row_max_us", store_us.max(), "us"));
    out.push(("store.self_us", store_us.median() - tree_us.median(), "us"));
    out.push(("store.stalls", stalls as f64, "count"));
    out.push(("tree.push_row_us", tree_us.median(), "us"));
    out.push((
        "tree.values_per_s",
        members.len() as f64 / (tree_us.median() / 1e6),
        "values/s",
    ));

    // Replica-side query cost, as the leader's fenced leg reaches it.
    let recent = Request::Point {
        stream: members[0] as u64,
        index: 0,
    };
    out.push((
        "replica.query_us",
        p50_of(
            || drop(std::hint::black_box(replica.handle(&recent))),
            2_000,
        ),
        "us",
    ));

    // The store's background work and on-disk cost for these rows.
    let t0 = Instant::now();
    let drained = store.checkpoint();
    out.push(("store.checkpoint_us", micros_since(t0), "us"));
    tally.attempted += 1;
    tally.failed += u64::from(drained.is_err());
    let status = store.status();
    out.push(("store.flushes", status.flushes as f64, "count"));
    out.push(("store.compactions", status.compactions as f64, "count"));
    out.push(("store.segments", status.segments as f64, "count"));
    out.push((
        "store.wal_bytes_per_row",
        swat_store::wal::record_len(members.len()) as f64,
        "B",
    ));
    out.push((
        "store.disk_bytes_per_row",
        dir_bytes(store.dir()) as f64 / sub.len().max(1) as f64,
        "B",
    ));
    // One crash with a WAL tail to replay.
    let tail = sub.len().min(256);
    for r in &sub[..tail] {
        let _ = store.push_row(r);
    }
    let acked = store.sync().is_ok();
    let (digest, store_dir) = (store.answers_digest(), store.dir().to_path_buf());
    store.crash();
    let t0 = Instant::now();
    let recovered = RecoveryManager::recover(&store_dir);
    out.push(("store.recover_ms", t0.elapsed().as_secs_f64() * 1e3, "ms"));
    tally.attempted += 1;
    match recovered {
        Ok((store, report)) => {
            out.push((
                "store.wal_rows_replayed",
                report.wal_rows_replayed as f64,
                "count",
            ));
            tally.wrong += u64::from(acked && store.answers_digest() != digest);
        }
        Err(_) => {
            out.push(("store.wal_rows_replayed", 0.0, "count"));
            tally.failed += 1;
        }
    }

    // `extend_batched` over the same values, column by column: the
    // blocked kernel that no wire path reaches.
    let columns: Vec<Vec<f64>> = (0..members.len())
        .map(|s| sub.iter().map(|r| r[s]).collect())
        .collect();
    let mut batched = StreamSet::new(config, members.len());
    let t0 = Instant::now();
    batched.extend_batched(&columns, 1);
    let batch_s = t0.elapsed().as_secs_f64();
    out.push((
        "tree.batch_values_per_s",
        (sub.len() * members.len()) as f64 / batch_s,
        "values/s",
    ));
    tally.attempted += 1;
    tally.wrong += u64::from(batched.answers_digest() != set.answers_digest());

    // Query kernels on the warmed set.
    let opts = QueryOptions::default();
    let tree = set.tree(0);
    let span = 64.min(shape.window);
    let ip = InnerProductQuery::exponential(span, 1.0);
    let range = RangeQuery::new(0.0, 25.0, 0, span - 1);
    out.push((
        "tree.point_us",
        p50_of(
            || drop(std::hint::black_box(tree.point_with(3, opts))),
            5_000,
        ),
        "us",
    ));
    out.push((
        "tree.inner_us",
        p50_of(
            || drop(std::hint::black_box(tree.inner_product_with(&ip, opts))),
            5_000,
        ),
        "us",
    ));
    out.push((
        "tree.range_us",
        p50_of(
            || drop(std::hint::black_box(tree.range_query(&range))),
            5_000,
        ),
        "us",
    ));
    out.push((
        "tree.snapshot_ms",
        p50_of(|| drop(std::hint::black_box(set.snapshot())), 5) / 1e3,
        "ms",
    ));
    let bytes: usize = (0..members.len()).map(|i| set.tree(i).space_bytes()).sum();
    out.push(("tree.bytes_per_stream", (bytes / members.len()) as f64, "B"));

    // Two sibling summaries merged into their parent, k coefficients.
    let signal: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
    let newer = HaarCoeffs::from_signal(&signal[..32], COEFFS).expect("power of two");
    let older = HaarCoeffs::from_signal(&signal[32..], COEFFS).expect("power of two");
    let mut scratch = MergeScratch::new();
    let merges = 1_000;
    let batch_us = p50_of(
        || {
            for _ in 0..merges {
                let m = HaarCoeffs::merge_with(&newer, &older, COEFFS, &mut scratch);
                scratch.reclaim(std::hint::black_box(m).expect("equal lengths"));
            }
        },
        200,
    );
    out.push(("wavelet.merge_ns", batch_us * 1e3 / merges as f64, "ns"));
}

/// `ShardedStreamSet::global_top_k` over the workload's shards.
pub fn topk_us(shape: &Shape, rows: &[&[f64]]) -> f64 {
    let mut set = ShardedStreamSet::new(shape.config(), shape.streams, shape.shards);
    for r in rows {
        set.push_row(r);
    }
    p50_of(|| drop(std::hint::black_box(set.global_top_k(8, 1))), 200)
}
