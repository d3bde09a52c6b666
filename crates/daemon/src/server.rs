//! The threaded TCP daemon: accept loop, per-connection workers, and
//! the monitor thread (heartbeats, failure repair, standby re-seeding,
//! and — in cluster mode — elections).
//!
//! One [`spawn`]ed server is one cluster node wrapping a sans-io
//! [`ClusterNode`]. Every socket operation carries a deadline, every
//! fan-out first reserves per-peer in-flight tokens (shedding with a
//! typed `Overloaded` when a budget is exhausted), and every malformed
//! frame closes that connection with a typed error — never a panic,
//! never a stuck thread.
//!
//! # Legacy vs cluster mode
//!
//! With [`DaemonConfig::peers`] empty the server runs exactly the PR 7
//! deployment: a static term-0 leader over solo shard replicas, no
//! standbys, no elections. With `peers` filled (every node's address,
//! indexed by node id) the failover machinery switches on: heartbeats
//! are term-fenced, a silent leader triggers a staggered election
//! (lowest-id live node wins by construction), dead primaries fail over
//! to their standbys under bumped epochs, and spare nodes are re-seeded
//! as standbys from the live primary.
//!
//! Shutdown comes in two shapes, both needed by the tests:
//!
//! * [`ServerHandle::stop`] — graceful: stop accepting, let every
//!   connection worker finish its in-flight request, drain, checkpoint
//!   durable state, report a [`DrainReport`].
//! * [`ServerHandle::kill`] — abrupt: drop everything on the floor, no
//!   drain, no checkpoint. This is the "node killed mid-run" of the
//!   failover tests; the cluster must degrade explicitly, never
//!   silently.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use swat_replication::RetryPolicy;
use swat_tree::SwatConfig;

use crate::client::PeerPool;
use crate::cluster::{stale_term_in, PeerCall, Plan};
use crate::node::ClusterNode;
use crate::proto::{
    check_frame, decode_request, encode_response, ErrorCode, Request, Response, WireHealth,
};
use crate::transport::{TcpTransport, Transport, TransportError, READ_CHUNK};

/// Which role this node boots as.
#[derive(Debug, Clone)]
pub enum Role {
    /// The bootstrap leader (node 0); owns no streams itself.
    Leader {
        /// Replica addresses, shard order (`replicas[s]` owns shard
        /// `s`). Ignored when [`DaemonConfig::peers`] is set — the peer
        /// table covers everyone then.
        replicas: Vec<SocketAddr>,
    },
    /// A shard owner (node `shard + 1`).
    Replica {
        /// The shard this node is primary of at bootstrap.
        shard: usize,
    },
}

/// Everything a node needs to come up.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Leader or replica.
    pub role: Role,
    /// The tree configuration every stream shares.
    pub config: SwatConfig,
    /// Total global streams.
    pub streams: usize,
    /// Total shards (= replicas).
    pub shards: usize,
    /// Where to listen (`127.0.0.1:0` picks a free port).
    pub listen: SocketAddr,
    /// Durable storage directory (`None` = in-memory).
    pub dir: Option<PathBuf>,
    /// Read/write deadline on every socket operation.
    pub io_timeout: Duration,
    /// Per-peer in-flight budget before load shedding (leader only).
    pub max_inflight: usize,
    /// Heartbeat/monitor period.
    pub hb_period: Duration,
    /// Consecutive misses before a peer is `Dead`.
    pub miss_threshold: u32,
    /// Every node's address, indexed by node id. Empty = legacy mode
    /// (no elections, no standbys — the PR 7 topology).
    pub peers: Vec<SocketAddr>,
    /// Whether shards keep warm standbys (cluster mode only).
    pub standbys: bool,
    /// How long a follower waits without hearing a live leader before
    /// starting an election (cluster mode only; staggered by node id).
    pub election_timeout: Duration,
}

impl DaemonConfig {
    /// A sensible localhost config for `role` (legacy mode; fill
    /// [`DaemonConfig::peers`] to arm failover).
    pub fn localhost(role: Role, config: SwatConfig, streams: usize, shards: usize) -> Self {
        DaemonConfig {
            role,
            config,
            streams,
            shards,
            listen: "127.0.0.1:0".parse().expect("static addr"),
            dir: None,
            io_timeout: Duration::from_millis(500),
            max_inflight: 64,
            hb_period: Duration::from_millis(100),
            miss_threshold: 3,
            peers: Vec::new(),
            standbys: false,
            election_timeout: Duration::from_millis(600),
        }
    }
}

/// What the graceful drain accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests completed after the stop signal.
    pub drained: u64,
    /// Whether durable state was checkpointed on the way out.
    pub checkpointed: bool,
}

/// State shared by the accept loop, connection workers, and monitor.
struct Inner {
    node: Mutex<ClusterNode>,
    /// Pool toward the other nodes. Cluster mode: indexed by node id.
    /// Legacy mode: indexed by shard (node id − 1).
    peers: PeerPool,
    /// Cluster mode flag (elections + fenced repair armed).
    cluster: bool,
    /// Whether standby re-seeding runs.
    standbys: bool,
    /// Whether this node reports a checkpoint on graceful drain.
    is_replica: bool,
    /// Graceful stop: finish in-flight work, then exit.
    stop: AtomicBool,
    /// Abrupt kill: exit without responding further.
    killed: AtomicBool,
    /// Requests completed after `stop` was raised.
    drained: AtomicU64,
    /// Milliseconds (of `started`) when valid current-leader traffic
    /// last arrived — the election suppressor.
    leader_contact_ms: AtomicU64,
    started: Instant,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Lock the node, surfacing poisoning as a typed failure instead of
    /// a cascading panic: a connection worker that panicked mid-request
    /// must not take every other connection down with it.
    fn lock_node(&self) -> Result<MutexGuard<'_, ClusterNode>, ()> {
        self.node.lock().map_err(|_| ())
    }

    /// The pool index of node `id` (see [`Inner::peers`]).
    fn peer_index(&self, id: u64) -> usize {
        if self.cluster {
            id as usize
        } else {
            id as usize - 1
        }
    }

    /// Deliver one request to `target`, self-routing included. Records
    /// the outcome in the registry when this node leads and tracks the
    /// target. `skip_dead` avoids burning connect timeouts on peers
    /// already known dead (heartbeats must NOT skip, or the dead could
    /// never rejoin).
    fn deliver(&self, target: u64, req: &Request, skip_dead: bool) -> Option<Response> {
        let self_id = {
            let node = self.lock_node().ok()?;
            if skip_dead && target != node.id() && known_dead(&node, target) {
                return None;
            }
            node.id()
        };
        if target == self_id {
            return Some(self.lock_node().ok()?.handle(req));
        }
        let result = self.peers.exchange(self.peer_index(target), req);
        let at = self.now_ms();
        if let Ok(mut node) = self.lock_node() {
            record_outcome(&mut node, at, target, result.is_some());
        }
        result
    }

    /// Deliver one round of a fan-out; slot `i` of the result answers
    /// `calls[i]`. One node lock serves the self-routed legs and skips
    /// peers already known dead, one [`PeerPool::exchange_many`] carries
    /// every remaining leg (one write and one read per peer when the
    /// connections are up), and one node lock records each leg's outcome
    /// in the registry.
    fn deliver_fan(&self, calls: &[PeerCall]) -> Vec<Option<Response>> {
        let mut results: Vec<Option<Response>> = vec![None; calls.len()];
        let mut remote = Vec::with_capacity(calls.len());
        {
            let Ok(mut node) = self.lock_node() else {
                return results;
            };
            let self_id = node.id();
            for (i, call) in calls.iter().enumerate() {
                if call.node == self_id {
                    results[i] = Some(node.handle(&call.request));
                    continue;
                }
                if !known_dead(&node, call.node) {
                    remote.push(i);
                }
            }
        }
        let legs: Vec<(usize, &Request)> = remote
            .iter()
            .map(|&i| (self.peer_index(calls[i].node), &calls[i].request))
            .collect();
        let answers = self.peers.exchange_many(&legs);
        let at = self.now_ms();
        if let Ok(mut node) = self.lock_node() {
            for (&i, answer) in remote.iter().zip(&answers) {
                record_outcome(&mut node, at, calls[i].node, answer.is_some());
            }
        }
        for (i, answer) in remote.into_iter().zip(answers) {
            results[i] = answer;
        }
        results
    }

    /// Serve one decoded request. Total: every input maps to exactly
    /// one response.
    fn serve(&self, req: &Request) -> Response {
        let is_leader = match self.lock_node() {
            Ok(node) => node.is_leader(),
            Err(()) => {
                return Response::ErrorR {
                    code: ErrorCode::Internal,
                }
            }
        };
        let resp = match req {
            Request::Ingest { .. }
            | Request::Point { .. }
            | Request::Range { .. }
            | Request::TopK { .. }
                if is_leader =>
            {
                self.serve_fan(req)
            }
            _ => {
                let resp = match self.lock_node() {
                    Ok(mut node) => node.handle(req),
                    Err(()) => Response::ErrorR {
                        code: ErrorCode::Internal,
                    },
                };
                // Accepted traffic from the current leader resets the
                // election clock.
                let from_leader = matches!(
                    req,
                    Request::Fenced { .. }
                        | Request::NewTerm { .. }
                        | Request::Replicate { .. }
                        | Request::FetchShard { .. }
                        | Request::InstallShard { .. }
                        | Request::Promote { .. }
                );
                if from_leader && !matches!(resp, Response::StaleTermR { .. }) {
                    self.leader_contact_ms
                        .store(self.now_ms(), Ordering::SeqCst);
                }
                resp
            }
        };
        if matches!(req, Request::Shutdown) {
            self.stop.store(true, Ordering::SeqCst);
        }
        resp
    }

    /// The leader data plane: plan under the lock, deliver each round
    /// through [`Self::deliver_fan`] outside it, merge under the lock
    /// again. Stepping down mid-request turns into a `NotLeaderR`
    /// redirect, never a wrong answer.
    fn serve_fan(&self, req: &Request) -> Response {
        let internal = Response::ErrorR {
            code: ErrorCode::Internal,
        };
        let not_leader = |node: &ClusterNode| Response::NotLeaderR {
            leader: node.leader_id(),
            term: node.term(),
        };
        let (self_id, calls) = {
            let Ok(node) = self.lock_node() else {
                return internal;
            };
            let Some(lead) = node.lead() else {
                return not_leader(&node);
            };
            match lead.plan(req) {
                Plan::Done(r) => return r,
                Plan::Fan(calls) => (node.id(), calls),
            }
        };
        // Reserve in-flight tokens toward every remote peer touched;
        // self-served calls need no budget.
        let idxs: Vec<usize> = calls
            .iter()
            .filter(|c| c.node != self_id)
            .map(|c| self.peer_index(c.node))
            .collect();
        let Some(_guard) = self.peers.try_acquire(&idxs) else {
            return Response::Overloaded;
        };
        let results = self.deliver_fan(&calls);
        let stale = stale_term_in(&results);
        let resp = {
            let Ok(mut node) = self.lock_node() else {
                return internal;
            };
            if node.lead().is_none() {
                not_leader(&node)
            } else {
                match req {
                    Request::Ingest { req_id, .. } => {
                        // invariant: lead() checked non-None just above,
                        // and the node lock is held continuously since.
                        let lead = node.lead_mut().expect("still leading");
                        lead.finish_ingest(*req_id, &calls, &results)
                    }
                    Request::Point { .. } | Request::Range { .. } => {
                        let lead = node.lead_mut().expect("still leading");
                        lead.finish_routed(&calls[0], results.first().cloned().flatten())
                    }
                    Request::TopK { k } => {
                        let refines = {
                            let lead = node.lead_mut().expect("still leading");
                            lead.plan_topk_round2(*k, &calls, &results).1
                        };
                        drop(node);
                        let scans: Vec<(usize, Option<Response>)> = refines
                            .iter()
                            .map(|c| c.shard)
                            .zip(self.deliver_fan(&refines))
                            .collect();
                        let Ok(mut node) = self.lock_node() else {
                            return internal;
                        };
                        if node.lead().is_none() {
                            not_leader(&node)
                        } else {
                            node.lead_mut()
                                .expect("still leading")
                                .finish_topk(*k, &calls, &results, &scans)
                        }
                    }
                    // invariant: serve() only routes the four data
                    // requests here, all covered above.
                    _ => internal,
                }
            }
        };
        if let Some((term, leader)) = stale {
            // Someone leads a newer term: adopt it and redirect the
            // client there rather than reporting a spurious failure.
            if let Ok(mut node) = self.lock_node() {
                node.observe_stale_term(term, leader);
            }
            return Response::NotLeaderR { leader, term };
        }
        resp
    }

    /// Deliver a planned call list sequentially, term-checking results.
    fn deliver_all(&self, calls: &[PeerCall]) -> Vec<Option<Response>> {
        calls
            .iter()
            .map(|c| self.deliver(c.node, &c.request, true))
            .collect()
    }
}

/// Whether `node` leads and its registry already holds `target` dead.
fn known_dead(node: &ClusterNode, target: u64) -> bool {
    node.lead().is_some_and(|lead| {
        lead.registry().tracks(target) && lead.registry().health(target) == WireHealth::Dead
    })
}

/// Book one exchange with `target` in the registry, when `node` leads and
/// tracks it.
fn record_outcome(node: &mut ClusterNode, at: u64, target: u64, answered: bool) {
    let Some(lead) = node.lead_mut() else {
        return;
    };
    if !lead.registry().tracks(target) {
        return;
    }
    if answered {
        lead.registry_mut().record_success(at, target);
    } else {
        lead.registry_mut().record_failure(at, target);
    }
}

/// A running daemon, owned by whoever spawned it.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    hb_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a wire-level `Shutdown` request asked this node to exit.
    pub fn stop_requested(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Whether this node currently leads (test/bench introspection).
    pub fn is_leader(&self) -> bool {
        self.inner
            .lock_node()
            .map(|n| n.is_leader())
            .unwrap_or(false)
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests,
    /// checkpoint durable state, join every thread.
    pub fn stop(mut self) -> DrainReport {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.join_all();
        let checkpointed = self.inner.is_replica
            && self
                .inner
                .lock_node()
                .map(|mut n| n.checkpoint().is_ok())
                .unwrap_or(false);
        DrainReport {
            drained: self.inner.drained.load(Ordering::SeqCst),
            checkpointed,
        }
    }

    /// Abrupt kill: no drain, no checkpoint — the crash the failover
    /// tests inflict mid-run.
    pub fn kill(mut self) {
        self.inner.killed.store(true, Ordering::SeqCst);
        self.inner.stop.store(true, Ordering::SeqCst);
        self.join_all();
    }

    fn join_all(&mut self) {
        // A worker that panicked reports a join error; swallowing it is
        // deliberate — teardown must finish for the remaining threads,
        // and the panic already surfaced on stderr.
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.hb_thread.take() {
            let _ = t.join();
        }
        let threads: Vec<JoinHandle<()>> = match self.conn_threads.lock() {
            Ok(mut g) => std::mem::take(&mut *g),
            // Poisoned by a panicking accept loop: nothing left to join
            // safely; the threads exit on the stop flag regardless.
            Err(_) => Vec::new(),
        };
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Bind a listener for [`spawn_on`] — the two-phase bring-up that lets
/// a cluster learn every node's port before any node starts serving.
///
/// # Errors
///
/// Binding failures.
pub fn bind(listen: SocketAddr) -> io::Result<TcpListener> {
    TcpListener::bind(listen)
}

/// Bring a node up on `cfg.listen`.
///
/// # Errors
///
/// Binding or store-recovery failures.
pub fn spawn(cfg: DaemonConfig) -> io::Result<ServerHandle> {
    let listener = bind(cfg.listen)?;
    spawn_on(listener, cfg)
}

/// Bring a node up on an already-bound listener (see [`bind`]).
///
/// # Errors
///
/// Store-recovery or listener-configuration failures.
pub fn spawn_on(listener: TcpListener, cfg: DaemonConfig) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let cluster = !cfg.peers.is_empty();
    let standbys = cluster && cfg.standbys;
    let store_err = |e: swat_store::StoreError| io::Error::other(e.to_string());
    let node = match &cfg.role {
        Role::Replica { shard } => {
            let id = *shard as u64 + 1;
            match &cfg.dir {
                Some(dir) => ClusterNode::durable_replica(
                    id,
                    cfg.config,
                    cfg.streams,
                    cfg.shards,
                    cfg.miss_threshold,
                    standbys,
                    dir.clone(),
                )
                .map_err(store_err)?,
                None => ClusterNode::replica(
                    id,
                    cfg.config,
                    cfg.streams,
                    cfg.shards,
                    cfg.miss_threshold,
                    standbys,
                ),
            }
        }
        Role::Leader { .. } => {
            let node = ClusterNode::bootstrap_leader(
                cfg.config,
                cfg.streams,
                cfg.shards,
                cfg.miss_threshold,
                standbys,
            );
            match &cfg.dir {
                Some(dir) => node.with_meta_dir(dir.clone()).map_err(store_err)?,
                None => node,
            }
        }
    };

    let pool_addrs = if cluster {
        cfg.peers.clone()
    } else {
        match &cfg.role {
            Role::Leader { replicas } => replicas.clone(),
            // Legacy replicas fan nothing out; an empty pool is fine.
            Role::Replica { .. } => Vec::new(),
        }
    };
    let peers = PeerPool::new(
        pool_addrs,
        RetryPolicy {
            max_retries: 2,
            timeout: 20,
        },
        cfg.io_timeout,
        cfg.max_inflight,
    );

    let inner = Arc::new(Inner {
        node: Mutex::new(node),
        peers,
        cluster,
        standbys,
        is_replica: matches!(cfg.role, Role::Replica { .. }),
        stop: AtomicBool::new(false),
        killed: AtomicBool::new(false),
        drained: AtomicU64::new(0),
        leader_contact_ms: AtomicU64::new(0),
        started: Instant::now(),
    });

    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let io_timeout = cfg.io_timeout;

    let accept_inner = inner.clone();
    let accept_threads = conn_threads.clone();
    let accept_thread = std::thread::spawn(move || loop {
        if accept_inner.stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_inner = accept_inner.clone();
                let t = std::thread::spawn(move || {
                    serve_connection(conn_inner, stream, io_timeout);
                });
                if let Ok(mut g) = accept_threads.lock() {
                    g.push(t);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    });

    // The monitor runs on the legacy leader (heartbeats only) and on
    // every cluster-mode node (heartbeats + repair + elections).
    let hb_thread = if cluster || matches!(cfg.role, Role::Leader { .. }) {
        let hb_inner = inner.clone();
        let period = cfg.hb_period;
        let election_timeout = cfg.election_timeout;
        Some(std::thread::spawn(move || {
            monitor_loop(hb_inner, period, election_timeout)
        }))
    } else {
        None
    };

    Ok(ServerHandle {
        addr,
        inner,
        accept_thread: Some(accept_thread),
        conn_threads,
        hb_thread,
    })
}

/// One connection worker: framed request/response until close, stop,
/// or a protocol violation (which closes the connection — the typed
/// error is the decoder's; a malformed peer gets no second chance).
///
/// A response is queued and held back only while the *next* complete
/// request is already in the read buffer, so requests that arrived in
/// one segment are answered in one. The wait is bounded: the held
/// response leaves after serving requests that are already here (never
/// after waiting on the socket), or sooner once a read chunk's worth has
/// queued up. Every exit but `kill` flushes first, so an answer computed
/// before a violation or `Shutdown` still goes out.
fn serve_connection(inner: Arc<Inner>, stream: std::net::TcpStream, io_timeout: Duration) {
    let Ok(mut tp) = TcpTransport::new(stream, io_timeout, io_timeout) else {
        return;
    };
    loop {
        if inner.killed.load(Ordering::SeqCst) {
            return;
        }
        let frame = match tp.recv_frame() {
            Ok(f) => f,
            // Only ever with nothing queued: a queue is held across this
            // call only when it returns a buffered frame at once.
            Err(TransportError::TimedOut) => {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            // Closed, I/O failure, or oversize frame: drop the
            // connection. Oversize is a protocol violation (typed
            // upstream as ProtoError::Oversize).
            Err(_) => break,
        };
        let req = match check_frame(&frame).and_then(decode_request) {
            Ok(r) => r,
            // Malformed frame: typed error, closed connection. Never a
            // panic, and the violator cannot keep the thread busy.
            Err(_) => break,
        };
        let stopping = inner.stop.load(Ordering::SeqCst);
        let resp = inner.serve(&req);
        if inner.killed.load(Ordering::SeqCst) {
            return;
        }
        tp.queue_frame(&encode_response(&resp));
        let last = matches!(req, Request::Shutdown);
        if (last || !tp.frame_buffered() || tp.queued() >= READ_CHUNK) && tp.flush().is_err() {
            return;
        }
        if stopping {
            inner.drained.fetch_add(1, Ordering::SeqCst);
        }
        if last {
            return;
        }
    }
    let _ = tp.flush();
}

/// The per-node monitor. While leading: term-fenced heartbeats to every
/// peer (never skipping the dead — that is how they rejoin), then a
/// repair pass, then (with standbys on) at most one re-seeding step.
/// While following in cluster mode: watch the leader-contact clock and
/// claim the next owned term after a staggered silence — probing every
/// lower-id node first, so the lowest live id wins without a vote.
fn monitor_loop(inner: Arc<Inner>, period: Duration, election_timeout: Duration) {
    let mut nonce = 0u64;
    loop {
        std::thread::sleep(period);
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(node) = inner.lock_node() else {
            // Poisoned node state: stop monitoring. Heartbeats cease and
            // the rest of the cluster fails over around this node.
            return;
        };
        let leading = node.is_leader();
        let (id, peer_ids) = (node.id(), node.peer_ids());
        let heartbeat = node.lead().map(|l| {
            nonce += 1;
            l.heartbeat(nonce)
        });
        drop(node);

        if leading {
            // invariant: leading ⇒ heartbeat was planned above.
            let hb = heartbeat.expect("leader plans a heartbeat");
            let mut stale = None;
            for &peer in &peer_ids {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                let resp = inner.deliver(peer, &hb, false);
                if let Some(Response::StaleTermR { term, leader }) = resp {
                    stale = Some((term, leader));
                }
            }
            if let Some((term, leader)) = stale {
                if let Ok(mut node) = inner.lock_node() {
                    node.observe_stale_term(term, leader);
                }
                continue;
            }
            if !inner.cluster {
                continue;
            }
            // Repair: promote around the dead, re-anchor epochs.
            let at = inner.now_ms();
            let calls = match inner.lock_node() {
                Ok(mut node) => node.repair_plan(at),
                Err(()) => return,
            };
            if !calls.is_empty() {
                let results = inner.deliver_all(&calls);
                if let Ok(mut node) = inner.lock_node() {
                    node.finish_repair(inner.now_ms(), &calls, &results);
                }
            }
            // Re-seed a standby from its primary, one step per tick.
            if inner.standbys {
                let at = inner.now_ms();
                let fetch_calls = match inner.lock_node() {
                    Ok(mut node) => node.rejoin_plan(at),
                    Err(()) => return,
                };
                if let Some(fetch_calls) = fetch_calls {
                    let results = inner.deliver_all(&fetch_calls);
                    let install = match inner.lock_node() {
                        Ok(mut node) => node.finish_fetch(inner.now_ms(), &fetch_calls, &results),
                        Err(()) => return,
                    };
                    if let Some(install) = install {
                        let result = inner.deliver(install.node, &install.request, true);
                        if let Ok(mut node) = inner.lock_node() {
                            node.finish_install(inner.now_ms(), result);
                        }
                    }
                }
            }
        } else if inner.cluster {
            // Follower: is the leader silent past our staggered patience?
            let now = inner.now_ms();
            let last = inner.leader_contact_ms.load(Ordering::SeqCst);
            let patience =
                election_timeout.as_millis() as u64 + id * period.as_millis().max(1) as u64;
            if now.saturating_sub(last) < patience {
                continue;
            }
            // Deterministic successor: defer to any live lower id.
            let lower_alive = (0..id).any(|n| inner.deliver(n, &Request::Status, false).is_some());
            if lower_alive {
                inner
                    .leader_contact_ms
                    .store(inner.now_ms(), Ordering::SeqCst);
                continue;
            }
            let claim = match inner.lock_node() {
                Ok(mut node) => match node.begin_claim() {
                    Ok(claim) => claim,
                    // The term record would not persist: claiming is
                    // unsafe (monotonicity could break across restart).
                    Err(_) => continue,
                },
                Err(()) => return,
            };
            let reports: Vec<(u64, Option<Response>)> = peer_ids
                .iter()
                .map(|&p| (p, inner.deliver(p, &claim, false)))
                .collect();
            let calls = match inner.lock_node() {
                Ok(mut node) => node.finish_claim(inner.now_ms(), &reports),
                Err(()) => return,
            };
            if let Some(calls) = calls {
                let results = inner.deliver_all(&calls);
                if let Ok(mut node) = inner.lock_node() {
                    node.finish_repair(inner.now_ms(), &calls, &results);
                }
            }
            inner
                .leader_contact_ms
                .store(inner.now_ms(), Ordering::SeqCst);
        }
    }
}
