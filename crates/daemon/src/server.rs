//! The threaded TCP daemon: accept loop, per-connection workers, and
//! the monitor thread (heartbeats, failure repair, standby re-seeding,
//! and — in cluster mode — elections).
//!
//! One [`spawn`]ed server is one cluster node wrapping a sans-io
//! [`ClusterNode`]. What it does with a request, and what its monitor
//! does each period, is [`crate::driver`]'s; this module is the
//! [`Fabric`] those loops run over — the node behind a mutex, the
//! [`PeerPool`] as the wire, milliseconds since start as the clock — and
//! the threads around it. Every socket operation carries a deadline,
//! every fan-out first reserves per-peer in-flight tokens (shedding with
//! a typed `Overloaded` when a budget is exhausted), and every malformed
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
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use swat_replication::RetryPolicy;
use swat_tree::SwatConfig;

use crate::client::PeerPool;
use crate::cluster::Plan;
use crate::driver::{self, Fabric};
use crate::node::ClusterNode;
use crate::proto::{check_frame, decode_request, Request, Response};
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
    /// This node's id.
    id: u64,
    /// Pool toward the other nodes, indexed by node id. This node's own
    /// slot is never dialled: self-routed legs are served locally.
    peers: PeerPool,
    /// Whether this node reports a checkpoint on graceful drain.
    is_replica: bool,
    /// Graceful stop: finish in-flight work, then exit.
    stop: AtomicBool,
    /// Abrupt kill: exit without responding further.
    killed: AtomicBool,
    /// Requests completed after `stop` was raised.
    drained: AtomicU64,
    started: Instant,
}

/// The TCP deployment of the driver's loops. A connection worker that
/// panicked mid-request poisons the node lock; that surfaces as `None`
/// (a typed `Internal` answer, a monitor that stops) instead of a panic
/// cascading into every other connection.
impl Fabric for &Inner {
    fn with_node<R>(&mut self, f: impl FnOnce(&mut ClusterNode) -> R) -> Option<R> {
        self.node.lock().ok().map(|mut node| f(&mut node))
    }

    fn exchange(&mut self, legs: &[(u64, &Request)]) -> Vec<Option<Response>> {
        self.peers.exchange_many(legs)
    }

    fn now(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

impl Inner {
    /// Serve one decoded request: the driver's cycle, with the in-flight
    /// tokens toward every remote peer of the plan reserved between its
    /// halves — a shed request has sent nothing to anyone. Self-served
    /// calls need no budget.
    fn serve(&self, req: &Request) -> Response {
        let mut fabric = self;
        let resp = match driver::plan(&mut fabric, req) {
            Plan::Done(resp) => resp,
            Plan::Fan(calls) => {
                let remote: Vec<usize> = calls
                    .iter()
                    .filter(|c| c.node != self.id)
                    .map(|c| c.node as usize)
                    .collect();
                match self.peers.try_acquire(&remote) {
                    Some(_tokens) => driver::finish(&mut fabric, req, &calls),
                    None => Response::Overloaded,
                }
            }
        };
        if matches!(req, Request::Shutdown) {
            self.stop.store(true, Ordering::SeqCst);
        }
        resp
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
            .node
            .lock()
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
                .node
                .lock()
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
            // The accept loop blocks in `accept`: one connection of our own
            // wakes it to see the stop flag. A refused or timed-out dial is
            // tried again until the loop has gone.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            while !t.is_finished() {
                if TcpStream::connect_timeout(&wake, Duration::from_millis(100)).is_ok() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
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
    listener.set_nonblocking(false)?;

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
            // Indexed by node id like the peer table: slot 0 is this
            // node, `replicas[s]` is node `s + 1`.
            Role::Leader { replicas } => std::iter::once(addr).chain(replicas.clone()).collect(),
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
        id: node.id(),
        node: Mutex::new(node),
        peers,
        is_replica: matches!(cfg.role, Role::Replica { .. }),
        stop: AtomicBool::new(false),
        killed: AtomicBool::new(false),
        drained: AtomicU64::new(0),
        started: Instant::now(),
    });

    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let io_timeout = cfg.io_timeout;

    let accept_inner = inner.clone();
    let accept_threads = conn_threads.clone();
    // Blocks in `accept`; `stop` and `kill` raise the flag, then connect
    // once to wake it (`ServerHandle::join_all`), and that connection is
    // dropped unserved.
    let accept_thread = std::thread::spawn(move || loop {
        let accepted = listener.accept();
        if accept_inner.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let conn_inner = accept_inner.clone();
                let t = std::thread::spawn(move || {
                    serve_connection(conn_inner, stream, io_timeout);
                });
                if let Ok(mut g) = accept_threads.lock() {
                    g.push(t);
                }
            }
            // A connection reset before it was taken costs only itself.
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
            Err(_) => break,
        }
    });

    // The monitor runs on the legacy leader (heartbeats only) and on
    // every cluster-mode node (heartbeats + repair + elections): one
    // `driver::monitor_pass` per period, until stopped or until the node
    // state is poisoned — heartbeats cease then, and the rest of the
    // cluster fails over around this node.
    let hb_thread = if cluster || matches!(cfg.role, Role::Leader { .. }) {
        let hb_inner = inner.clone();
        let period = cfg.hb_period;
        let election_ms = cfg.election_timeout.as_millis() as u64;
        let period_ms = period.as_millis().max(1) as u64;
        Some(std::thread::spawn(move || loop {
            std::thread::sleep(period);
            if hb_inner.stop.load(Ordering::SeqCst) {
                return;
            }
            if driver::monitor_pass(&mut &*hb_inner, cluster, election_ms, period_ms).is_none() {
                return;
            }
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
        let req = match check_frame(frame).and_then(decode_request) {
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
        tp.queue_response(&resp);
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
